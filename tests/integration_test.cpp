// End-to-end integration: the full MC8051 core synthesized onto the generic
// FPGA must behave cycle-for-cycle like the netlist simulator and like the
// instruction-set reference across complete workloads. This is the property
// that makes the paper's FADES-vs-VFIT comparison meaningful: both tools
// execute the *same* system.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "fpga/device.hpp"
#include "mc8051/core.hpp"
#include "mc8051/iss.hpp"
#include "mc8051/workloads.hpp"
#include "sim/simulator.hpp"
#include "synth/implement.hpp"

namespace fades {
namespace {

using fpga::Device;
using fpga::DeviceSpec;
using mc8051::Workload;
using sim::Simulator;
using synth::EmulatedSystem;
using synth::Implementation;

struct Rig {
  netlist::Netlist nl;
  std::unique_ptr<Implementation> impl;
  std::unique_ptr<Device> device;
  std::unique_ptr<Simulator> simulator;
  std::unique_ptr<EmulatedSystem> system;

  Rig(const Workload& w, const DeviceSpec& spec)
      : nl(mc8051::buildCore(w.bytes)) {
    impl = std::make_unique<Implementation>(synth::implement(nl, spec));
    device = std::make_unique<Device>(spec);
    device->writeFullBitstream(impl->bitstream);
    simulator = std::make_unique<Simulator>(nl);
    system = std::make_unique<EmulatedSystem>(*device, *impl);
  }
};

class WorkloadOnFpga : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadOnFpga, LockstepWithSimulatorAndIss) {
  const std::string which = GetParam();
  const Workload w = which == "bubblesort" ? mc8051::bubblesort(6)
                     : which == "checksum" ? mc8051::checksum(10)
                                           : mc8051::fibonacci(8);
  Rig rig(w, DeviceSpec::virtex1000Like());
  mc8051::Iss iss(w.bytes);

  for (std::uint64_t c = 0; c < w.cycles; ++c) {
    ASSERT_EQ(rig.simulator->portValue("p1"), rig.system->portValue("p1"))
        << "cycle " << c;
    ASSERT_EQ(rig.simulator->portValue("pc"), rig.system->portValue("pc"))
        << "cycle " << c;
    rig.simulator->step();
    rig.system->step();
  }
  iss.runCycles(w.cycles);
  EXPECT_EQ(rig.system->portValue("p0"), w.expectedP0);
  EXPECT_EQ(rig.system->portValue("p1"), w.expectedP1);
  EXPECT_EQ(rig.system->portValue("p1"), iss.p1());
  EXPECT_EQ(rig.system->portValue("acc"), iss.acc());
  EXPECT_EQ(rig.system->portValue("sp"), iss.sp());
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadOnFpga,
                         ::testing::Values("bubblesort", "checksum",
                                           "fibonacci"),
                         [](const auto& info) { return std::string(info.param); });

TEST(Integration, IramContentsMatchAfterRun) {
  const Workload w = mc8051::bubblesort(6);
  Rig rig(w, DeviceSpec::virtex1000Like());
  rig.simulator->run(w.cycles);
  for (std::uint64_t c = 0; c < w.cycles; ++c) rig.system->step();

  // Compare the sorted array inside the device's memory block against the
  // simulator's RAM model, through the location map.
  const auto* ramSite = rig.impl->findRam("iram");
  ASSERT_NE(ramSite, nullptr);
  netlist::RamId iramId{};
  for (std::uint32_t r = 0; r < rig.nl.ramCount(); ++r) {
    if (rig.nl.ram(netlist::RamId{r}).name == "iram") {
      iramId = netlist::RamId{r};
    }
  }
  for (unsigned a = 0; a < 128; ++a) {
    std::uint64_t devWord = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
      const auto [block, cbit] = ramSite->bitAddress(a, bit);
      if (rig.device->bramBit(
              rig.device->layout().bramContentBit(block, cbit))) {
        devWord |= 1ULL << bit;
      }
    }
    ASSERT_EQ(devWord, rig.simulator->ramWord(iramId, a)) << "iram[" << a << "]";
  }
  // And the array is actually sorted ascending 1..6.
  for (unsigned i = 0; i < 6; ++i) {
    EXPECT_EQ(rig.simulator->ramWord(iramId, 0x30 + i), i + 1);
  }
}

TEST(Integration, SynthesisStatisticsOnV1000) {
  // The paper reports its core used 637 of 24576 FFs and 5310 of 24576 LUTs
  // on a Virtex-1000 (Section 7.1). Our leaner core must still fit with a
  // comparable low utilization, leaving the same "small design" regime that
  // Section 7.1's speed-up discussion assumes.
  const Workload w = mc8051::bubblesort(6);
  const auto nl = mc8051::buildCore(w.bytes);
  const auto impl = synth::implement(nl, DeviceSpec::virtex1000Like());
  EXPECT_GT(impl.stats.luts, 500u);
  EXPECT_LT(impl.stats.luts, 24576u / 2);
  EXPECT_GT(impl.stats.flops, 100u);
  EXPECT_LT(impl.stats.flops, 637u * 2);
  EXPECT_EQ(impl.stats.memBlocks, 2u);  // IRAM + ROM
  // Location map covers the architectural registers.
  for (const char* reg : {"acc[0]", "acc[7]", "b[3]", "sp[0]", "psw_cy",
                          "pc[0]", "state[0]", "ir[5]"}) {
    EXPECT_NE(impl.findFlop(reg), nullptr) << reg;
  }
}

/// FNV-1a over little-endian integers, rendered as 16 hex digits.
class Fnv1a {
 public:
  void add(std::uint64_t v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string planeLine(const char* name, const common::BitVector& plane) {
  Fnv1a h;
  for (const std::uint8_t byte : plane.exportBytes(0, plane.size())) {
    h.add(byte, 1);
  }
  return std::string("bitstream ") + name +
         " bits=" + std::to_string(plane.size()) + " fnv1a=" + h.hex() + "\n";
}

TEST(Integration, Mc8051ImplementationIsPinned) {
  // Pins the MC8051 core as FADES and VFIT see it: the netlist's element
  // counts, the gate order techmap emits LUTs in (Netlist::topoOrder), the
  // bitstream's logic and BRAM planes, and every route's transistor bits.
  // Any change to the builder, the IR, the gate order or the implementation
  // flow shows up as a reviewable diff. To regenerate after an intentional
  // change:
  //   FADES_REGEN_GOLDEN=1 ./tests/test_integration
  //     --gtest_filter='Integration.Mc8051ImplementationIsPinned'
  const Workload w = mc8051::bubblesort(6);
  const auto nl = mc8051::buildCore(w.bytes);
  const auto impl = synth::implement(nl, DeviceSpec::virtex1000Like());

  const auto st = nl.stats();
  std::string pin = "netlist nets=" + std::to_string(st.nets) +
                    " gates=" + std::to_string(st.gates) +
                    " flops=" + std::to_string(st.flops) +
                    " rams=" + std::to_string(st.rams) +
                    " ram_bits=" + std::to_string(st.ramBits) +
                    " input_bits=" + std::to_string(st.inputBits) +
                    " output_bits=" + std::to_string(st.outputBits) + "\n";
  using netlist::Unit;
  for (const Unit u : {Unit::None, Unit::Registers, Unit::Ram, Unit::Alu,
                       Unit::MemCtrl, Unit::Fsm}) {
    const auto count = [u](const auto& perUnit) {
      const auto it = perUnit.find(u);
      return std::to_string(it == perUnit.end() ? 0 : it->second);
    };
    pin += std::string("unit ") + netlist::toString(u) +
           " gates=" + count(st.gatesPerUnit) +
           " flops=" + count(st.flopsPerUnit) + "\n";
  }
  Fnv1a order;
  for (const netlist::GateId g : nl.topoOrder()) order.add(g.value, 4);
  pin += "topo_order fnv1a=" + order.hex() + "\n";
  pin += planeLine("logic", impl.bitstream.logic);
  pin += planeLine("bram", impl.bitstream.bram);
  Fnv1a routes;
  std::size_t transistorBits = 0;
  for (const auto& route : impl.routes) {
    routes.add(route.transistorBits.size(), 8);
    for (const std::size_t bit : route.transistorBits) routes.add(bit, 8);
    transistorBits += route.transistorBits.size();
  }
  pin += "routes count=" + std::to_string(impl.routes.size()) +
         " transistor_bits=" + std::to_string(transistorBits) +
         " fnv1a=" + routes.hex() + "\n";

  const std::string goldenPath =
      std::string(FADES_TEST_DATA_DIR) + "/mc8051_implementation.txt";
  if (std::getenv("FADES_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(goldenPath, std::ios::binary);
    out << pin;
    GTEST_SKIP() << "regenerated " << goldenPath;
  }
  std::ifstream in(goldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << goldenPath
                         << " (run with FADES_REGEN_GOLDEN=1 to create)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(pin, golden.str());
}

TEST(Integration, GsrResetRestartsTheWorkload) {
  const Workload w = mc8051::fibonacci(5);
  Rig rig(w, DeviceSpec::virtex1000Like());
  for (std::uint64_t c = 0; c < w.cycles; ++c) rig.system->step();
  EXPECT_EQ(rig.system->portValue("p0"), w.expectedP0);

  // GSR returns every FF to its power-on value; memory contents keep their
  // (dirty) state - exactly why the campaign controller must rewrite the
  // memory frames between experiments (paper Section 4.1).
  rig.device->pulseGsr();
  EXPECT_EQ(rig.system->portValue("pc"), 0u);
  EXPECT_EQ(rig.system->portValue("p0"), 0u);
  // The program re-executes and reconverges to the same result (fibonacci
  // rewrites all state it reads).
  for (std::uint64_t c = 0; c < w.cycles; ++c) rig.system->step();
  EXPECT_EQ(rig.system->portValue("p0"), w.expectedP0);
  EXPECT_EQ(rig.system->portValue("p1"), w.expectedP1);
}

}  // namespace
}  // namespace fades
