// Cross-tool property tests: FADES (run-time reconfiguration on the FPGA)
// and VFIT (simulator commands on the event-driven simulator) must classify
// IDENTICAL faults identically whenever the fault semantics is exact on
// both sides - the foundation of the paper's Table 3 validation.
//
// Random sequential circuits are generated, implemented, and attacked by
// both tools with the same bit-flips at the same instants.
#include <gtest/gtest.h>

#include <memory>

#include "core/autonomous.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"
#include "vfit/vfit.hpp"

namespace fades {
namespace {

using campaign::FaultModel;
using campaign::Outcome;
using campaign::TargetClass;
using common::Rng;
using netlist::Netlist;
using netlist::Unit;
using rtl::Builder;
using rtl::Bus;

Netlist randomSequentialCircuit(std::uint64_t seed) {
  Rng rng(seed);
  Builder b;
  b.setUnit(Unit::Registers);
  std::vector<rtl::Register> regs;
  const unsigned nRegs = 2 + static_cast<unsigned>(rng.below(3));
  for (unsigned r = 0; r < nRegs; ++r) {
    regs.push_back(
        b.makeRegister("r" + std::to_string(r), 4, rng.below(16)));
  }
  std::vector<rtl::NetId> pool;
  for (const auto& r : regs) {
    pool.insert(pool.end(), r.q.begin(), r.q.end());
  }
  b.setUnit(Unit::Alu);
  for (unsigned g = 0; g < 25; ++g) {
    const auto pick = [&] { return pool[rng.below(pool.size())]; };
    rtl::NetId out;
    switch (rng.below(4)) {
      case 0: out = b.land(pick(), pick()); break;
      case 1: out = b.lxor(pick(), pick()); break;
      case 2: out = b.lnot(pick()); break;
      default: out = b.lmux(pick(), pick(), pick()); break;
    }
    pool.push_back(out);
  }
  b.setUnit(Unit::Registers);
  for (auto& r : regs) {
    Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pool[rng.below(pool.size())]);
    b.connect(r, d);
  }
  Bus out;
  for (int k = 0; k < 6; ++k) out.push_back(pool[rng.below(pool.size())]);
  b.output("out", out);
  return b.finish();
}

class CrossToolAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CrossToolAgreement, BitFlipsClassifyIdentically) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = randomSequentialCircuit(seed);
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
  const std::uint64_t cycles = 48;

  fpga::Device device(impl.spec);
  core::FadesOptions fOpt;
  fOpt.observedOutputs = {"out"};
  core::FadesTool fades(device, impl, cycles, fOpt);

  vfit::VfitOptions vOpt;
  vOpt.observedOutputs = {"out"};
  vfit::VfitTool vfitTool(nl, cycles, vOpt);

  // Every flop, several instants: identical classification.
  for (std::uint32_t fi = 0; fi < impl.flops.size(); ++fi) {
    const auto vfitFlop = nl.findFlop(impl.flops[fi].name);
    ASSERT_TRUE(vfitFlop.has_value()) << impl.flops[fi].name;
    for (const std::uint64_t cycle : {1ull, 13ull, 30ull, 44ull}) {
      Rng r1(7), r2(7);
      const Outcome of =
          fades.runExperiment(FaultModel::BitFlip, TargetClass::SequentialFF,
                              fi, cycle, 1.0, r1);
      const Outcome ov = vfitTool.runExperiment(
          FaultModel::BitFlip, TargetClass::SequentialFF, vfitFlop->value,
          cycle, 1.0, r2);
      ASSERT_EQ(of, ov) << "seed " << seed << " flop "
                        << impl.flops[fi].name << " cycle " << cycle;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossToolAgreement, ::testing::Range(1, 9));

class CrossToolMemory : public ::testing::TestWithParam<int> {};

TEST_P(CrossToolMemory, MemoryBitFlipsClassifyIdentically) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  // A circuit that writes AND reads its RAM so memory faults can surface.
  Builder b;
  b.setUnit(Unit::Fsm);
  rtl::Register cnt = b.makeRegister("cnt", 4, 0);
  b.connect(cnt, b.increment(cnt.q));
  b.setUnit(Unit::Ram);
  Bus dout = b.ram("m", 4, 8, cnt.q, b.zeroExtend(cnt.q, 8),
                   cnt.q[0]);  // write on odd counts
  b.output("out", dout);
  const Netlist nl = b.finish();
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
  const std::uint64_t cycles = 40;

  fpga::Device device(impl.spec);
  core::FadesOptions fOpt;
  fOpt.observedOutputs = {"out"};
  core::FadesTool fades(device, impl, cycles, fOpt);
  vfit::VfitOptions vOpt;
  vOpt.observedOutputs = {"out"};
  vfit::VfitTool vfitTool(nl, cycles, vOpt);

  Rng rng(seed);
  const auto* site = impl.findRam("m");
  ASSERT_NE(site, nullptr);
  for (int trial = 0; trial < 30; ++trial) {
    const unsigned row = static_cast<unsigned>(rng.below(16));
    const unsigned bit = static_cast<unsigned>(rng.below(8));
    const auto cycle = rng.below(cycles);
    const auto [block, contentBit] = site->bitAddress(row, bit);
    const std::uint32_t fadesTarget = (block << 16) | contentBit;
    const std::uint32_t vfitTarget =
        (site->ram.value << 24) | (row << 8) | bit;
    Rng r1(3), r2(3);
    const Outcome of = fades.runExperiment(FaultModel::BitFlip,
                                           TargetClass::MemoryBlockBit,
                                           fadesTarget, cycle, 1.0, r1);
    const Outcome ov = vfitTool.runExperiment(FaultModel::BitFlip,
                                              TargetClass::MemoryBlockBit,
                                              vfitTarget, cycle, 1.0, r2);
    ASSERT_EQ(of, ov) << "seed " << seed << " row " << row << " bit " << bit
                      << " cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossToolMemory, ::testing::Range(1, 5));

TEST(CrossTool, GoldenTracesAgree) {
  // Before any fault: both tools' golden observations must match, output
  // word for output word, for every circuit seed.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist nl = randomSequentialCircuit(seed);
    const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
    fpga::Device device(impl.spec);
    core::FadesOptions fOpt;
    fOpt.observedOutputs = {"out"};
    core::FadesTool fades(device, impl, 48, fOpt);
    vfit::VfitOptions vOpt;
    vOpt.observedOutputs = {"out"};
    vfit::VfitTool vfitTool(nl, 48, vOpt);
    ASSERT_EQ(fades.golden().outputs, vfitTool.golden().outputs)
        << "seed " << seed;
  }
}

// ------------------------------------------------ observed-bit layout -----
//
// Every injector packs bit j of observed port k at bit 16k + j of one 64-bit
// output word (campaign::observedBit). A fifth port or a 17th bit would
// shift past the word or alias the next port, so every tool refuses them.

/// A free-running counter of `width` bits, published whole on every port
/// in `ports`.
Netlist counterOnPorts(const std::vector<std::string>& ports, unsigned width) {
  Builder b;
  b.setUnit(Unit::Registers);
  rtl::Register cnt = b.makeRegister("cnt", width, 0);
  b.connect(cnt, b.increment(cnt.q));
  for (const auto& port : ports) b.output(port, cnt.q);
  return b.finish();
}

/// A counter of five bits, bit k published alone on port "o<k>".
Netlist fiveOneBitPorts() {
  Builder b;
  b.setUnit(Unit::Registers);
  rtl::Register cnt = b.makeRegister("cnt", 5, 0);
  b.connect(cnt, b.increment(cnt.q));
  for (unsigned k = 0; k < 5; ++k) b.output("o" + std::to_string(k), cnt.q[k]);
  return b.finish();
}

const std::vector<std::string> kFivePorts = {"o0", "o1", "o2", "o3", "o4"};

/// `construct` must raise InvalidArgument naming `port` as the observed
/// port that does not fit.
template <typename F>
void expectLayoutRejected(F construct, const std::string& port) {
  try {
    construct();
    ADD_FAILURE() << "the tool accepted a layout the output word cannot hold";
  } catch (const common::FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::InvalidArgument) << e.what();
    EXPECT_NE(std::string(e.what()).find("observed output port '" + port +
                                         "'"),
              std::string::npos)
        << e.what();
  }
}

void expectFadesRejects(const Netlist& nl, std::vector<std::string> ports,
                        const std::string& culprit) {
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
  fpga::Device device(impl.spec);
  core::FadesOptions opt;
  opt.observedOutputs = std::move(ports);
  expectLayoutRejected([&] { core::FadesTool(device, impl, 8, opt); },
                       culprit);
}

TEST(ObservedLayout, FadesRejectsAPortWiderThan16Bits) {
  expectFadesRejects(counterOnPorts({"wide"}, 17), {"wide"}, "wide");
}

TEST(ObservedLayout, FadesRejectsAFifthPort) {
  expectFadesRejects(fiveOneBitPorts(), kFivePorts, "o4");
}

TEST(ObservedLayout, VfitRejectsAPortWiderThan16Bits) {
  const Netlist nl = counterOnPorts({"wide"}, 17);
  vfit::VfitOptions opt;
  opt.observedOutputs = {"wide"};
  expectLayoutRejected([&] { vfit::VfitTool(nl, 8, opt); }, "wide");
}

TEST(ObservedLayout, VfitRejectsAFifthPort) {
  const Netlist nl = fiveOneBitPorts();
  vfit::VfitOptions opt;
  opt.observedOutputs = kFivePorts;
  expectLayoutRejected([&] { vfit::VfitTool(nl, 8, opt); }, "o4");
}

TEST(ObservedLayout, AutonomousRejectsAPortWiderThan16Bits) {
  const Netlist nl = counterOnPorts({"wide"}, 17);
  core::AutonomousOptions opt;
  opt.observedOutputs = {"wide"};
  expectLayoutRejected([&] { core::AutonomousTool(nl, 8, opt); }, "wide");
}

TEST(ObservedLayout, AutonomousRejectsAFifthPort) {
  const Netlist nl = fiveOneBitPorts();
  core::AutonomousOptions opt;
  opt.observedOutputs = kFivePorts;
  expectLayoutRejected([&] { core::AutonomousTool(nl, 8, opt); }, "o4");
}

TEST(ObservedLayout, FourPortsOf16BitsFillTheWord) {
  // The limit itself fits: port k of a 16-bit counter lands in bits
  // 16k..16k+15, so golden word c is c repeated four times.
  const Netlist nl = counterOnPorts({"a", "b", "c", "d"}, 16);
  vfit::VfitOptions opt;
  opt.observedOutputs = {"a", "b", "c", "d"};
  const vfit::VfitTool tool(nl, 8, opt);
  for (std::uint64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(tool.golden().outputs[c], c * 0x0001000100010001ULL) << c;
  }
}

}  // namespace
}  // namespace fades
