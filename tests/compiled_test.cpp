// CompiledSimulator lane-packing unit tests: per-lane injection masks land
// in exactly one lane, the golden lane is never perturbed, divergent RAM
// addressing keeps lanes independent, and the golden lane tracks the
// event-driven simulator under the same stimulus.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "rtl/builder.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"

namespace fades::sim {
namespace {

using common::Rng;
using netlist::Netlist;
using rtl::Builder;
using rtl::Bus;

using Word = CompiledSimulator::Word;

// Counter-addressed 16x8 RAM with a known init pattern, plus an xor mixer
// net so gate-output perturbations have somewhere to land.
Netlist ramDesign() {
  Builder b;
  const auto we = b.inputBit("we");
  Bus din = b.input("din", 8);
  rtl::Register ptr = b.makeRegister("ptr", 4, 0);
  b.connect(ptr, b.increment(ptr.q));
  std::vector<std::uint8_t> init(16);
  for (unsigned i = 0; i < 16; ++i) {
    init[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  Bus q = b.ram("mem", 4, 8, ptr.q, din, we, init);
  Bus mixed = b.bXor(q, din);
  b.nameBus("mixed", mixed);
  b.output("data", q);
  b.output("mixed", mixed);
  b.output("ptr", ptr.q);
  return b.finish();
}

TEST(CompiledLanes, XorFlopLandsInExactlyOneLane) {
  const Netlist nl = ramDesign();
  CompiledSimulator cs(nl);
  const auto f = nl.findFlop("ptr[1]");
  ASSERT_TRUE(f.has_value());

  const Word before = cs.flopWord(*f);
  cs.xorFlopLanes(*f, Word{1} << 5);
  const Word after = cs.flopWord(*f);
  EXPECT_EQ(before ^ after, Word{1} << 5);
  // Golden lane (bit 0) untouched, the lane read agrees.
  EXPECT_EQ(before & 1, after & 1);
  EXPECT_EQ(cs.flopStateLane(*f, 0), static_cast<bool>(after & 1));
  // The Q net carries the flip to lane 5 only (after settle).
  cs.settle();
  const Word q = cs.netWord(nl.flops()[f->value].q);
  EXPECT_EQ((q >> 5) & 1, ((before >> 5) & 1) ^ 1);
  EXPECT_EQ(q & 1, before & 1);
}

TEST(CompiledLanes, ForceAndReleaseAreLaneLocal) {
  const Netlist nl = ramDesign();
  CompiledSimulator cs(nl);
  cs.setInput("din", 0x00);
  cs.settle();
  const auto net = nl.findNet("mixed[0]");
  ASSERT_TRUE(net.has_value());

  const Word before = cs.netWord(*net);
  // Pin lane 1 to 1 and lane 2 to 0 regardless of the driver.
  cs.forceLanes(*net, (Word{1} << 1) | (Word{1} << 2), Word{1} << 1);
  cs.settle();
  Word w = cs.netWord(*net);
  EXPECT_EQ((w >> 1) & 1, 1u);
  EXPECT_EQ((w >> 2) & 1, 0u);
  // All other lanes still see the driven value.
  const Word others = ~((Word{1} << 1) | (Word{1} << 2));
  EXPECT_EQ(w & others, before & others);

  cs.releaseLanes(*net, (Word{1} << 1) | (Word{1} << 2));
  cs.settle();
  EXPECT_EQ(cs.netWord(*net), before);
}

TEST(CompiledLanes, XorNetInversionIsLaneLocalAndClears) {
  const Netlist nl = ramDesign();
  CompiledSimulator cs(nl);
  cs.setInput("din", 0x3C);
  cs.settle();
  const auto net = nl.findNet("mixed[3]");
  ASSERT_TRUE(net.has_value());

  const Word before = cs.netWord(*net);
  cs.xorNetLanes(*net, Word{1} << 7);
  cs.settle();
  EXPECT_EQ(cs.netWord(*net) ^ before, Word{1} << 7);
  cs.clearXorNetLanes(*net, Word{1} << 7);
  cs.settle();
  EXPECT_EQ(cs.netWord(*net), before);
}

TEST(CompiledLanes, XorRamBitIsLaneLocal) {
  const Netlist nl = ramDesign();
  CompiledSimulator cs(nl);
  const netlist::RamId ram{0};
  const std::uint64_t before = cs.ramWordLane(ram, 6, 3);
  cs.xorRamBitLanes(ram, 6, 4, Word{1} << 3);
  EXPECT_EQ(cs.ramWordLane(ram, 6, 3), before ^ 0x10u);
  for (unsigned lane = 0; lane < CompiledSimulator::kLanes; ++lane) {
    if (lane == 3) continue;
    EXPECT_EQ(cs.ramWordLane(ram, 6, lane), before) << "lane " << lane;
  }
}

TEST(CompiledLanes, DivergentRamAddressesKeepLanesIndependent) {
  const Netlist nl = ramDesign();
  CompiledSimulator cs(nl);
  cs.setInput("we", 0);
  cs.setInput("din", 0);

  // Point each lane's address counter at its own row.
  std::vector<unsigned> rows(CompiledSimulator::kLanes);
  for (unsigned l = 0; l < CompiledSimulator::kLanes; ++l) {
    rows[l] = (l * 5 + 2) % 16;
  }
  for (unsigned bit = 0; bit < 4; ++bit) {
    const auto f = nl.findFlop("ptr[" + std::to_string(bit) + "]");
    ASSERT_TRUE(f.has_value());
    Word values = 0;
    for (unsigned l = 0; l < CompiledSimulator::kLanes; ++l) {
      values |= static_cast<Word>((rows[l] >> bit) & 1) << l;
    }
    cs.depositFlopLanes(*f, ~Word{0}, values);
  }
  cs.step();  // read port latches each lane's own row

  for (unsigned l = 0; l < CompiledSimulator::kLanes; ++l) {
    EXPECT_EQ(cs.portValueLane("data", l),
              static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(rows[l] * 17 + 3)))
        << "lane " << l << " row " << rows[l];
  }

  // Divergent write: lane-local write-enable is not expressible through the
  // scalar ports, but a uniform write with divergent addresses must only
  // touch each lane's own row.
  cs.setInput("we", 1);
  cs.setInput("din", 0xA5);
  // Re-point the (now incremented) counters at the same rows.
  for (unsigned bit = 0; bit < 4; ++bit) {
    const auto f = nl.findFlop("ptr[" + std::to_string(bit) + "]");
    Word values = 0;
    for (unsigned l = 0; l < CompiledSimulator::kLanes; ++l) {
      values |= static_cast<Word>((rows[l] >> bit) & 1) << l;
    }
    cs.depositFlopLanes(*f, ~Word{0}, values);
  }
  cs.step();
  cs.setInput("we", 0);
  for (unsigned l = 0; l < CompiledSimulator::kLanes; ++l) {
    EXPECT_EQ(cs.ramWordLane(netlist::RamId{0}, rows[l], l), 0xA5u)
        << "lane " << l;
    // A row no lane with a different address wrote must be untouched in
    // this lane: check one row this lane did not address.
    const unsigned other = (rows[l] + 1) % 16;
    bool someLaneWroteIt = false;
    for (unsigned m = 0; m < CompiledSimulator::kLanes; ++m) {
      if (m == l && rows[m] == other) someLaneWroteIt = true;
    }
    if (!someLaneWroteIt) {
      EXPECT_EQ(cs.ramWordLane(netlist::RamId{0}, other, l),
                static_cast<std::uint64_t>(
                    static_cast<std::uint8_t>(other * 17 + 3)))
          << "lane " << l << " spilled into row " << other;
    }
  }
}

TEST(CompiledLanes, GoldenLaneMatchesEventDrivenSimulator) {
  // Drive both simulators with the same scalar stimulus; the compiled
  // golden lane must agree with the event-driven simulator cycle for cycle.
  const Netlist nlA = ramDesign();
  const Netlist nlB = ramDesign();
  Simulator ev(nlA);
  CompiledSimulator cp(nlB);

  Rng rng(7);
  for (int c = 0; c < 200; ++c) {
    const std::uint64_t din = rng.below(256);
    const std::uint64_t we = rng.below(2);
    ev.setInput("din", din);
    ev.setInput("we", we);
    ev.step();
    cp.setInput("din", din);
    cp.setInput("we", we);
    cp.step();
    ASSERT_EQ(ev.portValue("data"), cp.portValueLane("data", 0))
        << "cycle " << c;
    ASSERT_EQ(ev.portValue("mixed"), cp.portValueLane("mixed", 0));
    ASSERT_EQ(ev.portValue("ptr"), cp.portValueLane("ptr", 0));
    ASSERT_EQ(ev.cycle(), cp.cycle());
  }
  // Final RAM contents agree word for word.
  for (std::size_t row = 0; row < 16; ++row) {
    EXPECT_EQ(ev.ramWord(netlist::RamId{0}, row),
              cp.ramWordLane(netlist::RamId{0}, row, 0))
        << "row " << row;
  }
}

}  // namespace
}  // namespace fades::sim
