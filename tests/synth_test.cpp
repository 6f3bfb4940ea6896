#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "rtl/builder.hpp"
#include "sim/simulator.hpp"
#include "synth/fabric.hpp"
#include "synth/implement.hpp"
#include "synth/techmap.hpp"

namespace fades::synth {
namespace {

using common::Rng;
using fpga::Device;
using fpga::DeviceSpec;
using netlist::Netlist;
using netlist::Unit;
using rtl::Builder;
using rtl::Bus;
using rtl::Register;
using sim::Simulator;

// -------------------------------------------------------------- techmap -----

TEST(Techmap, ConstantAndBufferFolding) {
  Builder b;
  auto a = b.inputBit("a");
  // y = (a AND 1) OR 0 -> just a, through a buffer chain.
  auto y = b.lor(b.land(a, b.one()), b.zero());
  b.output("y", y);
  Netlist nl = b.finish();
  const auto mapped = techmap(nl);
  // One LUT suffices (or zero if folding reduced to the input itself; the
  // visible net is gate-driven here, so exactly one).
  EXPECT_LE(mapped.luts.size(), 1u);
  if (!mapped.luts.empty()) {
    EXPECT_EQ(mapped.luts[0].leafCount, 1u);
    EXPECT_EQ(mapped.luts[0].table & 0x3, 0x2u);  // identity in i0
  }
}

TEST(Techmap, ConeMergingRespectsLutCapacity) {
  Builder b;
  Bus in = b.input("in", 8);
  // 8-input AND tree: needs at least ceil over 4-LUTs = 3 LUTs, and the
  // greedy cover should not need more than 4.
  auto y = b.andAll(in);
  b.output("y", y);
  Netlist nl = b.finish();
  const auto mapped = techmap(nl);
  EXPECT_GE(mapped.luts.size(), 3u);
  EXPECT_LE(mapped.luts.size(), 4u);
  for (const auto& l : mapped.luts) EXPECT_LE(l.leafCount, 4u);
}

TEST(Techmap, SharedSubexpressionBecomesItsOwnLut) {
  Builder b;
  auto a = b.inputBit("a");
  auto c = b.inputBit("c");
  auto shared = b.lxor(a, c);  // consumed twice -> must be a physical LUT
  b.output("y1", b.land(shared, a));
  b.output("y2", b.lor(shared, c));
  Netlist nl = b.finish();
  const auto mapped = techmap(nl);
  EXPECT_EQ(mapped.luts.size(), 3u);
}

TEST(Techmap, MappedTablesMatchGateSemantics) {
  // Random 2-level logic: exhaustively verify every LUT's table against
  // direct netlist evaluation through the simulator.
  Builder b;
  Bus in = b.input("in", 4);
  auto t1 = b.lxor(b.land(in[0], in[1]), in[2]);
  auto t2 = b.lor(b.lnot(in[3]), t1);
  auto t3 = b.lmux(in[0], t2, t1);
  b.output("y", t3);
  Netlist nl = b.finish();
  Simulator s(nl);
  const auto mapped = techmap(nl);

  for (unsigned v = 0; v < 16; ++v) {
    s.setInput("in", v);
    s.settle();
    for (const auto& lut : mapped.luts) {
      std::vector<bool> leaves;
      for (unsigned k = 0; k < lut.leafCount; ++k) {
        leaves.push_back(s.netValue(lut.leaves[k]));
      }
      EXPECT_EQ(evalMappedLut(lut, leaves), s.netValue(lut.out))
          << "net " << nl.netName(lut.out) << " input " << v;
    }
  }
}

// ------------------------------------------------ emulate == simulate -----

/// Drives the simulator and the configured device in lock-step and compares
/// all outputs every cycle.
struct Equivalence {
  Netlist nl;
  std::unique_ptr<Simulator> simulator;
  std::unique_ptr<Device> device;
  std::unique_ptr<Implementation> impl;
  std::unique_ptr<EmulatedSystem> system;

  void build(Netlist&& netlist, const DeviceSpec& spec) {
    nl = std::move(netlist);
    simulator = std::make_unique<Simulator>(nl);
    impl = std::make_unique<Implementation>(implement(nl, spec));
    device = std::make_unique<Device>(spec);
    device->writeFullBitstream(impl->bitstream);
    system = std::make_unique<EmulatedSystem>(*device, *impl);
  }

  void setInputs(const std::string& port, std::uint64_t v) {
    simulator->setInput(port, v);
    system->setInput(port, v);
  }

  ::testing::AssertionResult outputsMatch() {
    simulator->settle();
    system->settle();
    for (const auto& p : nl.outputs()) {
      const auto sv = simulator->portValue(p.name);
      const auto dv = system->portValue(p.name);
      if (sv != dv) {
        return ::testing::AssertionFailure()
               << "port " << p.name << ": sim=" << sv << " fpga=" << dv
               << " at cycle " << simulator->cycle();
      }
    }
    return ::testing::AssertionSuccess();
  }

  void step() {
    simulator->step();
    system->step();
  }
};

TEST(Implement, CounterMatchesSimulator) {
  Builder b;
  b.setUnit(Unit::Registers);
  Register count = b.makeRegister("count", 8, 0);
  b.setUnit(Unit::Alu);
  b.connect(count, b.increment(count.q));
  b.output("count", count.q);

  Equivalence eq;
  eq.build(b.finish(), DeviceSpec::small());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(eq.outputsMatch());
    eq.step();
  }
  EXPECT_EQ(eq.system->portValue("count"), 50u);
}

TEST(Implement, CombinationalAluSliceMatches) {
  Builder b;
  Bus a = b.input("a", 4);
  Bus c = b.input("c", 4);
  auto sum = b.add(a, c, {});
  b.output("sum", sum.sum);
  b.output("cout", sum.carryOut);
  b.output("eq", b.eq(a, c));

  Equivalence eq;
  eq.build(b.finish(), DeviceSpec::small());
  for (unsigned x = 0; x < 16; ++x) {
    for (unsigned y = 0; y < 16; ++y) {
      eq.setInputs("a", x);
      eq.setInputs("c", y);
      ASSERT_TRUE(eq.outputsMatch()) << x << "+" << y;
    }
  }
}

TEST(Implement, RamCircuitMatches) {
  Builder b;
  Bus addr = b.input("addr", 4);
  Bus din = b.input("din", 8);
  auto we = b.inputBit("we");
  Bus dout = b.ram("mem", 4, 8, addr, din, we);
  b.output("dout", dout);

  Equivalence eq;
  eq.build(b.finish(), DeviceSpec::small());
  Rng rng(3);
  for (int i = 0; i < 120; ++i) {
    eq.setInputs("addr", rng.below(16));
    eq.setInputs("din", rng.below(256));
    eq.setInputs("we", rng.below(2));
    ASSERT_TRUE(eq.outputsMatch()) << "iteration " << i;
    eq.step();
  }
}

TEST(Implement, RomWithInitMatches) {
  Builder b;
  Bus addr = b.input("addr", 4);
  std::vector<std::uint8_t> init(16);
  for (int i = 0; i < 16; ++i) init[i] = static_cast<std::uint8_t>(i * 13 + 7);
  b.output("data", b.rom("rom", 4, 8, addr, init));
  Equivalence eq;
  eq.build(b.finish(), DeviceSpec::small());
  for (unsigned a = 0; a < 16; ++a) {
    eq.setInputs("addr", a);
    eq.step();
    ASSERT_TRUE(eq.outputsMatch()) << "addr " << a;
    EXPECT_EQ(eq.system->portValue("data"), (a * 13 + 7) & 0xFF);
  }
}

/// Random sequential circuits: registers with random next-state logic.
Netlist randomCircuit(std::uint64_t seed, unsigned gateBudget) {
  Rng rng(seed);
  Builder b;
  Bus in = b.input("in", 6);
  std::vector<Register> regs;
  const unsigned nRegs = 3 + static_cast<unsigned>(rng.below(4));
  for (unsigned r = 0; r < nRegs; ++r) {
    regs.push_back(b.makeRegister("r" + std::to_string(r), 4, rng.below(16)));
  }
  // Pool of usable nets.
  std::vector<rtl::NetId> pool = in;
  for (const auto& r : regs) {
    pool.insert(pool.end(), r.q.begin(), r.q.end());
  }
  for (unsigned g = 0; g < gateBudget; ++g) {
    const auto pick = [&] { return pool[rng.below(pool.size())]; };
    rtl::NetId out;
    switch (rng.below(5)) {
      case 0: out = b.land(pick(), pick()); break;
      case 1: out = b.lor(pick(), pick()); break;
      case 2: out = b.lxor(pick(), pick()); break;
      case 3: out = b.lnot(pick()); break;
      default: out = b.lmux(pick(), pick(), pick()); break;
    }
    pool.push_back(out);
  }
  for (auto& r : regs) {
    Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pool[rng.below(pool.size())]);
    b.connect(r, d);
  }
  Bus outBus;
  for (int k = 0; k < 8; ++k) outBus.push_back(pool[rng.below(pool.size())]);
  b.output("out", outBus);
  return b.finish();
}

class RandomCircuitEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuitEquivalence, DeviceMatchesSimulatorForManyCycles) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Equivalence eq;
  eq.build(randomCircuit(seed, 40), DeviceSpec::small());
  Rng rng(seed ^ 0xABCDEF);
  for (int cycle = 0; cycle < 120; ++cycle) {
    eq.setInputs("in", rng.below(64));
    ASSERT_TRUE(eq.outputsMatch()) << "seed " << seed << " cycle " << cycle;
    eq.step();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitEquivalence,
                         ::testing::Range(1, 13));

// --------------------------------------------------------- location map -----

TEST(Implement, LocationMapCoversAllRegisters) {
  Builder b;
  b.setUnit(Unit::Registers);
  Register acc = b.makeRegister("acc", 8, 0);
  b.setUnit(Unit::Fsm);
  Register state = b.makeRegister("state", 3, 1);
  b.setUnit(Unit::Alu);
  b.connect(acc, b.increment(acc.q));
  b.connect(state, b.increment(state.q));
  b.output("acc", acc.q);
  b.output("state", state.q);
  Netlist nl = b.finish();
  const auto impl = implement(nl, DeviceSpec::small());

  // Every HDL register bit has a located CB.
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(impl.findFlop("acc[" + std::to_string(i) + "]"), nullptr);
  }
  EXPECT_EQ(impl.findFlop("acc[3]")->unit, Unit::Registers);
  EXPECT_EQ(impl.findFlop("state[0]")->unit, Unit::Fsm);
  EXPECT_EQ(impl.flopsInUnit(Unit::Registers).size(), 8u);
  EXPECT_EQ(impl.flopsInUnit(Unit::Fsm).size(), 3u);
  // Units separate combinational logic too.
  EXPECT_FALSE(impl.lutsInUnit(Unit::Alu).empty());
  // All flop sites land on distinct CBs.
  std::set<std::pair<int, int>> sites;
  for (const auto& f : impl.flops) {
    EXPECT_TRUE(sites.insert({f.cb.x, f.cb.y}).second);
  }
}

TEST(Implement, RoutesCarrySequentialFlag) {
  Builder b;
  b.setUnit(Unit::Registers);
  Register r = b.makeRegister("r", 2, 0);
  b.setUnit(Unit::Alu);
  b.connect(r, b.bXor(r.q, b.constant(3, 2)));
  b.output("r", r.q);
  Netlist nl = b.finish();
  const auto impl = implement(nl, DeviceSpec::small());
  const auto seq = impl.routesInUnit(Unit::None, true);
  EXPECT_FALSE(seq.empty());
  for (auto i : seq) {
    EXPECT_TRUE(impl.routes[i].sequentialSource);
    EXPECT_FALSE(impl.routes[i].wireNodes.empty());
    EXPECT_FALSE(impl.routes[i].transistorBits.empty());
  }
}

TEST(Implement, RamLocationMapAddressesBits) {
  Builder b;
  Bus addr = b.input("addr", 4);
  Bus din = b.input("din", 8);
  b.setUnit(Unit::Ram);
  Bus dout = b.ram("mem", 4, 8, addr, din, b.inputBit("we"));
  b.output("dout", dout);
  Netlist nl = b.finish();
  const auto impl = implement(nl, DeviceSpec::small());
  const auto* ram = impl.findRam("mem");
  ASSERT_NE(ram, nullptr);
  EXPECT_EQ(ram->dataBits, 8u);
  const auto [block, bit] = ram->bitAddress(5, 3);
  EXPECT_LT(block, DeviceSpec::small().memBlocks);
  EXPECT_EQ(bit, 5u * 8u + 3u);
}

TEST(Implement, StatsAreConsistent) {
  Equivalence eq;
  eq.build(randomCircuit(99, 60), DeviceSpec::small());
  const auto& s = eq.impl->stats;
  EXPECT_EQ(s.luts, eq.impl->luts.size());
  EXPECT_EQ(s.flops, eq.impl->flops.size());
  EXPECT_EQ(s.routedNets, eq.impl->routes.size());
  EXPECT_GT(s.configBits, 0u);
  EXPECT_EQ(s.configBits, eq.impl->bitstream.logic.popcount());
}

TEST(Implement, TooManyMemoriesRejected) {
  Builder b;
  Bus addr = b.input("addr", 4);
  // The small device has 2 memory blocks; ask for 3.
  for (int i = 0; i < 3; ++i) {
    b.output("d" + std::to_string(i),
             b.rom("rom" + std::to_string(i), 4, 8, addr,
                   std::vector<std::uint8_t>(16, 7)));
  }
  Netlist nl = b.finish();
  try {
    implement(nl, DeviceSpec::small());
    FAIL() << "expected capacity error";
  } catch (const common::FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::CapacityError);
  }
}

TEST(Implement, TooDeepMemoryRejected) {
  Builder b;
  Bus addr = b.input("addr", 10);
  // 1024 x 8 = 8192 bits > the small device's 2048-bit blocks at width 8.
  b.output("d", b.rom("deep", 10, 8, addr,
                      std::vector<std::uint8_t>(1024, 1)));
  Netlist nl = b.finish();
  EXPECT_THROW(implement(nl, DeviceSpec::small()), common::FadesError);
}

TEST(Implement, WideMemorySplitsAcrossBlocks) {
  Builder b;
  Bus addr = b.input("addr", 3);
  std::vector<std::uint8_t> init(8 * 3, 0);  // 20-bit rows -> 3 bytes each
  init[0] = 0xAB;
  init[1] = 0xCD;
  init[2] = 0x01;  // row 0 = 0x1CDAB
  b.output("d", b.rom("wide", 3, 20, addr, init));
  Netlist nl = b.finish();
  const auto impl = implement(nl, DeviceSpec::small());
  const auto* site = impl.findRam("wide");
  ASSERT_NE(site, nullptr);
  ASSERT_EQ(site->slices.size(), 2u);  // 16 + 4
  EXPECT_EQ(site->slices[0].width + site->slices[1].width, 20u);

  // And it still reads correctly end to end.
  fpga::Device dev(DeviceSpec::small());
  dev.writeFullBitstream(impl.bitstream);
  EmulatedSystem sys(dev, impl);
  sys.setInput("addr", 0);
  sys.step();
  EXPECT_EQ(sys.portValue("d"), 0x1CDABu);
}

TEST(Implement, SeedChangesPlacementNotBehaviour) {
  Builder b1, b2;
  for (Builder* b : {&b1, &b2}) {
    Bus a = b->input("a", 4);
    Bus c = b->input("c", 4);
    b->output("y", b->add(a, c, {}).sum);
  }
  Netlist n1 = b1.finish(), n2 = b2.finish();
  SynthOptions o1, o2;
  o1.seed = 1;
  o2.seed = 999;
  const auto i1 = implement(n1, DeviceSpec::small(), o1);
  const auto i2 = implement(n2, DeviceSpec::small(), o2);
  // Different bitstreams (placement differs) ...
  EXPECT_NE(i1.bitstream.logic, i2.bitstream.logic);
  // ... same function.
  fpga::Device d1(DeviceSpec::small()), d2(DeviceSpec::small());
  d1.writeFullBitstream(i1.bitstream);
  d2.writeFullBitstream(i2.bitstream);
  EmulatedSystem s1(d1, i1), s2(d2, i2);
  for (unsigned a = 0; a < 16; a += 3) {
    for (unsigned c = 0; c < 16; c += 2) {
      s1.setInput("a", a);
      s1.setInput("c", c);
      s2.setInput("a", a);
      s2.setInput("c", c);
      s1.settle();
      s2.settle();
      ASSERT_EQ(s1.portValue("y"), s2.portValue("y"));
    }
  }
}

TEST(Implement, TooManyCellsRejected) {
  Builder b;
  // 200 registers cannot fit in a 12x12 device (144 CBs).
  for (int i = 0; i < 200; ++i) {
    Register r = b.makeRegister("r" + std::to_string(i), 1, 0);
    b.connect(r, Bus{b.lnot(r.q[0])});
  }
  Netlist nl = b.finish();
  EXPECT_THROW(implement(nl, DeviceSpec::small()), common::FadesError);
}

// --------------------------------------------------------------- fabric -----
// The router relies on these properties of the computed adjacency
// (fabric.hpp); each test walks every node of two device sizes.

const DeviceSpec kFabricSpecs[] = {DeviceSpec::small(), DeviceSpec::medium()};

TEST(Fabric, AdjacencyIsSymmetricWithOneBitPerEdge) {
  for (const DeviceSpec& spec : kFabricSpecs) {
    SCOPED_TRACE(spec.name);
    const fpga::ConfigLayout layout(spec);
    const fpga::RoutingNodes nodes(spec);
    std::size_t edges = 0, asymmetric = 0;
    for (std::uint32_t a = 0; a < nodes.count(); ++a) {
      forEachNeighbor(layout, nodes, a, [&](std::uint32_t b, std::size_t bit) {
        ++edges;
        if (transistorBit(layout, nodes, b, a) != bit) ++asymmetric;
      });
    }
    EXPECT_GT(edges, nodes.count());
    EXPECT_EQ(asymmetric, 0u);
  }
}

TEST(Fabric, PinNeighboursAreTwoRunsOfTrackSegments) {
  for (const DeviceSpec& spec : kFabricSpecs) {
    SCOPED_TRACE(spec.name);
    const fpga::ConfigLayout layout(spec);
    const fpga::RoutingNodes nodes(spec);
    std::size_t pins = 0, bad = 0;
    for (std::uint32_t pin = 0; pin < nodes.count(); ++pin) {
      if (nodes.isSegment(pin)) continue;
      ++pins;
      std::vector<std::uint32_t> nbs;
      forEachNeighbor(layout, nodes, pin, [&](std::uint32_t nb, std::size_t) {
        nbs.push_back(nb);
      });
      std::sort(nbs.begin(), nbs.end());
      bool ok = nbs.size() == 2 * spec.tracks && nodes.isSegment(nbs.back());
      for (unsigned t = 0; ok && t < spec.tracks; ++t) {
        ok = nbs[t] == nbs.front() + t &&
             nbs[spec.tracks + t] == nbs[spec.tracks] + t;
      }
      if (!ok) ++bad;
    }
    EXPECT_GT(pins, 0u);
    EXPECT_EQ(bad, 0u);
  }
}

TEST(Fabric, IsSegmentAgreesWithNodeKind) {
  for (const DeviceSpec& spec : kFabricSpecs) {
    SCOPED_TRACE(spec.name);
    const fpga::RoutingNodes nodes(spec);
    std::size_t segments = 0, disagree = 0;
    for (std::uint32_t n = 0; n < nodes.count(); ++n) {
      const auto kind = nodes.info(n).kind;
      const bool segment = kind == NodeKind::HSeg || kind == NodeKind::VSeg;
      segments += segment;
      if (nodes.isSegment(n) != segment) ++disagree;
    }
    EXPECT_GT(segments, 0u);
    EXPECT_LT(segments, nodes.count());
    EXPECT_EQ(disagree, 0u);
  }
}

TEST(Fabric, SegmentNeighboursAreForEachNeighboursSegmentsInOrder) {
  for (const DeviceSpec& spec : kFabricSpecs) {
    SCOPED_TRACE(spec.name);
    const fpga::ConfigLayout layout(spec);
    const fpga::RoutingNodes nodes(spec);
    std::size_t differ = 0;
    for (std::uint32_t n = 0; n < nodes.count(); ++n) {
      const NodeInfo info = nodes.info(n);
      std::vector<std::pair<std::uint32_t, std::size_t>> all, split;
      forEachNeighbor(layout, nodes, n, [&](std::uint32_t nb, std::size_t bit) {
        if (nodes.isSegment(nb)) all.emplace_back(nb, bit);
      });
      forEachSegmentNeighbor(
          spec, nodes, info,
          [&](std::uint32_t nb, unsigned px, unsigned py, PmSwitch sw) {
            const PmCoord pm{static_cast<std::uint16_t>(px),
                             static_cast<std::uint16_t>(py)};
            split.emplace_back(nb, layout.pmSwitchBit(pm, info.track, sw));
          });
      // A pin has no segment neighbour through a PM.
      if (nodes.isSegment(n) ? all != split : !split.empty()) ++differ;
    }
    EXPECT_EQ(differ, 0u);
  }
}

}  // namespace
}  // namespace fades::synth
