#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "rtl/builder.hpp"

namespace fades::netlist {
namespace {

using common::ErrorKind;
using common::FadesError;

// ------------------------------------------------------------ gate ops -----

struct GateTruthCase {
  GateOp op;
  // expected output for inputs (a,b,c) enumerated as bits of an index
  std::array<bool, 8> expected;
};

class GateEvalTest : public ::testing::TestWithParam<GateTruthCase> {};

TEST_P(GateEvalTest, MatchesTruthTable) {
  const auto& p = GetParam();
  for (int i = 0; i < 8; ++i) {
    const bool a = i & 1, b = i & 2, c = i & 4;
    EXPECT_EQ(evalGate(p.op, a, b, c), p.expected[i])
        << toString(p.op) << " a=" << a << " b=" << b << " c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GateEvalTest,
    ::testing::Values(
        GateTruthCase{GateOp::Const0, {0, 0, 0, 0, 0, 0, 0, 0}},
        GateTruthCase{GateOp::Const1, {1, 1, 1, 1, 1, 1, 1, 1}},
        GateTruthCase{GateOp::Buf, {0, 1, 0, 1, 0, 1, 0, 1}},
        GateTruthCase{GateOp::Not, {1, 0, 1, 0, 1, 0, 1, 0}},
        GateTruthCase{GateOp::And, {0, 0, 0, 1, 0, 0, 0, 1}},
        GateTruthCase{GateOp::Or, {0, 1, 1, 1, 0, 1, 1, 1}},
        GateTruthCase{GateOp::Xor, {0, 1, 1, 0, 0, 1, 1, 0}},
        GateTruthCase{GateOp::Nand, {1, 1, 1, 0, 1, 1, 1, 0}},
        GateTruthCase{GateOp::Nor, {1, 0, 0, 0, 1, 0, 0, 0}},
        GateTruthCase{GateOp::Xnor, {1, 0, 0, 1, 1, 0, 0, 1}},
        // Mux: c ? b : a
        GateTruthCase{GateOp::Mux, {0, 1, 0, 1, 0, 0, 1, 1}}),
    [](const auto& info) { return toString(info.param.op); });

TEST(GateOps, Arity) {
  EXPECT_EQ(arity(GateOp::Const0), 0u);
  EXPECT_EQ(arity(GateOp::Const1), 0u);
  EXPECT_EQ(arity(GateOp::Buf), 1u);
  EXPECT_EQ(arity(GateOp::Not), 1u);
  EXPECT_EQ(arity(GateOp::And), 2u);
  EXPECT_EQ(arity(GateOp::Mux), 3u);
}

// ---------------------------------------------------------- construction ----

TEST(Netlist, BuildAndQuerySmallCircuit) {
  Netlist nl;
  const NetId a = nl.addNet("a");
  const NetId b = nl.addNet("b");
  nl.addInputPort("a", {a});
  nl.addInputPort("b", {b});
  const GateId g = nl.addGate(GateOp::And, a, b);
  const NetId y = nl.gate(g).out;
  nl.setNetName(y, "y");
  nl.addOutputPort("y", {y});

  nl.validate();
  EXPECT_EQ(nl.netCount(), 3u);
  EXPECT_EQ(nl.gateCount(), 1u);
  EXPECT_EQ(nl.findNet("y"), y);
  EXPECT_NE(nl.findInput("a"), nullptr);
  EXPECT_NE(nl.findOutput("y"), nullptr);
  EXPECT_EQ(nl.findInput("z"), nullptr);
  EXPECT_EQ(nl.driverOf(y).kind, Netlist::DriverKind::Gate);
  EXPECT_EQ(nl.driverOf(a).kind, Netlist::DriverKind::Input);
}

TEST(Netlist, DoubleDriverRejected) {
  Netlist nl;
  const NetId a = nl.addNet("a");
  nl.addInputPort("a", {a});
  const NetId y = nl.addNet("y");
  nl.addGate(GateOp::Buf, a, {}, {}, Unit::None, y);
  EXPECT_THROW(nl.addGate(GateOp::Not, a, {}, {}, Unit::None, y), FadesError);
}

TEST(Netlist, UndrivenNetRejectedByValidate) {
  Netlist nl;
  const NetId a = nl.addNet("a");
  nl.addInputPort("a", {a});
  nl.addNet("floating");
  try {
    nl.validate();
    FAIL() << "expected throw";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::NetlistError);
    EXPECT_NE(std::string(e.what()).find("floating"), std::string::npos);
  }
}

TEST(Netlist, CombinationalCycleDetected) {
  // A two-gate loop read by a gate outside it, and a self-loop: the error
  // names the nets on the cycle and no others.
  Netlist loop;
  const NetId x = loop.addNet("x");
  loop.addInputPort("x", {x});
  const NetId a = loop.addNet("loop_a");
  const NetId b = loop.addNet("loop_b");
  const NetId tail = loop.addNet("tail");
  loop.addGate(GateOp::Buf, b, {}, {}, Unit::None, tail);
  loop.addGate(GateOp::Not, b, {}, {}, Unit::None, a);
  loop.addGate(GateOp::And, a, x, {}, Unit::None, b);
  loop.addOutputPort("o", {tail});

  Netlist self;
  const NetId y = self.addNet("y");
  self.addInputPort("y", {y});
  const NetId s = self.addNet("self");
  self.addGate(GateOp::Or, s, y, {}, Unit::None, s);
  self.addOutputPort("o", {s});

  const std::vector<std::pair<const Netlist*, std::vector<std::string>>>
      cases = {{&loop, {"loop_a", "loop_b"}}, {&self, {"self"}}};
  for (const auto& [nl, nets] : cases) {
    try {
      nl->validate();
      FAIL() << "expected throw";
    } catch (const FadesError& e) {
      EXPECT_EQ(e.kind(), ErrorKind::NetlistError);
      const std::string msg = e.what();
      for (const auto& net : nets) {
        EXPECT_NE(msg.find(net), std::string::npos) << msg;
      }
      EXPECT_EQ(msg.find("tail"), std::string::npos) << msg;
    }
  }
}

TEST(Netlist, FlopBreaksCycle) {
  Netlist nl;
  const NetId d = nl.addNet("d");
  const FlopId f = nl.addFlop(d, false, Unit::Registers, "state");
  const NetId q = nl.flop(f).q;
  nl.addGate(GateOp::Not, q, {}, {}, Unit::None, d);  // toggle flop
  nl.addOutputPort("q", {q});
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, MissingGateInputRejected) {
  Netlist nl;
  EXPECT_THROW(nl.addGate(GateOp::And, NetId{}, NetId{}), FadesError);
}

// Random register+logic design, same flavour as the property suite's.
Netlist randomDesign(std::uint64_t seed, unsigned gates) {
  common::Rng rng(seed);
  rtl::Builder b;
  rtl::Bus in = b.input("in", 8);
  std::vector<rtl::NetId> pool = in;
  std::vector<rtl::Register> regs;
  for (unsigned r = 0; r < 4; ++r) {
    regs.push_back(b.makeRegister("q" + std::to_string(r), 4, 0));
    pool.insert(pool.end(), regs.back().q.begin(), regs.back().q.end());
  }
  for (unsigned g = 0; g < gates; ++g) {
    const auto pick = [&] { return pool[rng.below(pool.size())]; };
    pool.push_back(rng.coin() ? b.lxor(pick(), pick())
                              : b.lmux(pick(), pick(), pick()));
  }
  for (auto& r : regs) {
    rtl::Bus d;
    for (int k = 0; k < 4; ++k) d.push_back(pool[rng.below(pool.size())]);
    b.connect(r, d);
  }
  rtl::Bus out;
  for (int k = 0; k < 8; ++k) out.push_back(pool[rng.below(pool.size())]);
  b.output("out", out);
  return b.finish();
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  // A three-gate chain, then 20 random designs: every gate appears exactly
  // once, after each gate driving one of its inputs.
  std::vector<Netlist> designs(1);
  Netlist& chain = designs.front();
  const NetId a = chain.addNet("a");
  chain.addInputPort("a", {a});
  const GateId g1 = chain.addGate(GateOp::Not, a);
  const GateId g2 = chain.addGate(GateOp::Not, chain.gate(g1).out);
  chain.addGate(GateOp::And, chain.gate(g1).out, chain.gate(g2).out);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    designs.push_back(randomDesign(seed, 60));
  }

  for (std::size_t d = 0; d < designs.size(); ++d) {
    const Netlist& nl = designs[d];
    const auto order = nl.topoOrder();
    ASSERT_EQ(order.size(), nl.gateCount()) << "design " << d;
    std::vector<std::size_t> pos(nl.gateCount(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(pos[order[i].value], order.size())
          << "gate " << order[i].value << " twice in design " << d;
      pos[order[i].value] = i;
    }
    for (std::uint32_t g = 0; g < nl.gateCount(); ++g) {
      const Gate& gate = nl.gates()[g];
      for (unsigned k = 0; k < arity(gate.op); ++k) {
        const auto drv = nl.driverOf(gate.in[k]);
        if (drv.kind != Netlist::DriverKind::Gate) continue;
        EXPECT_LT(pos[drv.index], pos[g])
            << "gate " << g << " before its driver in design " << d;
      }
    }
  }
}

// ----------------------------------------------------------------- RAM -----

TEST(Netlist, RamConstruction) {
  Netlist nl;
  std::vector<NetId> addr, din;
  for (int i = 0; i < 4; ++i) addr.push_back(nl.addNet());
  for (int i = 0; i < 8; ++i) din.push_back(nl.addNet());
  const NetId we = nl.addNet("we");
  nl.addInputPort("addr", addr);
  nl.addInputPort("din", din);
  nl.addInputPort("we", {we});

  const RamId id = nl.addRam(4, 8, addr, din, we, {}, Unit::Ram, "mem");
  const auto& ram = nl.ram(id);
  EXPECT_EQ(ram.depth(), 16u);
  EXPECT_EQ(ram.dataOut.size(), 8u);
  EXPECT_FALSE(ram.isRom());
  nl.addOutputPort("dout", ram.dataOut);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, RomHasNoWritePort) {
  Netlist nl;
  std::vector<NetId> addr;
  for (int i = 0; i < 3; ++i) addr.push_back(nl.addNet());
  nl.addInputPort("addr", addr);
  std::vector<std::uint8_t> init(8, 0);
  init[5] = 0xAB;
  const RamId id = nl.addRam(3, 8, addr, {}, NetId{}, init, Unit::Ram, "rom");
  EXPECT_TRUE(nl.ram(id).isRom());
  EXPECT_EQ(nl.ram(id).initWord(5), 0xABu);
  nl.addOutputPort("dout", nl.ram(id).dataOut);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, RamInitWordRoundTrip) {
  Netlist nl;
  std::vector<NetId> addr;
  for (int i = 0; i < 2; ++i) addr.push_back(nl.addNet());
  nl.addInputPort("addr", addr);
  const RamId id = nl.addRam(2, 13, addr, {}, NetId{}, {}, Unit::Ram, "r");
  nl.ram(id).setInitWord(3, 0x1FFF);
  EXPECT_EQ(nl.ram(id).initWord(3), 0x1FFFu);
  nl.ram(id).setInitWord(3, 0x0155);
  EXPECT_EQ(nl.ram(id).initWord(3), 0x0155u);
}

TEST(Netlist, RamWidthMismatchRejected) {
  Netlist nl;
  std::vector<NetId> addr{nl.addNet()};
  nl.addInputPort("a", addr);
  EXPECT_THROW(nl.addRam(2, 8, addr, {}, NetId{}, {}, Unit::Ram, "bad"),
               FadesError);
}

// --------------------------------------------------------------- stats -----

TEST(Netlist, StatsCountPerUnit) {
  Netlist nl;
  const NetId a = nl.addNet("a");
  nl.addInputPort("a", {a});
  nl.addGate(GateOp::Not, a, {}, {}, Unit::Alu);
  nl.addGate(GateOp::Buf, a, {}, {}, Unit::Alu);
  nl.addGate(GateOp::Buf, a, {}, {}, Unit::Fsm);
  nl.addFlop(a, false, Unit::Registers, "r0");
  const auto s = nl.stats();
  EXPECT_EQ(s.gates, 3u);
  EXPECT_EQ(s.flops, 1u);
  EXPECT_EQ(s.gatesPerUnit.at(Unit::Alu), 2u);
  EXPECT_EQ(s.gatesPerUnit.at(Unit::Fsm), 1u);
  EXPECT_EQ(s.flopsPerUnit.at(Unit::Registers), 1u);
  EXPECT_EQ(s.inputBits, 1u);
}

TEST(Netlist, UnitNames) {
  EXPECT_STREQ(toString(Unit::Alu), "alu");
  EXPECT_STREQ(toString(Unit::MemCtrl), "memctrl");
  EXPECT_STREQ(toString(Unit::Fsm), "fsm");
}

}  // namespace
}  // namespace fades::netlist
