#include <gtest/gtest.h>

#include "rtl/builder.hpp"
#include "sim/simulator.hpp"

namespace fades::sim {
namespace {

using netlist::Netlist;
using netlist::NetId;
using rtl::Builder;
using rtl::Bus;
using rtl::Register;

// ------------------------------------------------------------- basics -----

TEST(Sim, CombinationalSettling) {
  Builder b;
  NetId a = b.inputBit("a");
  NetId x = b.lnot(a);
  NetId y = b.lnot(x);
  b.output("x", x);
  b.output("y", y);
  Netlist nl = b.finish();
  Simulator s(nl);
  s.setInput("a", 0);
  s.settle();
  EXPECT_EQ(s.portValue("x"), 1u);
  EXPECT_EQ(s.portValue("y"), 0u);
  s.setInput("a", 1);
  s.settle();
  EXPECT_EQ(s.portValue("x"), 0u);
  EXPECT_EQ(s.portValue("y"), 1u);
}

TEST(Sim, EventsAreCounted) {
  Builder b;
  NetId a = b.inputBit("a");
  b.output("x", b.lnot(a));
  Netlist nl = b.finish();
  Simulator s(nl);
  const auto before = s.eventsProcessed();
  s.setInput("a", 1);
  s.settle();
  EXPECT_GT(s.eventsProcessed(), before);
}

TEST(Sim, GlitchFreeFanoutReconvergence) {
  // y = a AND NOT a must settle to 0 regardless of evaluation order.
  Builder b;
  NetId a = b.inputBit("a");
  b.output("y", b.land(a, b.lnot(a)));
  Netlist nl = b.finish();
  Simulator s(nl);
  for (int v = 0; v < 4; ++v) {
    s.setInput("a", v & 1);
    s.settle();
    EXPECT_EQ(s.portValue("y"), 0u);
  }
}

// ---------------------------------------------------------- sequential -----

TEST(Sim, ShiftRegisterDelaysByOneCyclePerStage) {
  Builder b;
  NetId in = b.inputBit("in");
  Bus q1 = b.registered("s1", Bus{in});
  Bus q2 = b.registered("s2", q1);
  Bus q3 = b.registered("s3", q2);
  b.output("out", q3);
  Netlist nl = b.finish();
  Simulator s(nl);

  s.setInput("in", 1);
  EXPECT_EQ(s.portValue("out"), 0u);
  s.step();
  s.setInput("in", 0);
  s.step();
  s.step();
  EXPECT_EQ(s.portValue("out"), 1u);  // the pulse arrives after 3 edges
  s.step();
  EXPECT_EQ(s.portValue("out"), 0u);
}

TEST(Sim, ResetRestoresInitialState) {
  Builder b;
  Register c = b.makeRegister("c", 8, 5);
  b.connect(c, b.increment(c.q));
  b.output("c", c.q);
  Netlist nl = b.finish();
  Simulator s(nl);
  s.run(10);
  EXPECT_EQ(s.portValue("c"), 15u);
  EXPECT_EQ(s.cycle(), 10u);
  s.reset();
  EXPECT_EQ(s.portValue("c"), 5u);
  EXPECT_EQ(s.cycle(), 0u);
}

TEST(Sim, RamWriteThenRead) {
  Builder b;
  Bus addr = b.input("addr", 4);
  Bus din = b.input("din", 8);
  NetId we = b.inputBit("we");
  Bus dout = b.ram("mem", 4, 8, addr, din, we);
  b.output("dout", dout);
  Netlist nl = b.finish();
  Simulator s(nl);

  s.setInput("addr", 7);
  s.setInput("din", 0xAB);
  s.setInput("we", 1);
  s.step();  // write 0xAB to [7]; read-first returns old value (0)
  EXPECT_EQ(s.portValue("dout"), 0u);
  s.setInput("we", 0);
  s.step();  // now the read of [7] lands
  EXPECT_EQ(s.portValue("dout"), 0xABu);
}

TEST(Sim, RamReadFirstDuringWrite) {
  Builder b;
  Bus addr = b.input("addr", 2);
  Bus din = b.input("din", 8);
  NetId we = b.inputBit("we");
  b.output("dout", b.ram("mem", 2, 8, addr, din, we));
  Netlist nl = b.finish();
  Simulator s(nl);

  s.setInput("addr", 1);
  s.setInput("din", 0x11);
  s.setInput("we", 1);
  s.step();
  s.setInput("din", 0x22);
  s.step();  // writes 0x22 while reading: must observe OLD content 0x11
  EXPECT_EQ(s.portValue("dout"), 0x11u);
  s.setInput("we", 0);
  s.step();
  EXPECT_EQ(s.portValue("dout"), 0x22u);
}

// ---------------------------------------- simulator commands (VFIT ops) -----

TEST(Sim, ForceOverridesDriverUntilRelease) {
  Builder b;
  NetId a = b.inputBit("a");
  NetId x = b.lnot(a);
  b.output("x", x);
  b.output("y", b.lnot(x));
  Netlist nl = b.finish();
  Simulator s(nl);
  s.setInput("a", 0);
  s.settle();
  EXPECT_EQ(s.portValue("x"), 1u);

  s.force(x, false);
  EXPECT_EQ(s.portValue("x"), 0u);
  EXPECT_EQ(s.portValue("y"), 1u);  // downstream sees the forced value
  EXPECT_TRUE(s.isForced(x));

  // Driver changes do not leak through a forced net.
  s.setInput("a", 1);
  s.settle();
  EXPECT_EQ(s.portValue("x"), 0u);

  s.release(x);
  EXPECT_FALSE(s.isForced(x));
  EXPECT_EQ(s.portValue("x"), 0u);  // NOT a == !1 == 0: happens to match force
  s.setInput("a", 0);
  s.settle();
  EXPECT_EQ(s.portValue("x"), 1u);  // driver is back in control
}

TEST(Sim, ForcedFlopOutputRecoversStoredState) {
  Builder b;
  Register r = b.makeRegister("r", 1, 1);
  b.connect(r, r.q);  // hold 1 forever
  b.output("r", r.q);
  Netlist nl = b.finish();
  Simulator s(nl);
  EXPECT_EQ(s.portValue("r"), 1u);
  s.force(r.q[0], false);
  EXPECT_EQ(s.portValue("r"), 0u);
  s.step();  // forced value is what the feedback loop now captures
  s.release(r.q[0]);
  // The fault became permanent through the feedback path: stored state is 0.
  EXPECT_EQ(s.portValue("r"), 0u);
}

TEST(Sim, DepositFlopFlipsStateImmediately) {
  Builder b;
  Register c = b.makeRegister("c", 4, 0);
  b.connect(c, b.increment(c.q));
  b.output("c", c.q);
  Netlist nl = b.finish();
  Simulator s(nl);
  s.run(3);
  EXPECT_EQ(s.portValue("c"), 3u);
  // Flip bit 2 (value 4): 3 -> 7.
  const auto f = nl.findFlop("c[2]");
  ASSERT_TRUE(f.has_value());
  s.depositFlop(*f, true);
  EXPECT_EQ(s.portValue("c"), 7u);
  s.step();
  EXPECT_EQ(s.portValue("c"), 8u);  // counting continues from faulty state
}

TEST(Sim, DepositRamChangesStoredWord) {
  Builder b;
  Bus addr = b.input("addr", 3);
  Bus din = b.input("din", 8);
  NetId we = b.inputBit("we");
  b.output("dout", b.ram("mem", 3, 8, addr, din, we));
  Netlist nl = b.finish();
  Simulator s(nl);
  const netlist::RamId ram{0};
  s.depositRam(ram, 5, 0x5A);
  EXPECT_EQ(s.ramWord(ram, 5), 0x5Au);
  s.setInput("addr", 5);
  s.step();
  EXPECT_EQ(s.portValue("dout"), 0x5Au);
}

// --------------------------------------------------------- determinism -----

TEST(Sim, DeterministicAcrossInstances) {
  auto build = [] {
    Builder b;
    Register lfsr = b.makeRegister("lfsr", 8, 1);
    NetId fb = b.lxor(lfsr.q[7], b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
    Bus next = rtl::Bus{fb};
    for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
    b.connect(lfsr, next);
    b.output("lfsr", lfsr.q);
    return b.finish();
  };
  Netlist n1 = build();
  Netlist n2 = build();
  Simulator s1(n1), s2(n2);
  for (int i = 0; i < 300; ++i) {
    s1.step();
    s2.step();
    ASSERT_EQ(s1.portValue("lfsr"), s2.portValue("lfsr")) << "cycle " << i;
  }
}

}  // namespace
}  // namespace fades::sim
