// Tests for the framework extensions: saboteur instrumentation (CTR
// baseline), multiple bit-flips and per-cycle settle accounting.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "core/fades.hpp"
#include "core/permanent.hpp"
#include "obs/metrics.hpp"
#include "rtl/builder.hpp"
#include "sim/simulator.hpp"
#include "synth/implement.hpp"
#include "synth/instrument.hpp"

namespace fades {
namespace {

using common::FadesError;
using common::Rng;
using netlist::Netlist;
using netlist::Unit;
using rtl::Builder;
using rtl::Bus;
using sim::Simulator;

// ----------------------------------------------------- instrumentation -----

Netlist smallAluModel() {
  Builder b;
  Bus a = b.input("a", 4);
  Bus c = b.input("c", 4);
  auto sum = b.add(a, c, {});
  b.nameBus("sum_net", sum.sum);
  b.output("sum", sum.sum);
  b.output("cout", sum.carryOut);
  return b.finish();
}

TEST(Instrument, DisabledSaboteursAreTransparent) {
  Netlist model = smallAluModel();
  const auto targets = std::vector<netlist::NetId>{
      *model.findNet("sum_net[0]"), *model.findNet("sum_net[2]")};
  const auto inst = synth::instrumentWithSaboteurs(model, targets);

  Simulator ref(model), sab(inst.netlist);
  sab.setInput("sab_enable", 0);
  sab.setInput("sab_select", 0);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned c = 0; c < 16; ++c) {
      ref.setInput("a", a);
      ref.setInput("c", c);
      sab.setInput("a", a);
      sab.setInput("c", c);
      ref.settle();
      sab.settle();
      ASSERT_EQ(ref.portValue("sum"), sab.portValue("sum")) << a << "," << c;
      ASSERT_EQ(ref.portValue("cout"), sab.portValue("cout"));
    }
  }
}

TEST(Instrument, EnabledSaboteurInvertsExactlyTheSelectedNet) {
  Netlist model = smallAluModel();
  const auto targets = std::vector<netlist::NetId>{
      *model.findNet("sum_net[0]"), *model.findNet("sum_net[2]")};
  const auto inst = synth::instrumentWithSaboteurs(model, targets);

  Simulator ref(model), sab(inst.netlist);
  for (const auto& [net, selector] : inst.selectors) {
    const unsigned bit = (net == targets[0]) ? 0u : 2u;
    sab.setInput("sab_enable", 1);
    sab.setInput("sab_select", selector);
    for (unsigned a = 0; a < 16; a += 3) {
      for (unsigned c = 0; c < 16; c += 5) {
        ref.setInput("a", a);
        ref.setInput("c", c);
        sab.setInput("a", a);
        sab.setInput("c", c);
        ref.settle();
        sab.settle();
        ASSERT_EQ(sab.portValue("sum"),
                  ref.portValue("sum") ^ (1u << bit))
            << "selector " << selector;
      }
    }
  }
}

TEST(Instrument, CountsOverheadAndRejectsBadTargets) {
  Netlist model = smallAluModel();
  const auto inst = synth::instrumentWithSaboteurs(
      model, {*model.findNet("sum_net[1]")});
  // Degenerate single-target case: `sab_enable` alone drives the lone
  // saboteur - no select port, no match tree, exactly one XOR of overhead.
  EXPECT_EQ(inst.selectBits, 0u);
  EXPECT_EQ(inst.saboteurGates, 1u);
  EXPECT_EQ(inst.netlist.findInput("sab_select"), nullptr);

  Netlist model2 = smallAluModel();
  // Input-port nets cannot host a saboteur.
  EXPECT_THROW(synth::instrumentWithSaboteurs(
                   model2, {model2.inputs()[0].nets[0]}),
               FadesError);
}

TEST(Instrument, SingleTargetSaboteurDrivenByEnableAlone) {
  Netlist model = smallAluModel();
  const auto inst = synth::instrumentWithSaboteurs(
      model, {*model.findNet("sum_net[1]")});

  Simulator ref(model), sab(inst.netlist);
  sab.setInput("sab_enable", 1);
  for (unsigned a = 0; a < 16; a += 3) {
    for (unsigned c = 0; c < 16; c += 5) {
      ref.setInput("a", a);
      ref.setInput("c", c);
      sab.setInput("a", a);
      sab.setInput("c", c);
      ref.settle();
      sab.settle();
      ASSERT_EQ(sab.portValue("sum"), ref.portValue("sum") ^ 2u)
          << a << "," << c;
    }
  }
}

TEST(Instrument, RejectsDuplicateTargetNets) {
  // A duplicate target would chain two saboteurs onto one site, so one
  // selector value no longer maps to one injection site.
  Netlist model = smallAluModel();
  const auto dup = *model.findNet("sum_net[0]");
  try {
    synth::instrumentWithSaboteurs(model,
                                   {dup, *model.findNet("sum_net[2]"), dup});
    FAIL() << "duplicate saboteur target accepted";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::ConfigError);
    EXPECT_NE(std::string(e.what()).find("sum_net[0]"), std::string::npos)
        << e.what();
  }
}

TEST(Instrument, InstrumentedModelStillSynthesizes) {
  Netlist model = smallAluModel();
  const auto inst = synth::instrumentWithSaboteurs(
      model, {*model.findNet("sum_net[0]"), *model.findNet("sum_net[3]")});
  const auto impl =
      synth::implement(inst.netlist, fpga::DeviceSpec::small());
  EXPECT_GT(impl.stats.luts, 0u);
}

// ------------------------------------------- autonomous instrumentation -----

Netlist smallCounterModel() {
  Builder b;
  auto count = b.makeRegister("count", 4, 0);
  b.connect(count, b.increment(count.q));
  b.output("count", count.q);
  return b.finish();
}

TEST(Instrument, AutonomousControlsAtZeroAreTransparent) {
  Netlist model = smallCounterModel();
  const auto am = synth::instrumentAutonomous(model);
  EXPECT_EQ(am.chainBits, 4u);

  Simulator ref(model), inst(am.netlist);
  ref.reset();
  inst.reset();
  for (unsigned c = 0; c < 40; ++c) {
    ASSERT_EQ(ref.portValue("count"), inst.portValue("count")) << c;
    ref.step();
    inst.step();
  }
}

TEST(Instrument, AutonomousInjectFlipsExactlyTheMaskedFlop) {
  Netlist model = smallCounterModel();
  const auto am = synth::instrumentAutonomous(model);
  const unsigned p = 2;  // arm chain position 2

  Simulator ref(model), inst(am.netlist);
  ref.reset();
  inst.reset();
  // Scan the one-hot mask in; the design keeps running meanwhile and must
  // stay in lockstep with the reference (mask loading is non-intrusive).
  for (unsigned s = 0; s < am.chainBits; ++s) {
    inst.setInput("am_scan_in", s == am.chainBits - 1 - p ? 1 : 0);
    inst.setInput("am_shift", 1);
    inst.step();
    ref.step();
  }
  inst.setInput("am_shift", 0);
  inst.setInput("am_scan_in", 0);
  for (std::uint32_t f = 0; f < model.flopCount(); ++f) {
    ASSERT_EQ(inst.flopState(netlist::FlopId{f}),
              ref.flopState(netlist::FlopId{f}))
        << "lockstep broken during mask load, flop " << f;
  }

  // One cycle of am_inject XORs exactly the armed flip-flop's next state.
  inst.setInput("am_inject", 1);
  inst.step();
  ref.step();
  inst.setInput("am_inject", 0);
  for (std::uint32_t f = 0; f < model.flopCount(); ++f) {
    const bool want = f == am.chain[p].value
                          ? !ref.flopState(netlist::FlopId{f})
                          : ref.flopState(netlist::FlopId{f});
    EXPECT_EQ(inst.flopState(netlist::FlopId{f}), want) << "flop " << f;
  }
}

TEST(Instrument, AutonomousCaptureAndRestoreReturnToGolden) {
  Netlist model = smallCounterModel();
  const auto am = synth::instrumentAutonomous(model);

  Simulator ref(model), inst(am.netlist);
  ref.reset();
  inst.reset();
  // Mirror the golden run into the shadows, then freeze them at cycle 7.
  inst.setInput("am_capture", 1);
  for (unsigned c = 0; c < 7; ++c) {
    inst.step();
    ref.step();
  }
  inst.setInput("am_capture", 0);
  const auto goldenCount = ref.portValue("count");

  // Let the main design run ahead; the frozen shadows keep the golden state.
  for (unsigned c = 0; c < 3; ++c) inst.step();
  EXPECT_NE(inst.portValue("count"), goldenCount);

  // A single restore cycle copies the shadows back into every main flop.
  inst.setInput("am_restore", 1);
  inst.step();
  inst.setInput("am_restore", 0);
  EXPECT_EQ(inst.portValue("count"), goldenCount);
  for (std::uint32_t f = 0; f < model.flopCount(); ++f) {
    EXPECT_EQ(inst.flopState(netlist::FlopId{f}),
              ref.flopState(netlist::FlopId{f}))
        << "flop " << f;
  }
}

TEST(Instrument, AutonomousCountsExactOverhead) {
  Netlist model = smallCounterModel();
  const auto am = synth::instrumentAutonomous(model);
  const std::size_t flops = model.flopCount();
  // Per masked flop: scan mux + arm AND + inject XOR + restore mux + shadow
  // mux = 5 gates; mask + shadow = 2 flip-flops. No memory, no shadow bits.
  EXPECT_EQ(am.addedGates, 5 * flops);
  EXPECT_EQ(am.addedFlops, 2 * flops);
  EXPECT_EQ(am.shadowRamBits, 0u);
  EXPECT_EQ(am.chain.size(), flops);
}

TEST(Instrument, AutonomousRejectsDuplicateAndBadMaskTargets) {
  Netlist model = smallCounterModel();
  try {
    synth::instrumentAutonomous(
        model, {netlist::FlopId{0}, netlist::FlopId{1}, netlist::FlopId{0}});
    FAIL() << "duplicate mask target accepted";
  } catch (const FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::ConfigError);
    EXPECT_NE(std::string(e.what()).find("count[0]"), std::string::npos)
        << e.what();
  }
  Netlist model2 = smallCounterModel();
  EXPECT_THROW(synth::instrumentAutonomous(model2, {netlist::FlopId{99}}),
               FadesError);
}

// ------------------------------------------------- multiple bit-flips -----

TEST(Mbu, HigherMultiplicityNeverReducesCorruption) {
  // On an LFSR whose bits all feed the output, flipping more bits at once
  // keeps (or raises) the failure probability; a multiplicity-0-like check
  // is the single-flip experiment.
  Builder b;
  b.setUnit(Unit::Registers);
  rtl::Register lfsr = b.makeRegister("lfsr", 8, 1);
  auto fb = b.lxor(lfsr.q[7], b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
  rtl::Bus next{fb};
  for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
  b.connect(lfsr, next);
  b.output("out", lfsr.q);
  const auto impl = synth::implement(b.finish(), fpga::DeviceSpec::small());
  fpga::Device dev(impl.spec);
  core::FadesOptions opt;
  opt.observedOutputs = {"out"};
  core::FadesTool tool(dev, impl, 48, opt);

  Rng rng(3);
  std::vector<std::uint32_t> one{0};
  std::vector<std::uint32_t> many{0, 2, 4, 6};
  const auto o1 = tool.runMultipleBitFlipExperiment(one, 10);
  const auto o4 = tool.runMultipleBitFlipExperiment(many, 10);
  // The LFSR state feeds the output directly: both corrupt it immediately.
  EXPECT_EQ(o1, campaign::Outcome::Failure);
  EXPECT_EQ(o4, campaign::Outcome::Failure);
  // Configuration untouched afterwards.
  EXPECT_EQ(dev.readbackBitstream().logic, impl.bitstream.logic);
}

TEST(Mbu, MatchesSequenceOfSingleFlipsSemantically) {
  // Flipping {f1, f2} at cycle t must equal flipping f1 then f2 at the same
  // instant (both before the next edge) - verified against the simulator.
  Builder b;
  b.setUnit(Unit::Registers);
  rtl::Register cnt = b.makeRegister("cnt", 4, 0);
  b.connect(cnt, b.increment(cnt.q));
  b.output("out", cnt.q);
  Netlist nl = b.finish();
  const auto impl = synth::implement(nl, fpga::DeviceSpec::small());
  fpga::Device dev(impl.spec);
  core::FadesOptions opt;
  opt.observedOutputs = {"out"};
  core::FadesTool tool(dev, impl, 32, opt);

  // cnt = 5 at cycle 5; flipping bits 0 and 1 gives 6 ^ ... compute: 5 =
  // 0101b; flip bits 0,1 -> 0110b = 6.
  std::uint32_t bit0 = 0, bit1 = 0;
  for (std::uint32_t i = 0; i < impl.flops.size(); ++i) {
    if (impl.flops[i].name == "cnt[0]") bit0 = i;
    if (impl.flops[i].name == "cnt[1]") bit1 = i;
  }
  std::vector<std::uint32_t> both{bit0, bit1};
  const auto o = tool.runMultipleBitFlipExperiment(both, 5);
  EXPECT_EQ(o, campaign::Outcome::Failure);  // counter value diverges

  // Reference: the simulator with two deposits.
  Simulator s(nl);
  s.run(5);
  EXPECT_EQ(s.portValue("out"), 5u);
  s.depositFlop(*nl.findFlop("cnt[0]"), false);
  s.depositFlop(*nl.findFlop("cnt[1]"), true);
  EXPECT_EQ(s.portValue("out"), 6u);
}

// ----------------------------------------------- network evaluations -----

synth::Implementation lfsrImplementation() {
  Builder b;
  rtl::Register lfsr = b.makeRegister("lfsr", 8, 1);
  auto fb = b.lxor(lfsr.q[7], b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
  rtl::Bus next{fb};
  for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
  b.connect(lfsr, next);
  b.output("out", lfsr.q);
  return synth::implement(b.finish(), fpga::DeviceSpec::small());
}

TEST(FadesSettles, OneEvaluationPerCycleAndPerReconfiguration) {
  // fpga.settles counts LUT-network evaluations exactly: one per emulated
  // or observed cycle, plus one each for locating (a load from the golden
  // trace, wherever the instant lies in the 300-cycle run), the injection
  // and the removal (or, for a bit-flip, the first cycle after it). Reading
  // dev.cycle() keeps experiments that stop early covered.
  const auto impl = lfsrImplementation();
  fpga::Device dev(impl.spec);
  core::FadesOptions opt;
  opt.observedOutputs = {"out"};
  const obs::Counter& settles =
      obs::Registry::global().counter("fpga.settles");
  const std::uint64_t registryBefore = settles.value();
  core::FadesTool tool(dev, impl, 300, opt);
  EXPECT_EQ(dev.settles(), 1u + 300u);  // download, then the golden run
  EXPECT_EQ(settles.value() - registryBefore, 1u + 300u);

  using campaign::FaultModel;
  using campaign::TargetClass;
  Rng rng(11);
  auto expectCost = [&](FaultModel model, TargetClass cls,
                        std::uint32_t target, std::uint64_t cycle,
                        double duration) {
    const std::uint64_t device0 = dev.settles(), registry0 = settles.value();
    tool.runExperiment(model, cls, target, cycle, duration, rng);
    const std::uint64_t expected = 3 + dev.cycle() - cycle;
    EXPECT_EQ(dev.settles() - device0, expected)
        << "inject at " << cycle << " for " << duration;
    EXPECT_EQ(settles.value() - registry0, expected);
  };
  const auto luts =
      tool.targets(FaultModel::Pulse, TargetClass::CombinationalLut, Unit::None);
  const double durations[] = {0.0, 0.5, 1.0, 3.0, 7.0, 10.0};
  for (unsigned i = 0; i < 6; ++i) {
    expectCost(FaultModel::Pulse, TargetClass::CombinationalLut,
               luts[i % luts.size()], 5 + 53 * i, durations[i]);
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    expectCost(FaultModel::BitFlip, TargetClass::SequentialFF, 2 * i,
               3 + 130 * i, 1.0);
  }
}

TEST(FadesSettles, PermanentCampaignsAndProbesFlushEveryEvaluation) {
  // Permanent-fault experiments and Table 4 probes locate and emulate on the
  // same device, so the registry counter must follow it through them too.
  const auto impl = lfsrImplementation();
  fpga::Device dev(impl.spec);
  core::FadesOptions opt;
  opt.observedOutputs = {"out"};
  core::FadesTool tool(dev, impl, 48, opt);
  const obs::Counter& settles =
      obs::Registry::global().counter("fpga.settles");
  auto expectFlushed = [&](const std::string& what, const auto& run) {
    const std::uint64_t device0 = dev.settles(), registry0 = settles.value();
    run();
    EXPECT_GT(dev.settles(), device0) << what;
    EXPECT_EQ(settles.value() - registry0, dev.settles() - device0) << what;
  };

  core::PermanentFaults permanent(tool);
  core::PermanentCampaignSpec spec;
  spec.model = core::PermanentFaultModel::StuckAt0;
  spec.experiments = 10;
  spec.seed = 3;
  expectFlushed("stuck-at-0 campaign", [&] { permanent.runCampaign(spec); });

  const auto luts = tool.targets(campaign::FaultModel::Pulse,
                                 campaign::TargetClass::CombinationalLut,
                                 Unit::None);
  for (const std::uint64_t cycle : {0u, 20u, 47u}) {
    expectFlushed("probe at " + std::to_string(cycle),
                  [&] { tool.multiBitFlipProbe(luts[0], cycle); });
  }
}

}  // namespace
}  // namespace fades
