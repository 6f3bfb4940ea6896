// Google-benchmark microbenchmarks of the substrate itself: how fast the
// host machine emulates the configured FPGA, simulates the netlist, and
// performs reconfiguration operations. These are the wall-clock numbers a
// user needs to size real campaigns (the modeled 2006 times come from the
// board-link cost model instead).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bits/config_port.hpp"
#include "campaign/types.hpp"
#include "core/autonomous.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "mc8051/core.hpp"
#include "mc8051/iss.hpp"
#include "mc8051/workloads.hpp"
#include "campaign/prune_plan.hpp"
#include "rtl/builder.hpp"
#include "service/jobspec.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "synth/implement.hpp"
#include "vfit/vfit.hpp"

namespace {

using namespace fades;

struct Shared {
  mc8051::Workload workload = mc8051::bubblesort(6);
  netlist::Netlist nl = mc8051::buildCore(workload.bytes);
  synth::Implementation impl =
      synth::implement(nl, fpga::DeviceSpec::virtex1000Like());

  static const Shared& get() {
    static Shared s;
    return s;
  }
};

void BM_IssCycle(benchmark::State& state) {
  mc8051::Iss iss(Shared::get().workload.bytes);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cycles += iss.stepInstruction();
    if (iss.cycleCount() > Shared::get().workload.cycles) iss.reset();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_IssCycle);

void BM_NetlistSimulatorCycle(benchmark::State& state) {
  sim::Simulator simulator(Shared::get().nl);
  for (auto _ : state) simulator.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetlistSimulatorCycle);

// The compiled engine advances 64 fault machines per step, so one iteration
// processes 64 machine-cycles; items/s is therefore directly comparable to
// BM_NetlistSimulatorCycle's (one machine-cycle per iteration). CI's
// regression gate requires the ratio to stay >= 10x.
void BM_CompiledNetlistCycle(benchmark::State& state) {
  sim::CompiledSimulator cs(Shared::get().nl);
  for (auto _ : state) cs.step();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              sim::CompiledSimulator::kLanes));
}
BENCHMARK(BM_CompiledNetlistCycle);

// Whole VFIT campaigns (MC8051 + Bubblesort) at wave-relevant experiment
// counts: 1 (degenerate wave), 8 (partial wave), 64 (one full 63-lane wave
// plus one spill). items/s = experiments per second. The golden run is paid
// once in the fixture, not per iteration.
vfit::VfitTool& vfitTool() {
  static vfit::VfitTool tool(Shared::get().nl, Shared::get().workload.cycles);
  return tool;
}

// Autonomous campaigns on the same workload and experiment counts; the
// semantic engine is shared with VFIT, so items/s differences against
// BM_VfitCampaignCompiled isolate the autonomous metering and
// instrumentation bookkeeping (including the one-time transparency check in
// the fixture).
core::AutonomousTool& autonomousTool() {
  static core::AutonomousTool tool(Shared::get().nl,
                                   Shared::get().workload.cycles);
  return tool;
}

template <typename Tool>
void runCampaignBench(benchmark::State& state, Tool& tool) {
  campaign::CampaignSpec spec;
  spec.model = campaign::FaultModel::BitFlip;
  spec.targets = campaign::TargetClass::SequentialFF;
  spec.experiments = static_cast<unsigned>(state.range(0));
  spec.seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign::runCampaign(spec, {&tool}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_VfitCampaignCompiled(benchmark::State& state) {
  runCampaignBench(state, vfitTool());
}
BENCHMARK(BM_VfitCampaignCompiled)
    ->Arg(1)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_AutonomousCampaignCompiled(benchmark::State& state) {
  runCampaignBench(state, autonomousTool());
}
BENCHMARK(BM_AutonomousCampaignCompiled)
    ->Arg(1)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

// RTR vs autonomous, per-injection modeled time on the same MC8051 bit-flip
// campaign. The `modeled_speedup` counter is the number CI gates (>= 5x):
// it compares the board-link cost model (frame readback + partial frames +
// host turnaround per injection) against the autonomous one (mask-chain
// load + restore sweep at emulator clock), so it is machine-independent.
void BM_AutonomousVsRtrModeledSpeedup(benchmark::State& state) {
  const auto& s = Shared::get();
  core::FadesOptions fOpt;
  fOpt.observedOutputs = {"p0", "p1"};
  fpga::Device dev(s.impl.spec);
  core::FadesTool rtr(dev, s.impl, s.workload.cycles, fOpt);
  auto& aut = autonomousTool();

  campaign::CampaignSpec spec;
  spec.model = campaign::FaultModel::BitFlip;
  spec.targets = campaign::TargetClass::SequentialFF;
  spec.experiments = 24;
  spec.seed = 7;

  double rtrMean = 0, autMean = 0;
  for (auto _ : state) {
    rtrMean = campaign::runCampaign(spec, {&rtr}).modeledSeconds.mean();
    autMean = campaign::runCampaign(spec, {&aut}).modeledSeconds.mean();
  }
  state.counters["rtr_injection_seconds"] = rtrMean;
  state.counters["autonomous_injection_seconds"] = autMean;
  state.counters["modeled_speedup"] = rtrMean / autMean;
  state.SetItemsProcessed(state.iterations() * 2 * spec.experiments);
}
BENCHMARK(BM_AutonomousVsRtrModeledSpeedup)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_FpgaEmulationCycle(benchmark::State& state) {
  const auto& s = Shared::get();
  fpga::Device dev(s.impl.spec);
  dev.writeFullBitstream(s.impl.bitstream);
  const std::uint64_t settles = dev.settles();
  for (auto _ : state) dev.step();
  state.SetItemsProcessed(state.iterations());
  // Network evaluations per emulated cycle: a work counter, exactly 1.
  state.counters["settles_per_cycle"] =
      static_cast<double>(dev.settles() - settles) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_FpgaEmulationCycle);

void BM_LutTableRewrite(benchmark::State& state) {
  const auto& s = Shared::get();
  fpga::Device dev(s.impl.spec);
  dev.writeFullBitstream(s.impl.bitstream);
  bits::ConfigPort port(dev);
  const auto cb = s.impl.luts[0].cb;
  const auto original = s.impl.luts[0].table;
  for (auto _ : state) {
    port.setLutTable(cb, static_cast<std::uint16_t>(~original));
    dev.settle();
    port.setLutTable(cb, original);
    dev.settle();
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_LutTableRewrite);

void BM_CaptureFrameReadback(benchmark::State& state) {
  const auto& s = Shared::get();
  fpga::Device dev(s.impl.spec);
  dev.writeFullBitstream(s.impl.bitstream);
  bits::ConfigPort port(dev);
  unsigned col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(port.readCaptureFrame(col));
    col = (col + 1) % s.impl.spec.cols;
  }
}
BENCHMARK(BM_CaptureFrameReadback);

void BM_DeviceStateRestore(benchmark::State& state) {
  const auto& s = Shared::get();
  fpga::Device dev(s.impl.spec);
  dev.writeFullBitstream(s.impl.bitstream);
  const auto snapshot = dev.captureState();
  for (auto _ : state) dev.restoreState(snapshot);
}
BENCHMARK(BM_DeviceStateRestore);

// Reconfiguration-dominated single experiments, one per injection
// mechanism. The design is deliberately tiny and the emulated run short, so
// wall-clock is dominated by configuration frame traffic rather than by
// cycle emulation.
struct ReconfigDesign {
  netlist::Netlist nl;
  synth::Implementation impl;
  std::uint64_t cycles = 12;

  static netlist::Netlist build() {
    rtl::Builder b;
    b.setUnit(netlist::Unit::Registers);
    rtl::Register lfsr = b.makeRegister("lfsr", 8, 1);
    auto fb = b.lxor(lfsr.q[7],
                     b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
    rtl::Bus next{fb};
    for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
    b.connect(lfsr, next);
    b.setUnit(netlist::Unit::Fsm);
    rtl::Register cnt = b.makeRegister("cnt", 4, 0);
    b.connect(cnt, b.increment(cnt.q));
    b.setUnit(netlist::Unit::Alu);
    auto sum = b.add(lfsr.q, b.zeroExtend(cnt.q, 8), {});
    b.output("out", sum.sum);
    return b.finish();
  }

  ReconfigDesign()
      : nl(build()), impl(synth::implement(nl, fpga::DeviceSpec::small())) {}

  static const ReconfigDesign& get() {
    static ReconfigDesign d;
    return d;
  }
};

void runReconfigExperiments(benchmark::State& state,
                            campaign::FaultModel model,
                            campaign::TargetClass cls,
                            core::BitFlipVia via = core::BitFlipVia::Lsr) {
  const auto& d = ReconfigDesign::get();
  core::FadesOptions opt;
  opt.observedOutputs = {"out"};
  opt.bitFlipVia = via;
  fpga::Device dev(d.impl.spec);
  core::FadesTool tool(dev, d.impl, d.cycles, opt);
  campaign::CampaignSpec spec;
  spec.model = model;
  spec.targets = cls;
  spec.seed = 11;
  spec.experiments = 1u << 20;  // index wrap bound, never reached
  const auto pool = tool.enumeratePool(spec);
  unsigned index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tool.runExperimentAt(spec, pool, index++, 0));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ReconfigExperimentPulse(benchmark::State& state) {
  runReconfigExperiments(state, campaign::FaultModel::Pulse,
                         campaign::TargetClass::CombinationalLut);
}
BENCHMARK(BM_ReconfigExperimentPulse);

void BM_ReconfigExperimentBitFlip(benchmark::State& state) {
  runReconfigExperiments(state, campaign::FaultModel::BitFlip,
                         campaign::TargetClass::SequentialFF);
}
BENCHMARK(BM_ReconfigExperimentBitFlip);

// The GSR mechanism reads every used capture column and rewrites the
// set/reset mux of every used FF twice per experiment - the most
// reconfiguration-dominated injector.
void BM_ReconfigExperimentGsr(benchmark::State& state) {
  runReconfigExperiments(state, campaign::FaultModel::BitFlip,
                         campaign::TargetClass::SequentialFF,
                         core::BitFlipVia::Gsr);
}
BENCHMARK(BM_ReconfigExperimentGsr);

// Liveness-based fault-list pruning on the paper's Bubblesort workload:
// derive the fades.prune/1 plan (golden trace + analysis, no campaign
// execution) and report the experiments-executed collapse. Wall-clock times
// the analysis itself; the counters are machine-independent and carry the
// numbers EXPERIMENTS.md tabulates and CI's regression gate tracks - the
// pool-proportional FF+RAM campaign must collapse >= 5x.
campaign::PrunePlan derivePrunePlan(campaign::FaultModel model,
                                    campaign::TargetClass targets,
                                    unsigned experiments) {
  service::JobSpec job;
  job.tool = "vfit";
  job.workload = "bubblesort6";
  job.spec.model = model;
  job.spec.targets = targets;
  job.spec.band = campaign::DurationBand::shortBand();
  job.spec.experiments = experiments;
  job.spec.seed = 2006;
  job.prune = true;
  const auto sys = service::buildSystem(job);
  return service::buildPrunePlan(*sys);
}

void reportCollapse(benchmark::State& state, const campaign::PrunePlan& plan) {
  state.counters["experiments"] =
      static_cast<double>(plan.spec.experiments);
  state.counters["executed"] = static_cast<double>(plan.executedCount());
  state.counters["collapsed"] = static_cast<double>(plan.collapsedCount());
  state.counters["collapse_factor"] = plan.collapseFactor();
}

void BM_PruneCollapseFlops(benchmark::State& state) {
  campaign::PrunePlan plan;
  for (auto _ : state) {
    plan = derivePrunePlan(campaign::FaultModel::BitFlip,
                           campaign::TargetClass::SequentialFF, 2000);
    benchmark::DoNotOptimize(plan.classes.size());
  }
  reportCollapse(state, plan);
}
BENCHMARK(BM_PruneCollapseFlops)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_PruneCollapseMemory(benchmark::State& state) {
  campaign::PrunePlan plan;
  for (auto _ : state) {
    plan = derivePrunePlan(campaign::FaultModel::BitFlip,
                           campaign::TargetClass::MemoryBlockBit, 2000);
    benchmark::DoNotOptimize(plan.classes.size());
  }
  reportCollapse(state, plan);
}
BENCHMARK(BM_PruneCollapseMemory)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// Pulses into LUTs collapse only through dead-target classes, and synthesis
// already sweeps gates with no path to a visible net - so on a fully
// observed design the factor stays near 1x. The benchmark documents that
// floor rather than gating on it.
void BM_PruneCollapseLutsPulse(benchmark::State& state) {
  campaign::PrunePlan plan;
  for (auto _ : state) {
    plan = derivePrunePlan(campaign::FaultModel::Pulse,
                           campaign::TargetClass::CombinationalLut, 2000);
    benchmark::DoNotOptimize(plan.classes.size());
  }
  reportCollapse(state, plan);
}
BENCHMARK(BM_PruneCollapseLutsPulse)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// The acceptance metric: one FF+RAM campaign pair with experiment counts
// proportional to the two pools (the way a whole-chip campaign would weight
// them), 5000 experiments total. collapse_factor here is the overall
// experiments-executed reduction and must stay >= 5x.
void BM_PruneCollapseFlopsPlusMemory(benchmark::State& state) {
  campaign::PrunePlan ff, ram;
  unsigned total = 5000;
  for (auto _ : state) {
    // Probe pass fixes the two pool sizes; the split is then proportional.
    const auto ffProbe = derivePrunePlan(
        campaign::FaultModel::BitFlip, campaign::TargetClass::SequentialFF, 1);
    const auto ramProbe =
        derivePrunePlan(campaign::FaultModel::BitFlip,
                        campaign::TargetClass::MemoryBlockBit, 1);
    const double ffShare =
        static_cast<double>(ffProbe.poolSize) /
        static_cast<double>(ffProbe.poolSize + ramProbe.poolSize);
    const auto ffCount =
        static_cast<unsigned>(ffShare * static_cast<double>(total) + 0.5);
    ff = derivePrunePlan(campaign::FaultModel::BitFlip,
                         campaign::TargetClass::SequentialFF, ffCount);
    ram = derivePrunePlan(campaign::FaultModel::BitFlip,
                          campaign::TargetClass::MemoryBlockBit,
                          total - ffCount);
    benchmark::DoNotOptimize(ff.classes.size() + ram.classes.size());
  }
  const auto executed = ff.executedCount() + ram.executedCount();
  state.counters["experiments"] = static_cast<double>(total);
  state.counters["executed"] = static_cast<double>(executed);
  state.counters["collapsed"] =
      static_cast<double>(ff.collapsedCount() + ram.collapsedCount());
  state.counters["collapse_factor"] =
      static_cast<double>(total) / static_cast<double>(executed);
}
BENCHMARK(BM_PruneCollapseFlopsPlusMemory)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Synthesize8051(benchmark::State& state) {
  const auto& s = Shared::get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synth::implement(s.nl, fpga::DeviceSpec::virtex1000Like()));
  }
}
BENCHMARK(BM_Synthesize8051)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

// Same `--json [path]` flag as the table benches, translated onto google
// benchmark's native JSON reporter so the artifact carries real timings.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string outFlag, fmtFlag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::string(argv[i]) == "--json") {
      std::string path = "BENCH_microbench.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') path = argv[++i];
      outFlag = "--benchmark_out=" + path;
      args.push_back(outFlag.data());
      args.push_back(fmtFlag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
