// Table 3: results validation - failure percentages obtained by FADES
// compared against VFIT on the same model, targets, and durations.
//
// Paper values (% failures, durations <1 / 1-10 / 11-20 cycles):
//   bit-flip  FFs      FADES 43.86            VFIT 43.70
//   bit-flip  memory   FADES 80.95            VFIT 81.76
//   pulse     ALU      FADES 0.06/3.13/8.86   VFIT 1.36/3.53/7.43
//   delay     FFs      FADES 5.7/18.6/31.67   VFIT - (not supported)
//   delay     ALU      FADES 0/0.57/2.1       VFIT -
//   indet.    FFs      FADES 29.53/45.9/61.4  VFIT 18.87/35.90/52.47
//   indet.    ALU      FADES 0.37/1.37/3.57   VFIT 1.30/3.03/8.23
#include <cstdio>

#include "bench_common.hpp"

using namespace fades;
using namespace fades::bench;
using campaign::CampaignSpec;
using campaign::DurationBand;
using campaign::FaultModel;
using campaign::TargetClass;
using netlist::Unit;

namespace {

std::string sweepPct(const std::vector<campaign::CampaignResult>& sweep) {
  std::string s;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (i) s += " / ";
    s += common::fixed(sweep[i].failurePct(), 2);
  }
  return s;
}

std::vector<campaign::CampaignResult> vfitSweep(
    vfit::VfitTool& tool, FaultModel model, TargetClass targets, Unit unit,
    unsigned n, std::vector<std::uint32_t> pool = {}) {
  std::vector<campaign::CampaignResult> out;
  for (const auto& band : DurationBand::paperBands()) {
    CampaignSpec spec;
    spec.model = model;
    spec.targets = targets;
    spec.unit = static_cast<int>(unit);
    spec.band = band;
    spec.experiments = n;
    spec.seed = 5;
    spec.targetPool = pool;
    out.push_back(campaign::runCampaign(spec, {&tool}));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchRun benchRun("table3_validation", argc, argv);
  System8051 sys;
  sys.printHeadline();
  auto& fades = sys.fades();
  auto& vfitTool = sys.vfit();
  const unsigned n = classifyCount(300);
  const unsigned nDelay = std::min(n, 120u);

  // Shared pools so both tools attack the same positions.
  const auto ffPool = eligibleFlops(fades);
  std::vector<std::uint32_t> vfitFfPool;
  for (const auto& name : eligibleFlopNames(fades)) {
    const auto f = sys.netlist().findFlop(name);
    if (f.has_value()) vfitFfPool.push_back(f->value);
  }
  // Failure-causing memory bits + the VFIT encoding of the same positions.
  std::vector<std::uint32_t> memPool, vfitMemPool;
  {
    common::Rng rng(77);
    const auto allMem = fades.targets(FaultModel::BitFlip,
                                      TargetClass::MemoryBlockBit,
                                      Unit::None);
    const auto& impl = sys.implementation();
    for (std::size_t k = 0; k < allMem.size(); ++k) {
      common::Rng erng = rng.fork(k);
      const auto cycle = erng.below(fades.runCycles());
      if (fades.runExperiment(FaultModel::BitFlip,
                              TargetClass::MemoryBlockBit, allMem[k], cycle,
                              1.0, erng) != campaign::Outcome::Failure) {
        continue;
      }
      memPool.push_back(allMem[k]);
      const unsigned block = allMem[k] >> 16;
      const unsigned contentBit = allMem[k] & 0xFFFF;
      for (std::uint32_t ri = 0; ri < impl.rams.size(); ++ri) {
        for (const auto& s : impl.rams[ri].slices) {
          if (s.block != block) continue;
          const unsigned row = contentBit / s.width;
          const unsigned bit = s.bitLo + contentBit % s.width;
          vfitMemPool.push_back((impl.rams[ri].ram.value << 24) |
                                (row << 8) | bit);
        }
      }
    }
  }

  std::vector<std::vector<std::string>> rows;
  auto addRow = [&](const char* model, const char* where,
                    const std::string& fadesPct, const std::string& vfitPct,
                    const char* paperFades, const char* paperVfit) {
    rows.push_back({model, where, fadesPct, vfitPct, paperFades, paperVfit});
  };

  {  // Bit-flips (duration is irrelevant: they persist).
    CampaignSpec fs;
    fs.model = FaultModel::BitFlip;
    fs.targets = TargetClass::SequentialFF;
    fs.experiments = n;
    fs.seed = 5;
    fs.targetPool = ffPool;
    const auto f = bench::runCampaign(fades, fs);
    fs.targetPool = vfitFfPool;
    const auto v = campaign::runCampaign(fs, {&vfitTool});
    addRow("bit-flip", "FFs", common::fixed(f.failurePct(), 2),
           common::fixed(v.failurePct(), 2), "43.86", "43.70");

    fs.targets = TargetClass::MemoryBlockBit;
    fs.targetPool = memPool;
    const auto fm = bench::runCampaign(fades, fs);
    fs.targetPool = vfitMemPool;
    const auto vm = campaign::runCampaign(fs, {&vfitTool});
    addRow("bit-flip", "memory", common::fixed(fm.failurePct(), 2),
           common::fixed(vm.failurePct(), 2), "80.95", "81.76");
  }
  {  // Pulses into the ALU (the only purely combinational unit).
    const auto f = bandSweep(fades, FaultModel::Pulse,
                             TargetClass::CombinationalLut, Unit::Alu, n);
    const auto v = vfitSweep(vfitTool, FaultModel::Pulse,
                             TargetClass::CombinationalLut, Unit::Alu, n);
    addRow("pulse", "ALU", sweepPct(f), sweepPct(v), "0.06/3.13/8.86",
           "1.36/3.53/7.43");
  }
  {  // Delays: FADES only, like the paper (VFIT lacks delay clauses).
    auto& delayTool = sys.fadesForDelay();
    const auto fSeq = bandSweep(delayTool, FaultModel::Delay,
                                TargetClass::SequentialLine, Unit::None,
                                nDelay, 5, eligibleSequentialLines(fades));
    addRow("delay", "FFs", sweepPct(fSeq), "-", "5.7/18.6/31.67", "-");
    const auto fAlu = bandSweep(delayTool, FaultModel::Delay,
                                TargetClass::CombinationalLine, Unit::Alu,
                                nDelay);
    addRow("delay", "ALU", sweepPct(fAlu), "-", "0/0.57/2.1", "-");
  }
  {  // Indeterminations.
    const auto fFf =
        bandSweep(fades, FaultModel::Indetermination,
                  TargetClass::SequentialFF, Unit::None, n, 5, ffPool);
    const auto vFf = vfitSweep(vfitTool, FaultModel::Indetermination,
                               TargetClass::SequentialFF, Unit::None, n,
                               vfitFfPool);
    addRow("indetermination", "FFs", sweepPct(fFf), sweepPct(vFf),
           "29.53/45.9/61.4", "18.87/35.90/52.47");
    const auto fAlu =
        bandSweep(fades, FaultModel::Indetermination,
                  TargetClass::CombinationalLut, Unit::Alu, n);
    const auto vAlu = vfitSweep(vfitTool, FaultModel::Indetermination,
                                TargetClass::CombinationalLut, Unit::Alu, n);
    addRow("indetermination", "ALU", sweepPct(fAlu), sweepPct(vAlu),
           "0.37/1.37/3.57", "1.30/3.03/8.23");
  }

  printTable("Table 3 - percentage of failures, FADES vs VFIT "
             "(durations <1 / 1-10 / 11-20 cycles; " +
                 std::to_string(n) + " faults per cell)",
             {"fault model", "location", "FADES", "VFIT", "paper FADES",
              "paper VFIT"},
             rows);
  std::printf(
      "Note: FADES draws combinational targets from %zu LUTs while VFIT "
      "sees %zu named ALU signals - the paper's observation (ii) about\n"
      "higher logic masking on the FPGA side applies here too.\n",
      fades.targets(FaultModel::Pulse, TargetClass::CombinationalLut,
                    Unit::Alu).size(),
      vfit::signalTargets(sys.netlist(), Unit::Alu).size());
  return 0;
}
