// Table 2: speed-up of FADES over VFIT for the same campaigns.
//
// VFIT's time is dominated by simulating the model on the host CPU (near
// constant across fault types, 21600 s for 3000 faults in the paper); FADES
// pays per-fault reconfiguration traffic instead. The paper's speed-ups:
// bit-flip FFs 23.60, memory 40.30, pulse 28.60 / 14.21, delay 8.68 / 7.77,
// indetermination 20.28 / 26.83; combined estimate 15.66.
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

double meanSeconds(core::FadesTool& tool, FaultModel m, TargetClass c,
                   DurationBand band, unsigned n) {
  CampaignSpec spec;
  spec.model = m;
  spec.targets = c;
  spec.band = band;
  spec.experiments = n;
  spec.seed = 11;
  return bench::runCampaign(tool, spec).modeledSeconds.mean();
}

double meanSecondsVfit(vfit::VfitTool& tool, FaultModel m, TargetClass c,
                       DurationBand band, unsigned n) {
  CampaignSpec spec;
  spec.model = m;
  spec.targets = c;
  spec.band = band;
  spec.experiments = n;
  spec.seed = 11;
  return campaign::runCampaign(spec, {&tool}).modeledSeconds.mean();
}

}  // namespace

int main(int argc, char** argv) {
  BenchRun benchRun("table2_speedup", argc, argv);
  System8051 sys;
  sys.printHeadline();
  auto& fades = sys.fades();
  auto& vfitTool = sys.vfit();
  const unsigned n = timingCount(60);
  const unsigned nDelay = std::min(n, 30u);

  struct Row {
    std::string label;
    double fadesSec;
    double vfitSec;  // <0: not supported, use the flat estimate
    std::string paperSpeedup;
  };
  std::vector<Row> data;

  const double vfitFlat =
      meanSecondsVfit(vfitTool, FaultModel::BitFlip,
                      TargetClass::SequentialFF, DurationBand::shortBand(),
                      n);

  data.push_back({"bit-flip / FFs",
                  meanSeconds(fades, FaultModel::BitFlip,
                              TargetClass::SequentialFF,
                              DurationBand::shortBand(), n),
                  vfitFlat, "23.60"});
  data.push_back({"bit-flip / memory blocks",
                  meanSeconds(fades, FaultModel::BitFlip,
                              TargetClass::MemoryBlockBit,
                              DurationBand::shortBand(), n),
                  meanSecondsVfit(vfitTool, FaultModel::BitFlip,
                                  TargetClass::MemoryBlockBit,
                                  DurationBand::shortBand(), n),
                  "40.30"});
  data.push_back({"pulse / combinational (<1 cycle)",
                  meanSeconds(fades, FaultModel::Pulse,
                              TargetClass::CombinationalLut,
                              DurationBand::subCycle(), n),
                  meanSecondsVfit(vfitTool, FaultModel::Pulse,
                                  TargetClass::CombinationalLut,
                                  DurationBand::subCycle(), n),
                  "28.60"});
  data.push_back({"pulse / combinational (1-10 cycles)",
                  meanSeconds(fades, FaultModel::Pulse,
                              TargetClass::CombinationalLut,
                              DurationBand::shortBand(), n),
                  meanSecondsVfit(vfitTool, FaultModel::Pulse,
                                  TargetClass::CombinationalLut,
                                  DurationBand::shortBand(), n),
                  "14.21"});
  {
    auto& delayTool = sys.fadesForDelay();
    data.push_back({"delay / sequential",
                    meanSeconds(delayTool, FaultModel::Delay,
                                TargetClass::SequentialLine,
                                DurationBand::shortBand(), nDelay),
                    -1.0, "8.68"});
    data.push_back({"delay / combinational",
                    meanSeconds(delayTool, FaultModel::Delay,
                                TargetClass::CombinationalLine,
                                DurationBand::shortBand(), nDelay),
                    -1.0, "7.77"});
  }
  data.push_back({"indetermination / sequential",
                  meanSeconds(fades, FaultModel::Indetermination,
                              TargetClass::SequentialFF,
                              DurationBand::shortBand(), n),
                  meanSecondsVfit(vfitTool, FaultModel::Indetermination,
                                  TargetClass::SequentialFF,
                                  DurationBand::shortBand(), n),
                  "20.28"});
  data.push_back({"indetermination / combinational",
                  meanSeconds(fades, FaultModel::Indetermination,
                              TargetClass::CombinationalLut,
                              DurationBand::shortBand(), n),
                  meanSecondsVfit(vfitTool, FaultModel::Indetermination,
                                  TargetClass::CombinationalLut,
                                  DurationBand::shortBand(), n),
                  "26.83"});

  std::vector<std::vector<std::string>> rows;
  double fadesSum = 0, count = 0;
  for (const auto& r : data) {
    // VFIT cannot run delay experiments; its flat simulation time is used
    // as the estimate (which is also how the paper's Table 2 reads).
    const double v = r.vfitSec > 0 ? r.vfitSec : vfitFlat;
    rows.push_back({r.label, common::fixed(r.fadesSec * 3000, 0),
                    common::fixed(v * 3000, 0) + (r.vfitSec > 0 ? "" : " *"),
                    common::fixed(v / r.fadesSec, 2), r.paperSpeedup});
    fadesSum += r.fadesSec;
    count += 1;
  }
  const double fadesMean = fadesSum / count;
  rows.push_back({"estimated mean (all models)",
                  common::fixed(fadesMean * 3000, 0),
                  common::fixed(vfitFlat * 3000, 0),
                  common::fixed(vfitFlat / fadesMean, 2), "15.66"});

  printTable("Table 2 - FADES vs VFIT, scaled to 3000 faults "
             "(* = VFIT estimate; it cannot inject delays)",
             {"fault model / target", "FADES (s)", "VFIT (s)", "speed-up",
              "paper speed-up"},
             rows);
  std::printf("Paper reference: VFIT 21600 s flat; FADES per Figure 10.\n");
  return 0;
}
