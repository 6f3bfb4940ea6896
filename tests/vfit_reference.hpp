// The scalar simulator-command reference for VFIT campaign experiments.
//
// Campaigns run as bit-parallel waves; VfitTool::runExperiment is the scalar
// event-driven path they must reproduce. scalarReference() replays campaign
// index `index` through it, drawing from the experiment's own RNG stream in
// the campaign's order: target, injection instant, duration, then
// runExperiment's own draws.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>

#include "campaign/types.hpp"
#include "common/rng.hpp"
#include "vfit/vfit.hpp"

namespace fades::vfitref {

struct ScalarReference {
  std::uint32_t target = 0;
  std::uint64_t injectCycle = 0;
  double duration = 0;
  campaign::Outcome outcome = campaign::Outcome::Silent;
  double modeledSeconds = 0;
  unsigned commands = 0;
};

inline ScalarReference scalarReference(vfit::VfitTool& tool,
                                       const campaign::CampaignSpec& spec,
                                       std::span<const std::uint32_t> pool,
                                       unsigned index) {
  common::Rng rng(common::streamSeed(spec.seed, std::uint64_t{index} * 131));
  ScalarReference r;
  r.target = pool[rng.below(pool.size())];
  r.injectCycle = rng.below(tool.golden().outputs.size());
  r.duration = spec.band.minCycles +
               rng.uniform01() * (spec.band.maxCycles - spec.band.minCycles);
  r.outcome = tool.runExperiment(spec.model, spec.targets, r.target,
                                 r.injectCycle, r.duration, rng,
                                 &r.modeledSeconds, &r.commands);
  return r;
}

/// A record's draws and classification; with `vfitCost`, also the modeled
/// seconds VFIT's cost model charged the reference.
inline void expectRecordMatches(const campaign::ExperimentRecord& record,
                                const ScalarReference& ref, bool vfitCost,
                                const std::string& what) {
  EXPECT_EQ(record.targetName, std::to_string(ref.target)) << what;
  EXPECT_EQ(record.injectCycle, ref.injectCycle) << what;
  EXPECT_EQ(record.durationCycles, ref.duration) << what;
  EXPECT_EQ(record.outcome, ref.outcome) << what;
  if (vfitCost) {
    EXPECT_EQ(record.modeledSeconds, ref.modeledSeconds) << what;
  }
}

/// Every record of a VFIT campaign's result against the reference.
inline void expectRecordsMatch(vfit::VfitTool& tool,
                               const campaign::CampaignSpec& spec,
                               const campaign::CampaignResult& result,
                               const std::string& what) {
  const auto pool = tool.enumeratePool(spec);
  ASSERT_EQ(result.records.size(), spec.experiments) << what;
  for (unsigned e = 0; e < spec.experiments; ++e) {
    expectRecordMatches(result.records[e], scalarReference(tool, spec, pool, e),
                        true, what + ", index " + std::to_string(e));
  }
}

}  // namespace fades::vfitref
