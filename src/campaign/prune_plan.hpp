// Liveness-based fault-list pruning plan (the `fades.prune/1` artifact).
//
// A pruning plan collapses a campaign's experiment list into equivalence
// classes: every member of a class provably produces the same outcome (and
// the same measured cost fields) as the class representative, because the
// golden-run liveness analysis shows the injected fault cannot influence
// anything observable before the two trajectories merge. Consumers run the
// representative normally and materialize each member as a synthesized
// record cloned from it (flagged `pruned_from`), so the folded campaign
// result stays byte-identical in outcome totals to the unpruned campaign
// while only `experiments - collapsed` experiments actually execute.
//
// The plan is pure data: the analysis that builds it lives in src/prune
// (it needs the netlist and a golden simulation), while the consumers -
// ParallelCampaignRunner, the distributed worker and campaign_8051 - only
// need this vocabulary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/types.hpp"
#include "obs/json.hpp"

namespace fades::campaign {

/// Why a class's members could be collapsed onto the representative.
enum class PruneReason : std::uint8_t {
  /// The target's forward cone reaches no flop input, no memory input and
  /// no observed output: faults on it can never become visible.
  DeadTarget,
  /// The flipped state element is overwritten before anything reads it, so
  /// the machine returns to the golden trajectory (provably Silent).
  OverwriteBeforeRead,
  /// The fault sits dormant (golden-except-target) until a fixed golden
  /// cycle first exposes it; all injection instants sharing that exposure
  /// cycle reach the exposure with identical machine state.
  QuiescentUntilRead,
  /// The fault is never consumed before the workload ends: it survives
  /// untouched into the final state capture (provably Latent).
  OutOfWindow,
};

const char* toString(PruneReason reason);

/// One equivalence class. `members` holds the collapsed experiment indices
/// only - the representative is not repeated there - so a class is worth
/// carrying exactly when `members` is non-empty.
struct PruneClass {
  std::uint64_t representative = 0;
  std::vector<std::uint64_t> members;
  PruneReason reason = PruneReason::DeadTarget;
  /// Human-readable name of the shared target (tool naming convention).
  std::string target;
  /// Inclusive golden-cycle window of injection instants this class covers;
  /// [-1, -1] when the class is not a contiguous window (e.g. the union of
  /// every overwrite-before-read instant of one flop).
  std::int64_t windowBegin = -1;
  std::int64_t windowEnd = -1;
};

/// A versioned pruning plan for one campaign spec.
struct PrunePlan {
  static constexpr const char* kSchema = "fades.prune/1";

  /// Echo of the spec the plan was derived for; consumers must verify it
  /// matches the spec they are about to run (specKey() equality).
  CampaignSpec spec;
  std::uint64_t runCycles = 0;
  std::uint64_t poolSize = 0;
  std::vector<PruneClass> classes;

  std::uint64_t collapsedCount() const;
  std::uint64_t executedCount() const {
    return spec.experiments - collapsedCount();
  }
  /// experiments-executed reduction: experiments / executed (1.0 = no win).
  double collapseFactor() const;
  std::uint64_t countForReason(PruneReason reason) const;

  /// Member lookup table: entry i is the class index that collapsed
  /// experiment i, or -1 when experiment i runs normally (representatives
  /// and singletons). Size spec.experiments.
  std::vector<std::int32_t> memberClassIndex() const;

  /// Structural sanity: indices in range, no experiment in two classes, no
  /// representative that is also a member. Throws FadesError on violation.
  void validate() const;
};

/// Canonical spec identity used to bind a plan to a campaign.
std::string specKey(const CampaignSpec& spec);

obs::Json toJson(const PrunePlan& plan);

/// The one-line collapse accounting summary (printed by campaign_8051 and
/// grepped by CI): experiment/executed/collapsed counts, the collapse
/// factor and the per-reason breakdown.
std::string accountingLine(const PrunePlan& plan);

}  // namespace fades::campaign
