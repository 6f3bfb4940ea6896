// Four-way differential oracle: FADES emulation vs VFIT simulation vs the
// autonomous-emulation backend vs the golden ISS reference.
//
// checkCase() rebuilds a case's design, implements it, runs the identical
// injection campaign through the tools (over explicitly aligned target
// pools where a bit-level correspondence exists) and applies structural
// agreement rules:
//
//   golden.trace-agree     fault-free FADES and VFIT traces match word-for-word
//   golden.iss-agree       the emulated core's final port word matches the ISS
//   golden.autonomous-agree the autonomous instrumentation is transparent:
//                          with controls at 0 the instrumented model's trace
//                          equals the golden run cycle-for-cycle
//   draw.agree             aligned campaigns draw the same (cycle, duration)
//   outcome.bitflip-agree  bit-flips on FFs / memory bits classify identically
//   outcome.autonomous-agree every autonomous experiment matches VFIT's
//                          draw, target and classification field-for-field
//   cost.decomposition     modeledSeconds == config + workload + host exactly,
//                          all components and meter readings non-negative
//   cost.workload          workload seconds = runCycles / fpgaClockHz exactly
//   cost.autonomous-decomposition same exact-sum rule for the autonomous
//                          meters, plus zero configuration bytes moved
//   run.deterministic      re-running an experiment is bit-identical
//   retry.exclusion        a faulty board link never changes outcomes or cost
//   tally.consistent       outcome tallies sum to the experiment count
//
// Exact per-experiment outcome equality against FADES is only asserted where
// the fault semantics is exact on both sides (bit-flips; the paper's Table 3
// shows pulse / indetermination populations legitimately differ between the
// device-level and the model-level view, and VFIT cannot inject delays).
// Autonomous-vs-VFIT agreement is asserted for EVERY supported model: the
// two share the fault semantics by construction, so any divergence is a bug.
#pragma once

#include <string>
#include <vector>

#include "campaign/types.hpp"
#include "diffcheck/case_spec.hpp"
#include "obs/json.hpp"

namespace fades::diffcheck {

/// One failed agreement rule. `rule` is a stable identifier (the shrinker
/// reduces a case while preserving the rule id); `detail` is diagnostics.
struct Violation {
  std::string rule;
  std::string detail;

  obs::Json toJson() const;
};

struct OracleOptions {
  /// Re-run experiment 0 and require a bit-identical ExperimentOutcome.
  bool checkDeterminism = true;
  /// Re-run experiment 0 against a deliberately unreliable board link and
  /// require identical outcome and modeled cost (RTL cases only: the second
  /// tool instance would double an MC8051 case's multi-second setup).
  bool checkRetryExclusion = true;
};

/// Per-case verdict plus enough summary data for reports and artifacts.
struct CaseReport {
  CaseSpec spec;
  std::vector<Violation> violations;
  unsigned experiments = 0;
  std::size_t fadesFailures = 0, fadesLatents = 0, fadesSilents = 0;
  std::size_t vfitFailures = 0, vfitLatents = 0, vfitSilents = 0;
  std::size_t autonomousFailures = 0, autonomousLatents = 0,
              autonomousSilents = 0;
  double fadesModeledSeconds = 0;
  double autonomousModeledSeconds = 0;
  bool vfitRan = false;
  bool autonomousRan = false;

  bool ok() const { return violations.empty(); }
  /// Self-contained JSON: the case spec plus the verdict, so a report file
  /// alone suffices to reproduce the run.
  obs::Json toJson() const;
};

/// Run the full oracle on one case. Pure function of (spec, options) - a
/// given case always produces the identical report, which is what makes
/// corpus replay and shrinking deterministic at any job count. Bumps the
/// diffcheck.* metrics as a side effect.
CaseReport checkCase(const CaseSpec& c, const OracleOptions& opt = {});

}  // namespace fades::diffcheck
