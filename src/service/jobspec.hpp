// Campaign job specification for the distributed service.
//
// A JobSpec names everything a worker needs to rebuild the exact campaign
// system the submitter meant: the workload (which fixes netlist and run
// length), the injection tool, the campaign spec proper, and the
// execution knobs that are allowed to vary results (keepRecords changes the
// artifact's record list, so it is part of the job identity; jobs counts
// are not - they only change wall-clock - and therefore do not appear
// here).
//
// The fingerprint is the FNV-1a64 of the spec's canonical JSON dump. It is
// the job's identity everywhere: the journal filename in the store, the key
// workers cache built systems under, and the check that a lease and its
// completion talk about the same campaign. Everything a worker computes is a
// pure function of (JobSpec, experiment index), which is what makes the
// coordinator's merged artifact byte-identical to a single-process
// `campaign_8051 --jobs 1` run of the same spec: both paths build their
// engines through the same buildSystem() below.
#pragma once

#include <climits>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "campaign/parallel.hpp"
#include "campaign/prune_plan.hpp"
#include "campaign/types.hpp"
#include "netlist/netlist.hpp"
#include "obs/json.hpp"
#include "synth/implement.hpp"

namespace fades::service {

struct JobSpec {
  /// Injector: "fades" (run-time reconfiguration), "vfit" (simulator
  /// commands) or "autonomous" (compiled-in injection support).
  std::string tool = "fades";
  /// Ignored: the tool fixes its engine, and toJson writes that name in the
  /// field's place. Remains only while campaign_bench still assigns it.
  std::string engine = "event";
  /// Workload/system: "bubblesort6" (MC8051 + 6-element bubblesort, the
  /// paper's set-up) or "demo" (a tiny multi-unit design for fast tests).
  std::string workload = "bubblesort6";
  /// Model, target class, unit, duration band, experiment count and seed.
  campaign::CampaignSpec spec;
  /// Link-fault rate for the fades tool's board link (0 = reliable link).
  double linkFaultRate = 0.0;
  /// Keep per-experiment records (and, for MC8051 workloads, attach the
  /// golden-run instruction trace for PC attribution).
  bool keepRecords = true;
  /// Liveness-based fault-list pruning: workers fold each campaign through
  /// a fades.prune/1 plan (derived deterministically from this spec), run
  /// one representative per equivalence class and synthesize the collapsed
  /// members from it. Changes the artifact's records (pruned members carry
  /// `pruned_from`), so it is part of the job identity; serialized only
  /// when set, keeping every pre-pruning fingerprint stable.
  bool prune = false;
  /// Artifact name; empty derives the campaign_8051 convention
  /// (model_targets_unit) via defaultName().
  std::string name;
};

/// The canonical JSON. Its "engine" is the one the tool runs on: "event"
/// for fades, "compiled" for vfit and autonomous; jobSpecFromJson rejects
/// any other.
obs::Json toJson(const JobSpec& job);
bool jobSpecFromJson(const obs::Json& j, JobSpec& out,
                     std::string* error = nullptr);

/// Raises InvalidArgument on a job no tool can run: unknown tool/workload
/// names, a zero experiment count, or inconsistent combinations (delay
/// faults without fades, link faults without fades, ...). Jobs are checked
/// where they enter: both CLIs, Coordinator::submit and the leasing worker.
void validate(const JobSpec& job);

/// The campaign_8051 artifact naming convention: model_targets_unit using
/// the CLI argument spellings (e.g. "bitflip_ff_any").
std::string defaultName(const JobSpec& job);

/// Set spec's model, target class, unit and duration band from the
/// campaign_8051 argument spellings: model bitflip | pulse | delay | indet,
/// targets ff | memory | lut | seqline | combline, unit any | registers |
/// ram | alu | mem | fsm, band sub | short | long. Raises InvalidArgument
/// naming the first word that is none of these.
void applyCampaignWords(const std::string& model, const std::string& targets,
                        const std::string& unit, const std::string& band,
                        campaign::CampaignSpec& spec);

/// Whole-text number parses for the CLIs: a decimal integer in [lo, hi]
/// (by default a positive one that fits `unsigned`), and a probability in
/// [0, 1). False (and `out` untouched) for anything else - a sign, trailing
/// characters, overflow, an empty string.
bool parseCount(const std::string& text, unsigned& out, unsigned lo = 1,
                unsigned hi = UINT_MAX);
bool parseRate(const std::string& text, double& out);

/// Canonical job identity: fnv1a64Hex of toJson(job).dump().
std::string fingerprint(const JobSpec& job);

/// Experiments one engine call of the job's tool runs: 1 for fades, one
/// bit-parallel wave (kWaveExperiments) for vfit and autonomous. The
/// coordinator leases each campaign in blocks of this width, so a lease is
/// one wave. Equals buildSystem(job)->factory()->waveWidth() without
/// building anything.
unsigned waveWidth(const JobSpec& job);

/// A fully built campaign system. Owns the netlist (and, for the fades
/// tool, the implementation) that the engine factory captures by reference,
/// so keep the system alive as long as engines built from `factory` run.
struct CampaignSystem {
  JobSpec job;
  std::uint64_t runCycles = 0;
  netlist::Netlist netlist;
  std::optional<synth::Implementation> impl;
  campaign::EngineFactory factory;
  /// Output ports defining Failure for this workload - what the tools
  /// observe, and what the prune analysis treats as externally visible.
  std::vector<std::string> observedOutputs;
};

/// Build the system for `job`, checking only the tool and workload names it
/// builds from (validate() decides whether the campaign can run), so a job
/// moved onto another tool to reuse its netlist still builds. Both the
/// distributed worker and the single-process reference CLI construct engines
/// through this one function, so "distributed equals single-process
/// byte-for-byte" holds by construction.
std::shared_ptr<CampaignSystem> buildSystem(const JobSpec& job);

/// The merged fades.run/1 artifact text for a completed campaign: exactly
/// what RunArtifact::writeJson produces for toRunArtifact(result, name,
/// includeMetrics=false) - the byte-identity target of the service.
std::string artifactText(const JobSpec& job,
                         const campaign::CampaignResult& result);

/// The single plan-construction path for job.prune: record the golden trace
/// of the system's workload and fold the campaign through
/// prune::buildPlan with the tool's own decoder/namer. A pure function of
/// the JobSpec, so every worker (and the single-process CLI) derives the
/// identical plan. Requires tool fades or vfit.
campaign::PrunePlan buildPrunePlan(const CampaignSystem& sys);

}  // namespace fades::service
