// Fault-injection campaign on the MC8051 microcontroller, configurable from
// the command line - the closest analogue of the paper's FADES experiments
// set-up tool (Figure 9).
//
// Usage:
//   campaign_8051 [--tool fades|vfit|autonomous]
//                 [--jobs N|auto] [--link-faults R]
//                 [--checkpoint FILE] [--resume] [--fsync]
//                 [--prune] [--prune-plan FILE]
//                 [model] [targets] [unit] [faults] [band] [artifact.json]
//     --tool   which injector runs the campaign: fades (run-time
//              reconfiguration on the emulated FPGA, the default), vfit
//              (simulator commands on the HDL model) or autonomous
//              (injection support compiled into the design - masks, shadow
//              state and single-cycle restore; zero configuration bytes
//              per injection). vfit and autonomous run 63 experiments per
//              bit-parallel wave and cannot inject delay faults.
//     --jobs N shard the campaign across N worker threads, each with its
//              own device replica ("auto" = one per hardware thread; env
//              FADES_JOBS is the fallback; default 1). Changes wall-clock
//              only: outcomes, records, modeled times and the written
//              artifact are bit-identical for every N.
//     --link-faults R emulate an unreliable board link: each transfer hits
//              a readback CRC mismatch / transient write failure with
//              probability R (and a timeout with R/10), retried with
//              bounded exponential backoff. Deterministic per campaign
//              seed, and the artifact stays byte-identical to a fault-free
//              run (persistent failures quarantine the experiment).
//     --checkpoint FILE append every completed experiment to a crash-safe
//              JSONL journal; with --resume, journaled experiments are
//              folded back in instead of re-run, producing an artifact
//              byte-identical to an uninterrupted run.
//     --resume requires --checkpoint; tolerates a torn trailing journal
//              line from a killed run.
//     --fsync  fsync the journal after every record (power-loss
//              durability; default flushes to the OS only).
//     --prune  liveness-based fault-list pruning: derive a fades.prune/1
//              plan from the golden run, execute one representative per
//              provably-equivalent class and synthesize the collapsed
//              members from it. Outcome totals, records and the written
//              artifact stay byte-identical to the unpruned campaign
//              (collapsed records additionally carry `pruned_from`); only
//              the executed-experiment count - and so wall-clock - drops.
//              Requires --tool fades or vfit and no --link-faults.
//     --prune-plan FILE with --prune, also write the derived plan JSON
//              (equivalence classes + collapse accounting) to FILE.
//     model    bitflip | pulse | delay | indet        (default bitflip)
//     targets  ff | memory | lut | seqline | combline  (default ff)
//     unit     any | registers | ram | alu | mem | fsm (default any)
//     faults   experiment count, > 0                   (default 200)
//     band     sub | short | long                      (default short)
//     artifact write a fades.run/1 JSON (or .jsonl) run artifact here,
//              with one record per experiment
//
// Example: ./build/examples/campaign_8051 --jobs 8 pulse lut alu 300 long
//          run.json
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/prune_plan.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "obs/artifact.hpp"
#include "service/jobspec.hpp"

using namespace fades;

namespace {

constexpr const char* kUsage =
    "usage: campaign_8051 [--tool fades|vfit|autonomous]\n"
    "                     [--jobs N|auto] [--link-faults R]\n"
    "                     [--checkpoint FILE] [--resume] [--fsync]\n"
    "                     [--prune] [--prune-plan FILE]\n"
    "                     [model] [targets] [unit] [faults] [band]\n"
    "                     [artifact.json]\n"
    "  model   bitflip | pulse | delay | indet         (default bitflip)\n"
    "  targets ff | memory | lut | seqline | combline  (default ff)\n"
    "  unit    any | registers | ram | alu | mem | fsm (default any)\n"
    "  faults  experiment count, > 0                   (default 200)\n"
    "  band    sub | short | long                      (default short)\n";

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Strict positive-integer parse: rejects empty input, non-digits, zero and
/// overflow instead of inheriting strtoul's silent 0 / wraparound.
unsigned parsePositive(const std::string& text, const char* what) {
  unsigned value = 0;
  if (!service::parseCount(text, value)) {
    usageError(std::string(what) + " expects a positive integer, got '" +
               text + "'");
  }
  return value;
}

/// Worker count: a positive integer, or "auto" for one per hardware thread.
unsigned parseJobs(const std::string& text, const char* what) {
  if (text == "auto") return 0;  // runner resolves 0 to hardware concurrency
  return parsePositive(text, what);
}

double parseRate(const std::string& text, const char* what) {
  double value = 0.0;
  if (!service::parseRate(text, value)) {
    usageError(std::string(what) + " expects a probability in [0, 1), got '" +
               text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags may appear anywhere; everything else is positional.
  unsigned jobs = 1;
  double linkFaultRate = 0.0;
  std::string checkpointPath;
  bool resume = false;
  bool fsyncEachRecord = false;
  bool prune = false;
  std::string prunePlanPath;
  std::string toolArg = "fades";
  if (const char* env = std::getenv("FADES_JOBS")) {
    jobs = parseJobs(env, "FADES_JOBS");
  }
  std::vector<std::string> positional;
  auto flagValue = [&](int& i, const char* flag) {
    if (i + 1 >= argc) usageError(std::string(flag) + " needs a value");
    return std::string(argv[++i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--jobs") {
      jobs = parseJobs(flagValue(i, "--jobs"), "--jobs");
    } else if (a == "--link-faults") {
      linkFaultRate = parseRate(flagValue(i, "--link-faults"), "--link-faults");
    } else if (a == "--checkpoint") {
      checkpointPath = flagValue(i, "--checkpoint");
    } else if (a == "--resume") {
      resume = true;
    } else if (a == "--fsync") {
      fsyncEachRecord = true;
    } else if (a == "--prune") {
      prune = true;
    } else if (a == "--prune-plan") {
      prunePlanPath = flagValue(i, "--prune-plan");
      prune = true;
    } else if (a == "--tool") {
      toolArg = flagValue(i, "--tool");
    } else if (!a.empty() && a[0] == '-') {
      usageError("unknown flag '" + a + "'");
    } else {
      positional.push_back(a);
    }
  }
  if (resume && checkpointPath.empty()) {
    usageError("--resume requires --checkpoint FILE");
  }
  if (positional.size() > 6) {
    usageError("too many positional arguments");
  }
  auto arg = [&](std::size_t i, const char* def) {
    return i < positional.size() ? positional[i] : std::string(def);
  };
  const std::string modelArg = arg(0, "bitflip");
  const std::string targetArg = arg(1, "ff");
  const std::string unitArg = arg(2, "any");
  const unsigned faults = parsePositive(arg(3, "200"), "faults");
  const std::string bandArg = arg(4, "short");
  const std::string artifactPath = arg(5, "");

  // The job spec is the same structure the distributed service ships to
  // workers, validated by the same rules, and the system is built through
  // the same service::buildSystem - so "coordinator + workers" and "this CLI
  // at --jobs 1" produce artifacts that are byte-identical by construction,
  // not by parallel maintenance of two setups.
  service::JobSpec job;
  job.tool = toolArg;
  job.workload = "bubblesort6";
  job.linkFaultRate = linkFaultRate;
  job.prune = prune;
  // Console detail only for small campaigns, but an artifact request keeps
  // the per-experiment records regardless so the JSON carries every row.
  job.keepRecords = faults <= 40 || !artifactPath.empty();
  job.spec.experiments = faults;
  job.spec.seed = 2006;
  try {
    service::applyCampaignWords(modelArg, targetArg, unitArg, bandArg,
                                job.spec);
    service::validate(job);
  } catch (const common::FadesError& e) {
    usageError(e.what());
  }
  job.name = service::defaultName(job);
  const campaign::CampaignSpec& spec = job.spec;

  std::printf("Building the MC8051 + Bubblesort system...\n");
  const auto system = service::buildSystem(job);

  // Both jobs paths run every experiment through the same stateless
  // per-index derivation, so the runner yields bit-identical results for
  // any worker count - only the wall-clock changes.
  campaign::ParallelOptions popt;
  popt.jobs = jobs;
  popt.progressInterval = 100;
  campaign::PrunePlan plan;
  if (prune) {
    std::printf("Deriving the fault-list prune plan from the golden run...\n");
    plan = service::buildPrunePlan(*system);
    std::printf("%s\n", campaign::accountingLine(plan).c_str());
    if (!prunePlanPath.empty()) {
      try {
        obs::writeFile(prunePlanPath, campaign::toJson(plan).dump(2) + "\n");
      } catch (const common::FadesError& e) {
        std::fprintf(stderr, "error: cannot write prune plan: %s\n",
                     e.what());
        return 1;
      }
      std::printf("Wrote prune plan: %s (%zu classes)\n",
                  prunePlanPath.c_str(), plan.classes.size());
    }
    popt.prunePlan = &plan;
  }
  std::unique_ptr<campaign::CampaignJournal> journal;
  if (!checkpointPath.empty()) {
    journal = std::make_unique<campaign::CampaignJournal>(
        checkpointPath, fsyncEachRecord ? campaign::FsyncPolicy::EachRecord
                                        : campaign::FsyncPolicy::Never);
    popt.journal = journal.get();
    popt.resume = resume;
  }
  campaign::ParallelCampaignRunner runner(system->factory, popt);

  std::printf("Running %u %s faults on %s",
              spec.experiments, campaign::toString(spec.model),
              campaign::toString(spec.targets));
  std::printf(" (tool %s, unit %s, duration %s cycles, %u worker%s)...\n",
              toolArg.c_str(), unitArg.c_str(), spec.band.label.c_str(),
              runner.jobs(), runner.jobs() == 1 ? "" : "s");
  const auto result = runner.run(spec);

  std::printf("\nResults of %zu experiments:\n", result.total());
  std::printf("  failures: %5zu (%.2f %%)\n", result.failures,
              result.failurePct());
  std::printf("  latent:   %5zu (%.2f %%)\n", result.latents,
              result.latentPct());
  std::printf("  silent:   %5zu (%.2f %%)\n", result.silents,
              result.silentPct());
  std::printf("  modeled emulation time: %.3f s/fault (total %.0f s for the "
              "campaign)\n",
              result.modeledSeconds.mean(), result.modeledSeconds.sum());
  if (!result.quarantined.empty()) {
    std::printf("  quarantined: %zu experiment(s) after persistent transient "
                "errors:\n",
                result.quarantined.size());
    for (const auto& q : result.quarantined) {
      std::printf("    #%llu  %s (%u attempts): %s\n",
                  static_cast<unsigned long long>(q.index),
                  common::toString(q.kind), q.attempts, q.error.c_str());
    }
  }
  if (faults <= 40) {
    for (const auto& r : result.records) {
      std::printf("    cycle %5llu  %-10s  dur %5.2f  %s\n",
                  static_cast<unsigned long long>(r.injectCycle),
                  r.targetName.c_str(), r.durationCycles,
                  campaign::toString(r.outcome));
    }
  }
  if (!artifactPath.empty()) {
    // Exclude the process metrics snapshot: it reflects replica setup and
    // scheduling, which would break the artifact's --jobs byte-identity.
    const auto artifact =
        campaign::toRunArtifact(result, job.name, /*includeMetrics=*/false);
    // Don't let a bad path abort after minutes of campaign: report and fail.
    try {
      if (artifactPath.size() > 6 &&
          artifactPath.substr(artifactPath.size() - 6) == ".jsonl") {
        artifact.writeJsonl(artifactPath);
      } else {
        artifact.writeJson(artifactPath);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("Wrote run artifact: %s (%zu records)\n",
                artifactPath.c_str(), artifact.recordCount());
  }
  return 0;
}
