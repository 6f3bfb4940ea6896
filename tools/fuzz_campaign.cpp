// Differential-oracle fuzzer: FADES emulation vs VFIT simulation vs the
// golden ISS, over generated designs and injection specs.
//
// Modes:
//   fuzz_campaign --budget N --seed S     bounded fuzz run: N generated cases
//                                         from seeds S, S+1, ...; disagreements
//                                         are shrunk to minimal reproducers and
//                                         written as self-contained case files
//   fuzz_campaign --replay DIR            replay every *.json case in DIR (the
//                                         committed corpus); any violation
//                                         fails the run
//   fuzz_campaign --emit-corpus DIR       (re)generate the committed seed
//                                         corpus files into DIR
//
// Shared flags:
//   --jobs N          check cases (and shrink candidates) on N workers.
//                     Wall-clock only: reports, artifacts and reproducers are
//                     bit-identical for every N.
//   --artifact PATH   write a fades.run/1 artifact (one record per case, the
//                     diffcheck.* metrics, modeled-cost totals)
//   --out DIR         where fuzz mode writes shrunk reproducers
//                     (default diffcheck-failures)
//   --shrink-budget N oracle-call budget per shrink (default 120)
//   --quick           skip the determinism / retry-exclusion double-runs
//                     (halves fuzz cost; corpus replay keeps them on)
//
// Exit code: 0 = all cases agree, 1 = at least one violation, 2 = usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "diffcheck/corpus.hpp"
#include "diffcheck/gen.hpp"
#include "diffcheck/oracle.hpp"
#include "diffcheck/shrink.hpp"
#include "obs/artifact.hpp"
#include "obs/metrics.hpp"
#include "service/jobspec.hpp"

using namespace fades;
using diffcheck::CaseReport;
using diffcheck::CaseSpec;

namespace {

constexpr const char* kUsage =
    "usage: fuzz_campaign [--budget N] [--seed S] [--jobs N]\n"
    "                     [--shrink-budget N] [--out DIR] [--artifact PATH]\n"
    "                     [--quick]\n"
    "       fuzz_campaign --replay DIR [--jobs N] [--artifact PATH]\n"
    "       fuzz_campaign --emit-corpus DIR\n";

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr, "error: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Run `work(i)` for i in [0, n) on up to `jobs` concurrent workers,
/// returning results in index order regardless of completion order.
template <typename F>
auto inOrder(std::size_t n, unsigned jobs, F work) {
  using R = decltype(work(std::size_t{0}));
  std::vector<R> results;
  results.reserve(n);
  for (std::size_t base = 0; base < n; base += jobs) {
    const std::size_t end = std::min(n, base + jobs);
    std::vector<std::future<R>> batch;
    for (std::size_t i = base; i < end; ++i) {
      batch.push_back(std::async(std::launch::async, work, i));
    }
    for (auto& f : batch) results.push_back(f.get());
  }
  return results;
}

/// The diffcheck.* slice of the metrics registry. Only integer counters, so
/// the artifact is byte-identical at any --jobs (histogram float sums are
/// accumulation-order dependent and stay out).
obs::Json diffcheckMetrics() {
  obs::Json all = obs::Registry::global().snapshotJson();
  obs::Json out = obs::Json::object();
  if (const obs::Json* counters = all.find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      if (name.rfind("diffcheck.", 0) == 0) out.set(name, value);
    }
  }
  return out;
}

struct CheckedCase {
  CaseReport report;
  std::optional<diffcheck::ShrinkResult> shrink;
  std::string error;  // non-empty when the case raised instead of reporting
};

void printCase(const CheckedCase& cc) {
  if (!cc.error.empty()) {
    std::printf("ERROR %s: %s\n", cc.report.spec.name.c_str(),
                cc.error.c_str());
    return;
  }
  if (cc.report.ok()) {
    std::printf("ok    %s (%u experiments%s)\n", cc.report.spec.name.c_str(),
                cc.report.experiments, cc.report.vfitRan ? ", vfit" : "");
    return;
  }
  for (const auto& v : cc.report.violations) {
    std::printf("FAIL  %s [%s] %s\n", cc.report.spec.name.c_str(),
                v.rule.c_str(), v.detail.c_str());
  }
  if (cc.shrink.has_value()) {
    std::printf("      shrunk: %s (%u reductions, %u evaluations)\n",
                cc.shrink->minimal.describe().c_str(), cc.shrink->accepted,
                cc.shrink->evaluated);
  }
}

int writeArtifactAndSummarize(const std::string& mode,
                              const std::string& artifactPath,
                              const std::vector<CheckedCase>& cases,
                              obs::Json runSpec) {
  std::size_t failed = 0, errored = 0;
  double modeledSeconds = 0;
  for (const auto& cc : cases) {
    if (!cc.error.empty()) ++errored;
    else if (!cc.report.ok()) ++failed;
    modeledSeconds += cc.report.fadesModeledSeconds;
  }
  if (!artifactPath.empty()) {
    obs::RunArtifact artifact("diffcheck", mode);
    artifact.setSpec(std::move(runSpec));
    for (const auto& cc : cases) {
      obs::Json rec = cc.report.toJson();
      if (!cc.error.empty()) rec.set("error", obs::Json(cc.error));
      if (cc.shrink.has_value()) {
        obs::Json s = obs::Json::object();
        s.set("minimal", cc.shrink->minimal.toJson());
        s.set("violation", cc.shrink->violation.toJson());
        s.set("accepted", obs::Json(cc.shrink->accepted));
        s.set("evaluated", obs::Json(cc.shrink->evaluated));
        s.set("budget_exhausted", obs::Json(cc.shrink->budgetExhausted));
        rec.set("shrink", s);
      }
      artifact.addRecord(std::move(rec));
    }
    artifact.setMetrics(diffcheckMetrics());
    obs::Json cost = obs::Json::object();
    cost.set("fades_modeled_seconds", obs::Json(modeledSeconds));
    artifact.setCost(std::move(cost));
    artifact.writeJson(artifactPath);
  }
  std::printf("%zu cases, %zu disagreements, %zu errors\n", cases.size(),
              failed, errored);
  return failed + errored > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned budget = 50;
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  unsigned shrinkBudget = 120;
  bool quick = false;
  std::string replayDir, emitDir, artifactPath;
  std::string outDir = "diffcheck-failures";

  auto flagValue = [&](int& i, const char* flag) {
    if (i + 1 >= argc) usageError(std::string(flag) + " needs a value");
    return std::string(argv[++i]);
  };
  auto countFlag = [&](int& i, const char* flag) {
    const std::string text = flagValue(i, flag);
    unsigned value = 0;
    if (!service::parseCount(text, value)) {
      usageError(std::string(flag) + " expects a positive integer, got '" +
                 text + "'");
    }
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--budget") {
      budget = countFlag(i, "--budget");
    } else if (a == "--seed") {
      seed = countFlag(i, "--seed");
    } else if (a == "--jobs") {
      jobs = countFlag(i, "--jobs");
    } else if (a == "--shrink-budget") {
      shrinkBudget = countFlag(i, "--shrink-budget");
    } else if (a == "--replay") {
      replayDir = flagValue(i, "--replay");
    } else if (a == "--emit-corpus") {
      emitDir = flagValue(i, "--emit-corpus");
    } else if (a == "--out") {
      outDir = flagValue(i, "--out");
    } else if (a == "--artifact") {
      artifactPath = flagValue(i, "--artifact");
    } else if (a == "--quick") {
      quick = true;
    } else {
      usageError("unknown argument '" + a + "'");
    }
  }
  if (!replayDir.empty() && !emitDir.empty()) {
    usageError("--replay and --emit-corpus are mutually exclusive");
  }

  try {
    if (!emitDir.empty()) {
      std::filesystem::create_directories(emitDir);
      const auto corpus = diffcheck::seedCorpus();
      for (const auto& c : corpus) {
        diffcheck::saveCase(c, emitDir + "/" + c.name + ".json");
        std::printf("wrote %s/%s.json (%s)\n", emitDir.c_str(),
                    c.name.c_str(), c.describe().c_str());
      }
      std::printf("%zu corpus cases\n", corpus.size());
      return 0;
    }

    diffcheck::OracleOptions oracleOpt;
    if (quick) {
      oracleOpt.checkDeterminism = false;
      oracleOpt.checkRetryExclusion = false;
    }

    if (!replayDir.empty()) {
      // A vanished or empty corpus must read as a usage error (exit 2), not
      // as a clean zero-case replay - CI greps would otherwise pass on a
      // directory typo.
      std::error_code ec;
      if (!std::filesystem::is_directory(replayDir, ec)) {
        usageError("corpus directory not found: " + replayDir);
      }
      const auto files = diffcheck::listCorpusFiles(replayDir);
      if (files.empty()) usageError("no case files in " + replayDir);
      std::vector<CaseSpec> specs;
      for (const auto& f : files) specs.push_back(diffcheck::loadCase(f));
      const auto cases =
          inOrder(specs.size(), jobs, [&](std::size_t i) -> CheckedCase {
            CheckedCase cc;
            cc.report.spec = specs[i];
            try {
              cc.report = diffcheck::checkCase(specs[i], oracleOpt);
            } catch (const std::exception& e) {
              cc.error = e.what();
            }
            return cc;
          });
      for (const auto& cc : cases) printCase(cc);
      obs::Json runSpec = obs::Json::object();
      runSpec.set("mode", obs::Json("replay"));
      runSpec.set("corpus", obs::Json(replayDir));
      runSpec.set("cases", obs::Json(static_cast<std::uint64_t>(files.size())));
      return writeArtifactAndSummarize("replay", artifactPath, cases,
                                       std::move(runSpec));
    }

    // --- fuzz mode ---------------------------------------------------------
    // Phase 1: check the generated cases (case-parallel). Phase 2: shrink
    // the disagreements one at a time (candidate-parallel), so reproducers
    // come out identical at any job count.
    std::vector<CaseSpec> specs;
    specs.reserve(budget);
    for (unsigned i = 0; i < budget; ++i) {
      specs.push_back(diffcheck::generateCase(seed + i));
    }
    auto cases =
        inOrder(specs.size(), jobs, [&](std::size_t i) -> CheckedCase {
          CheckedCase cc;
          cc.report.spec = specs[i];
          try {
            cc.report = diffcheck::checkCase(specs[i], oracleOpt);
          } catch (const std::exception& e) {
            cc.error = e.what();
          }
          return cc;
        });
    bool wroteReproducer = false;
    for (auto& cc : cases) {
      if (cc.error.empty() && !cc.report.ok()) {
        const diffcheck::CaseOracle oracle = [&](const CaseSpec& s) {
          return diffcheck::checkCase(s, oracleOpt).violations;
        };
        diffcheck::ShrinkOptions sOpt;
        sOpt.jobs = jobs;
        sOpt.maxEvaluations = shrinkBudget;
        cc.shrink =
            diffcheck::shrinkCase(cc.report.spec, cc.report.violations.front(),
                                  oracle, sOpt);
        std::filesystem::create_directories(outDir);
        CaseSpec minimal = cc.shrink->minimal;
        minimal.name = cc.report.spec.name + "-min";
        diffcheck::saveCase(minimal, outDir + "/" + minimal.name + ".json");
        wroteReproducer = true;
      }
    }
    for (const auto& cc : cases) printCase(cc);
    if (wroteReproducer) {
      std::printf("reproducers written to %s/\n", outDir.c_str());
    }
    obs::Json runSpec = obs::Json::object();
    runSpec.set("mode", obs::Json("fuzz"));
    runSpec.set("budget", obs::Json(budget));
    runSpec.set("seed", obs::Json(seed));
    runSpec.set("shrink_budget", obs::Json(shrinkBudget));
    runSpec.set("quick", obs::Json(quick));
    return writeArtifactAndSummarize("fuzz", artifactPath, cases,
                                     std::move(runSpec));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
