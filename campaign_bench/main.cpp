// Campaign benchmark program: runs one MC8051 + Bubblesort workload as
// repeated end-to-end campaigns and reports what they took.
//
// Usage:
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --out DIR
//   campaign_bench --self-test
//
// A campaign goes the way campaign_8051 takes it: service::buildSystem,
// the prune plan when the workload prunes, ParallelCampaignRunner::run,
// the fades.run/1 artifact, then the fades.report/1 fold. Every campaign of
// a run uses the same spec, so each one is a repeat of the same work;
// campaigns repeat while the median so far still fits in --seconds.
//
// With --trace 1 campaigns alternate traced and untraced (starting
// traced). Traced campaigns record the benchmark's own spans around every
// layer call and fold the program's FADES phase spans into them; the layer
// metrics come from those, and trace.overhead_frac compares the two kinds.
//
// The last stdout line is one JSON document with every campaign's times and
// simulated statistics, the peak RSS and (traced) the layer metrics. run.py
// builds this program, applies the correctness gate and prints the
// benchmark result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analytics/analytics.hpp"
#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/prune_plan.hpp"
#include "campaign/report.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "service/jobspec.hpp"
#include "synth/implement.hpp"

namespace fs = std::filesystem;
using namespace fades;
using campaign::FaultModel;
using campaign::TargetClass;

namespace {

// The four workloads. Why each exists, and why BENCHMARK.json runs only
// three of them, is in README.md. Experiment counts are sized so that three
// whole campaigns fit in one run and a traced run's two traced campaigns
// give at least kP95Samples experiments or waves.
struct Workload {
  const char* name;
  const char* tool;    // fades | vfit
  const char* engine;  // event | compiled (vfit only)
  FaultModel model;
  TargetClass targets;
  unsigned experiments;
  unsigned jobs;
  bool prune;
  bool journal;
};

constexpr Workload kWorkloads[] = {
    {"fades-pulse-lut", "fades", "event", FaultModel::Pulse,
     TargetClass::CombinationalLut, 200, 1, false, false},
    {"fades-bitflip-mem", "fades", "event", FaultModel::BitFlip,
     TargetClass::MemoryBlockBit, 200, 1, false, false},
    {"fades-delay-seqline", "fades", "event", FaultModel::Delay,
     TargetClass::SequentialLine, 200, 1, false, false},
    {"vfit-prune-ff", "vfit", "compiled", FaultModel::BitFlip,
     TargetClass::SequentialFF, 20000, 2, true, true},
};

// The program's FADES phase spans (obs::Span names in core/fades.cpp).
constexpr const char* kPhases[] = {"locate", "inject", "emulate", "remove",
                                   "observe"};
constexpr std::size_t kPhaseCount = std::size(kPhases);

// A p95 needs this many samples so that at least ten lie beyond it.
constexpr std::size_t kP95Samples = 200;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: campaign_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n"
               "       campaign_bench --self-test\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& text, const char* what) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    usage(std::string(what) + " expects a non-negative integer, got '" +
          text + "'");
  }
  return std::stoull(text);
}

std::uint64_t nowMicros() { return obs::TraceBuffer::nowMicros(); }

double seconds(std::uint64_t from, std::uint64_t to) {
  return static_cast<double>(to - from) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

const std::string* spanArg(const obs::SpanRecord& s, const std::string& key) {
  for (const auto& a : s.args) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

service::JobSpec jobFor(const Workload& w, std::uint64_t seed) {
  service::JobSpec job;
  job.tool = w.tool;
  job.engine = w.engine;
  job.workload = "bubblesort6";
  job.prune = w.prune;
  // campaign_8051 keeps records whenever it writes an artifact.
  job.keepRecords = true;
  job.spec.model = w.model;
  job.spec.targets = w.targets;
  job.spec.band = campaign::DurationBand::shortBand();
  job.spec.experiments = w.experiments;
  job.spec.seed = seed;
  job.name = service::defaultName(job);
  return job;
}

// ---------------------------------------------------------------------------
// One end-to-end campaign
// ---------------------------------------------------------------------------

// obs::TraceBuffer::nowMicros() at each boundary of one campaign.
struct Stamps {
  std::uint64_t start = 0;     // job spec in hand
  std::uint64_t built = 0;     // service::buildSystem returned
  std::uint64_t planned = 0;   // prune plan derived (== built if none)
  std::uint64_t runStart = 0;  // ParallelCampaignRunner::run entered
  std::uint64_t dispatch = 0;  // first experiment or wave dispatched
  std::uint64_t runEnd = 0;    // run returned
  std::uint64_t written = 0;   // fades.run/1 artifact on disk
  std::uint64_t reported = 0;  // fades.report/1 folded and on disk
};

struct Campaign {
  bool traced = false;
  Stamps t;
  std::uint64_t experiments = 0;  // executed plus prune-synthesized
  std::uint64_t collapsed = 0;    // prune-synthesized
  std::uintmax_t artifactBytes = 0;
  obs::Json stats;  // simulated statistics for the correctness gate

  double timeToReport() const { return seconds(t.start, t.reported); }
  double setup() const { return seconds(t.start, t.dispatch); }
  double runSeconds() const { return seconds(t.runStart, t.runEnd); }
};

obs::Json statsOf(const campaign::CampaignResult& r, std::uint64_t collapsed) {
  obs::Json s = obs::Json::object();
  s.set("experiments", static_cast<std::uint64_t>(r.spec.experiments));
  s.set("folded", static_cast<std::uint64_t>(r.total()));
  s.set("failures", static_cast<std::uint64_t>(r.failures));
  s.set("latents", static_cast<std::uint64_t>(r.latents));
  s.set("silents", static_cast<std::uint64_t>(r.silents));
  s.set("quarantined", static_cast<std::uint64_t>(r.quarantined.size()));
  s.set("records", static_cast<std::uint64_t>(r.records.size()));
  s.set("modeled_s", r.modeledSeconds.sum());
  s.set("config_s", r.cost.configSeconds);
  s.set("workload_s", r.cost.workloadSeconds);
  s.set("host_s", r.cost.hostSeconds);
  s.set("bytes_to_device", r.cost.bytesToDevice);
  s.set("bytes_from_device", r.cost.bytesFromDevice);
  s.set("sessions", r.cost.sessions);
  s.set("prune_executed",
        static_cast<std::uint64_t>(r.spec.experiments) - collapsed);
  s.set("prune_collapsed", collapsed);
  return s;
}

Campaign runCampaign(const Workload& w, const service::JobSpec& job,
                     const fs::path& dir, obs::TraceBuffer* spans,
                     unsigned ordinal) {
  Campaign c;
  c.traced = spans != nullptr;
  Stamps& t = c.t;
  t.start = nowMicros();
  const auto system = service::buildSystem(job);
  t.built = nowMicros();

  campaign::ParallelOptions popt;  // campaign_8051's defaults, then --jobs
  popt.jobs = w.jobs;
  popt.progressInterval = 100;
  campaign::PrunePlan plan;
  if (job.prune) {
    plan = service::buildPrunePlan(*system);
    popt.prunePlan = &plan;
    c.collapsed = plan.collapsedCount();
  }
  t.planned = nowMicros();

  std::unique_ptr<campaign::CampaignJournal> journal;
  if (w.journal) {
    journal = std::make_unique<campaign::CampaignJournal>(
        (dir / "journal.jsonl").string());
    popt.journal = journal.get();
  }
  bench::Probe probe(spans, std::to_string(ordinal));
  campaign::ParallelCampaignRunner runner(probe.wrap(system->factory), popt);
  t.runStart = nowMicros();
  const campaign::CampaignResult result = runner.run(job.spec);
  t.runEnd = nowMicros();
  t.dispatch = probe.firstDispatchMicros();
  if (journal) journal->close();

  const fs::path artifactPath = dir / "artifact.json";
  campaign::toRunArtifact(result, job.name, /*includeMetrics=*/false)
      .writeJson(artifactPath.string());
  t.written = nowMicros();

  const auto report =
      analytics::buildReport(analytics::loadInputs({artifactPath.string()}));
  campaign::writeTextFile((dir / "report.json").string(),
                          analytics::toJson(report).dump(2) + "\n");
  t.reported = nowMicros();

  c.experiments = result.total() + result.quarantined.size();
  c.artifactBytes = fs::file_size(artifactPath);
  c.stats = statsOf(result, c.collapsed);
  return c;
}

// ---------------------------------------------------------------------------
// Layer breakdown of one traced campaign
// ---------------------------------------------------------------------------

struct Layers {
  double systemBuild = 0, prunePlan = 0, runnerRun = 0, runnerSetup = 0;
  double artifactWrite = 0, reportBuild = 0, timeToReport = 0, setup = 0;
  double replicaMax = 0, replicaSum = 0, busy = 0, synthesize = 0, idle = 0;
  double journalAppend = 0, artifactBytes = 0;
  double phase[kPhaseCount] = {};
  std::size_t phaseSpans = 0, orphanPhases = 0;
  std::uint64_t droppedProgramSpans = 0;
  double experimentSum = 0;
  double waves = 0, lanes = 0, laneSlots = 0;
  std::vector<double> experimentMs, waveMs;
  std::map<std::string, std::vector<double>> outcomeMs;
};

// Replays the campaign's committed journal lines through
// CampaignJournal::append into a second journal: the append cost alone,
// without the runner around it.
double journalReplaySeconds(const fs::path& dir,
                            const campaign::CampaignSpec& spec) {
  campaign::CampaignJournal source((dir / "journal.jsonl").string());
  source.open(spec, /*resume=*/true);
  const auto outcomes = source.completed();
  source.close();
  campaign::CampaignJournal replay((dir / "journal-replay.jsonl").string());
  replay.open(spec, /*resume=*/false);
  const std::uint64_t begin = nowMicros();
  for (const auto& [index, outcome] : outcomes) replay.append(outcome);
  const std::uint64_t end = nowMicros();
  replay.close();
  return seconds(begin, end);
}

Layers analyze(const Workload& w, const Campaign& c,
               const std::vector<obs::SpanRecord>& own,
               const std::vector<obs::SpanRecord>& program) {
  Layers l;
  const Stamps& t = c.t;
  l.systemBuild = seconds(t.start, t.built);
  l.prunePlan = seconds(t.built, t.planned);
  l.runnerRun = seconds(t.runStart, t.runEnd);
  l.runnerSetup = seconds(t.runStart, t.dispatch);
  l.artifactWrite = seconds(t.runEnd, t.written);
  l.reportBuild = seconds(t.written, t.reported);
  l.timeToReport = c.timeToReport();
  l.setup = c.setup();
  l.artifactBytes = static_cast<double>(c.artifactBytes);

  // Experiment spans per thread, ordered by start, for the phase fold.
  std::map<std::uint32_t, std::vector<const obs::SpanRecord*>> byThread;
  for (const auto& s : own) {
    const double sec = static_cast<double>(s.durMicros) / 1e6;
    if (s.name == "replica.build") {
      l.replicaMax = std::max(l.replicaMax, sec);
      l.replicaSum += sec;
    } else if (s.name == "experiment") {
      l.busy += sec;
      l.experimentSum += sec;
      l.experimentMs.push_back(sec * 1e3);
      if (const auto* o = spanArg(s, "outcome")) {
        l.outcomeMs[*o].push_back(sec * 1e3);
      }
      byThread[s.tid].push_back(&s);
    } else if (s.name == "wave") {
      l.busy += sec;
      l.waves += 1;
      if (const auto* n = spanArg(s, "count")) l.lanes += std::stod(*n);
      if (const auto* n = spanArg(s, "width")) l.laneSlots += std::stod(*n);
      l.waveMs.push_back(sec * 1e3);
    } else if (s.name == "synthesize") {
      l.synthesize += sec;
    }
  }
  for (auto& [tid, list] : byThread) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->beginMicros < b->beginMicros;
    });
  }
  for (const auto& s : program) {
    const auto* phase = std::find(std::begin(kPhases), std::end(kPhases),
                                  s.name);
    if (phase == std::end(kPhases)) continue;
    ++l.phaseSpans;
    // The enclosing experiment: the last one on this thread that started
    // at or before the phase, if the phase also ends inside it.
    const obs::SpanRecord* parent = nullptr;
    if (auto it = byThread.find(s.tid); it != byThread.end()) {
      const auto& list = it->second;
      auto after = std::upper_bound(
          list.begin(), list.end(), s.beginMicros,
          [](std::uint64_t b, const auto* e) { return b < e->beginMicros; });
      if (after != list.begin()) {
        const auto* e = *std::prev(after);
        if (s.beginMicros + s.durMicros <= e->beginMicros + e->durMicros) {
          parent = e;
        }
      }
    }
    if (parent == nullptr) {
      ++l.orphanPhases;
      continue;
    }
    l.phase[phase - std::begin(kPhases)] +=
        static_cast<double>(s.durMicros) / 1e6;
  }

  const unsigned workers = std::max(1u, std::min(w.jobs, w.experiments));
  l.idle = workers * l.runnerRun - l.replicaSum - l.busy - l.synthesize;
  return l;
}

// ---------------------------------------------------------------------------
// Run-level aggregation
// ---------------------------------------------------------------------------

double meanOf(const std::vector<Layers>& ls, double Layers::*field) {
  double sum = 0;
  for (const auto& l : ls) sum += l.*field;
  return ls.empty() ? 0.0 : sum / static_cast<double>(ls.size());
}

std::vector<double> pooled(const std::vector<Layers>& ls,
                           std::vector<double> Layers::*field) {
  std::vector<double> all;
  for (const auto& l : ls) {
    all.insert(all.end(), (l.*field).begin(), (l.*field).end());
  }
  return all;
}

struct LayerReport {
  obs::Json metrics = obs::Json::object();
  std::vector<std::string> absent;    // metrics with nothing to report
  std::vector<std::string> failures;  // accounting checks that did not close
  obs::Json shape = obs::Json::object();
};

LayerReport layerReport(const Workload& w,
                        const std::vector<Campaign>& campaigns,
                        const std::vector<Layers>& ls, double implementSec) {
  LayerReport r;
  obs::Json& m = r.metrics;
  const bool fades = std::string(w.tool) == "fades";
  const bool vfit = std::string(w.tool) == "vfit";

  // Per-campaign quantities are means over the traced campaigns (means keep
  // the accounting sums exact); per-call timings pool every traced call.
  m.set("system.build_s", meanOf(ls, &Layers::systemBuild));
  m.set("synth.implement_s", implementSec);
  m.set("replica.build_s", meanOf(ls, &Layers::replicaMax));
  m.set("prune.plan_s", w.prune ? meanOf(ls, &Layers::prunePlan) : 0.0);
  const std::uint64_t collapsed = campaigns.front().collapsed;
  m.set("prune.executed",
        static_cast<std::uint64_t>(w.experiments) - collapsed);
  m.set("prune.collapsed", collapsed);

  // Every percentile comes with its sample count. With no samples (a layer
  // the workload does not run, an outcome class that did not occur) it
  // reads 0 with a count of 0; a p95 of a layer the workload runs is absent
  // unless ten samples lie beyond it.
  auto percentiles = [&](const std::string& prefix,
                         const std::vector<double>& samples, bool applies,
                         bool withP95) {
    m.set(prefix + "_n", static_cast<std::uint64_t>(samples.size()));
    m.set(prefix + "_ms_p50", samples.empty() ? 0.0 : quantile(samples, 0.5));
    if (!withP95) return;
    if (!applies) {
      m.set(prefix + "_ms_p95", 0.0);
    } else if (samples.size() < kP95Samples) {
      r.absent.push_back(prefix + "_ms_p95");
    } else {
      m.set(prefix + "_ms_p95", quantile(samples, 0.95));
    }
  };
  const auto experimentMs = pooled(ls, &Layers::experimentMs);
  percentiles("fades.experiment", experimentMs, fades, true);
  for (const auto o : {campaign::Outcome::Silent, campaign::Outcome::Latent,
                       campaign::Outcome::Failure}) {
    const std::string name = campaign::toString(o);
    std::vector<double> samples;
    for (const auto& l : ls) {
      if (auto it = l.outcomeMs.find(name); it != l.outcomeMs.end()) {
        samples.insert(samples.end(), it->second.begin(), it->second.end());
      }
    }
    percentiles("fades." + name, samples, fades, false);
  }

  // FADES phases: the program's own spans folded under the benchmark's
  // experiment spans. Absent, not zero, when a FADES workload ran
  // experiments but the program recorded no phase spans.
  const double experimentSum = meanOf(ls, &Layers::experimentSum);
  std::size_t phaseSpans = 0, orphans = 0;
  std::uint64_t dropped = 0;
  for (const auto& l : ls) {
    phaseSpans += l.phaseSpans;
    orphans += l.orphanPhases;
    dropped += l.droppedProgramSpans;
  }
  const bool phasesMissing = fades && phaseSpans == 0;
  double phaseSum = 0;
  double phase[kPhaseCount] = {};
  for (std::size_t k = 0; k < kPhaseCount; ++k) {
    for (const auto& l : ls) phase[k] += l.phase[k];
    phase[k] /= static_cast<double>(ls.size());
    phaseSum += phase[k];
    const std::string name = std::string("fades.") + kPhases[k] + "_s";
    if (phasesMissing) {
      r.absent.push_back(name);
    } else {
      m.set(name, phase[k]);
    }
  }
  const double unattributed = experimentSum - phaseSum;
  if (phasesMissing) {
    r.absent.push_back("fades.unattributed_s");
  } else {
    m.set("fades.unattributed_s", unattributed);
  }

  percentiles("vfit.wave", pooled(ls, &Layers::waveMs), vfit, true);
  const double waves = meanOf(ls, &Layers::waves);
  const double lanes = meanOf(ls, &Layers::lanes);
  const double laneSlots = meanOf(ls, &Layers::laneSlots);
  const double laneFill = laneSlots == 0 ? 0.0 : lanes / laneSlots;
  m.set("vfit.waves", waves);
  m.set("vfit.lane_fill", laneFill);

  m.set("runner.run_s", meanOf(ls, &Layers::runnerRun));
  m.set("runner.setup_s", meanOf(ls, &Layers::runnerSetup));
  m.set("runner.busy_s", meanOf(ls, &Layers::busy));
  m.set("runner.idle_s", meanOf(ls, &Layers::idle));
  m.set("runner.synthesize_s", meanOf(ls, &Layers::synthesize));
  m.set("journal.append_s", meanOf(ls, &Layers::journalAppend));
  m.set("artifact.write_s", meanOf(ls, &Layers::artifactWrite));
  m.set("artifact.bytes", meanOf(ls, &Layers::artifactBytes));
  m.set("report.build_s", meanOf(ls, &Layers::reportBuild));

  std::vector<double> traced, untraced;
  for (const auto& c : campaigns) {
    (c.traced ? traced : untraced).push_back(c.timeToReport());
  }
  if (untraced.empty()) {
    r.absent.push_back("trace.overhead_frac");
  } else {
    m.set("trace.overhead_frac", median(traced) / median(untraced) - 1.0);
  }

  // Accounting. The timeline partition: setup_s and runner.run_s both
  // contain the in-run replica set-up (runner.setup_s), so it is counted
  // once.
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const Layers& l = ls[i];
    const double sum = l.setup + l.runnerRun - l.runnerSetup +
                       l.artifactWrite + l.reportBuild;
    if (std::abs(sum - l.timeToReport) > 0.05 * l.timeToReport) {
      r.failures.push_back(
          "traced campaign " + std::to_string(i) + ": setup_s + runner.run_s"
          " - runner.setup_s + artifact.write_s + report.build_s = " +
          std::to_string(sum) + " s against time_to_report_s " +
          std::to_string(l.timeToReport) + " s");
    }
  }
  if (fades && !phasesMissing) {
    if (dropped != 0) {
      r.failures.push_back(std::to_string(dropped) +
                           " program spans were evicted from the trace ring "
                           "during traced campaigns");
    }
    if (orphans != 0) {
      r.failures.push_back(std::to_string(orphans) +
                           " FADES phase spans lie outside every experiment "
                           "span");
    }
    // Whole-microsecond spans: allow one microsecond per phase span.
    const double slack = 1e-6 * static_cast<double>(phaseSpans) /
                         static_cast<double>(ls.size());
    if (unattributed < -slack || unattributed > 0.05 * experimentSum) {
      r.failures.push_back("fades.unattributed_s = " +
                           std::to_string(unattributed) + " s of " +
                           std::to_string(experimentSum) +
                           " s of experiment time (must lie in [0, 5%])");
    }
  }

  // The shape the benchmark was written against (README.md): reported, not
  // enforced, since an optimisation is expected to change it.
  const double observe = phase[4];
  const double inject = phase[1], remove = phase[3];
  if (fades && !phasesMissing) {
    const double largestOther = std::max({phase[0], phase[1], phase[2],
                                          phase[3]});
    r.shape.set("observe_largest_phase", observe > largestOther);
    r.shape.set("inject_plus_remove_exceeds_observe",
                inject + remove > observe);
    r.shape.set("observe_share",
                experimentSum == 0 ? 0.0 : observe / experimentSum);
    r.shape.set("inject_remove_share",
                experimentSum == 0 ? 0.0 : (inject + remove) / experimentSum);
  }
  if (vfit) r.shape.set("lane_fill_below_half", laneFill < 0.5);
  return r;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Measurement run
// ---------------------------------------------------------------------------

int measure(const Workload& w, std::uint64_t seed, double budgetSeconds,
            bool trace, const fs::path& out) {
  const service::JobSpec job = jobFor(w, seed);
  obs::TraceBuffer ownSpans(1u << 20);
  obs::TraceBuffer archive(1u << 22);  // every traced span, written at exit
  auto stamp = [&](const char* name, std::uint64_t begin, std::uint64_t end,
                   unsigned k) {
    archive.record({name, begin, end - begin, 0,
                    {{"campaign", std::to_string(k)}}});
  };
  std::vector<Campaign> campaigns;
  std::vector<Layers> layers;
  double implementSec = 0;

  // Campaign k starts while the median campaign so far still fits, after a
  // minimum of three (one with an untraced --seconds 0). A traced run
  // alternates traced and untraced campaigns, starting traced, so it has
  // two traced campaigns and one untraced one at least.
  const unsigned minimum = !trace && budgetSeconds == 0 ? 1 : 3;
  const std::uint64_t begin = nowMicros();
  for (unsigned k = 0;; ++k) {
    if (k >= minimum) {
      std::vector<double> ttr;
      for (const auto& c : campaigns) ttr.push_back(c.timeToReport());
      if (seconds(begin, nowMicros()) + median(ttr) > budgetSeconds) break;
    }
    const bool traced = trace && k % 2 == 0;
    if (traced) {
      ownSpans.clear();
      obs::TraceBuffer::global().clear();
    }
    campaigns.push_back(
        runCampaign(w, job, out, traced ? &ownSpans : nullptr, k));
    const Campaign& c = campaigns.back();
    if (!traced) continue;

    const auto own = ownSpans.snapshot();
    const auto program = obs::TraceBuffer::global().snapshot();
    Layers l = analyze(w, c, own, program);
    l.droppedProgramSpans = obs::TraceBuffer::global().dropped();
    if (w.journal) l.journalAppend = journalReplaySeconds(out, job.spec);
    layers.push_back(std::move(l));

    // Campaign-level spans go on thread 0 of the Chrome trace.
    const Stamps& t = c.t;
    stamp("system.build", t.start, t.built, k);
    if (job.prune) stamp("prune.plan", t.built, t.planned, k);
    stamp("campaign.run", t.runStart, t.runEnd, k);
    stamp("artifact.write", t.runEnd, t.written, k);
    stamp("report.build", t.written, t.reported, k);
    for (const auto* list : {&own, &program}) {
      for (const auto& s : *list) archive.record(s);
    }
  }

  obs::Json doc = obs::Json::object();
  doc.set("workload", w.name);
  doc.set("seed", seed);
  doc.set("trace", trace);
  doc.set("jobs", w.jobs);
  doc.set("experiments", w.experiments);
  doc.set("compiler", kCompiler);
  obs::Json list = obs::Json::array();
  for (const auto& c : campaigns) {
    obs::Json e = obs::Json::object();
    e.set("traced", c.traced);
    e.set("time_to_report_s", c.timeToReport());
    e.set("setup_s", c.setup());
    e.set("run_s", c.runSeconds());
    e.set("experiments", c.experiments);
    e.set("experiments_per_s",
          static_cast<double>(c.experiments) / c.runSeconds());
    e.set("stats", c.stats);
    list.push(std::move(e));
  }
  doc.set("campaigns", std::move(list));

  if (trace) {
    // A standalone synthesis of the same netlist, outside every campaign.
    // The netlist does not depend on the injector, and a vfit build of the
    // job makes it without synthesizing it first.
    if (std::string(w.tool) == "fades") {
      service::JobSpec netlistJob = job;
      netlistJob.tool = "vfit";
      const auto system = service::buildSystem(netlistJob);
      const std::uint64_t t0 = nowMicros();
      const auto impl = synth::implement(system->netlist,
                                         fpga::DeviceSpec::virtex1000Like());
      const std::uint64_t t1 = nowMicros();
      implementSec = seconds(t0, t1);
      stamp("synth.implement", t0, t1, campaigns.size());
    }
    const LayerReport r = layerReport(w, campaigns, layers, implementSec);
    doc.set("layers", r.metrics);
    obs::Json absent = obs::Json::array();
    for (const auto& a : r.absent) absent.push(a);
    doc.set("absent", std::move(absent));
    obs::Json failures = obs::Json::array();
    for (const auto& f : r.failures) failures.push(f);
    doc.set("accounting_failures", std::move(failures));
    doc.set("shape", r.shape);
    campaign::writeTextFile((out / "trace.json").string(),
                            archive.chromeTraceJson().dump() + "\n");
  }
  doc.set("peak_rss_mb", peakRssMb());
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Decorator transparency self-test
// ---------------------------------------------------------------------------

// Runs each case on the fast demo system twice - straight through the
// system's factory and through a tracing Probe - and requires the same
// artifact text (tallies, cost totals, records, quarantine list). The cases
// between them reach every forwarded call: per-experiment runs, waves,
// prune synthesis and, through an unreliable link, recover().
int selfTest() {
  struct Case {
    const char* name;
    const char* tool;
    const char* engine;
    FaultModel model;
    TargetClass targets;
    double linkFaultRate;
    bool prune;
  };
  const Case cases[] = {
      {"fades-pulse-lut", "fades", "event", FaultModel::Pulse,
       TargetClass::CombinationalLut, 0.0, false},
      {"fades-bitflip-ff-link-faults", "fades", "event", FaultModel::BitFlip,
       TargetClass::SequentialFF, 0.7, false},
      {"vfit-compiled-prune-ff", "vfit", "compiled", FaultModel::BitFlip,
       TargetClass::SequentialFF, 0.0, true},
  };
  bool ok = true;
  obs::Json report = obs::Json::array();
  for (const Case& k : cases) {
    service::JobSpec job;
    job.tool = k.tool;
    job.engine = k.engine;
    job.workload = "demo";
    job.prune = k.prune;
    job.linkFaultRate = k.linkFaultRate;
    job.spec.model = k.model;
    job.spec.targets = k.targets;
    job.spec.experiments = 300;
    job.spec.seed = 2006;
    job.name = k.name;
    const auto system = service::buildSystem(job);
    campaign::PrunePlan plan;
    campaign::ParallelOptions popt;
    popt.jobs = 2;
    if (k.prune) {
      plan = service::buildPrunePlan(*system);
      popt.prunePlan = &plan;
    }
    const auto plain =
        campaign::ParallelCampaignRunner(system->factory, popt).run(job.spec);
    obs::TraceBuffer spans(1u << 16);
    bench::Probe probe(&spans, "self-test");
    const auto probed =
        campaign::ParallelCampaignRunner(probe.wrap(system->factory), popt)
            .run(job.spec);

    std::map<std::string, std::uint64_t> calls;
    for (const auto& s : spans.snapshot()) ++calls[s.name];
    const bool same = service::artifactText(job, plain) ==
                      service::artifactText(job, probed);
    // Each case must actually have gone through the calls it is meant to
    // cover, or its equality proves nothing.
    bool covered = calls["replica.build"] == popt.jobs &&
                   probe.firstDispatchMicros() != 0;
    if (k.prune) covered = covered && calls["synthesize"] > 0;
    if (std::string(k.engine) == "compiled") {
      covered = covered && calls["wave"] > 0;
    } else {
      covered = covered && calls["experiment"] > 0;
    }
    if (k.linkFaultRate > 0) covered = covered && probe.recoveries() > 0;
    ok = ok && same && covered;

    obs::Json e = obs::Json::object();
    e.set("case", k.name);
    e.set("identical", same);
    e.set("covered", covered);
    e.set("failures", static_cast<std::uint64_t>(probed.failures));
    e.set("latents", static_cast<std::uint64_t>(probed.latents));
    e.set("silents", static_cast<std::uint64_t>(probed.silents));
    e.set("quarantined",
          static_cast<std::uint64_t>(probed.quarantined.size()));
    e.set("recoveries", probe.recoveries());
    obs::Json counts = obs::Json::object();
    for (const auto& [name, n] : calls) counts.set(name, n);
    e.set("spans", std::move(counts));
    e.set("config_s", probed.cost.configSeconds);
    e.set("bytes_to_device", probed.cost.bytesToDevice);
    report.push(std::move(e));
  }
  obs::Json doc = obs::Json::object();
  doc.set("self_test", ok);
  doc.set("cases", std::move(report));
  std::printf("%s\n", doc.dump().c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, outDir;
  std::uint64_t seed = 2006;
  double budget = 10;
  bool trace = false, self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = parseUnsigned(value(), "--seed");
    } else if (a == "--seconds") {
      budget = static_cast<double>(parseUnsigned(value(), "--seconds"));
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      trace = v == "1";
    } else if (a == "--out") {
      outDir = value();
    } else if (a == "--self-test") {
      self = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  try {
    if (self) return selfTest();
    if (outDir.empty()) usage("--out is required");
    fs::create_directories(outDir);
    for (const Workload& w : kWorkloads) {
      if (workload == w.name) return measure(w, seed, budget, trace, outDir);
    }
    usage("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
