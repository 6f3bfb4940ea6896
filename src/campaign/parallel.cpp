#include "campaign/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "campaign/journal.hpp"
#include "campaign/prune_plan.hpp"
#include "common/error.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace fades::campaign {

using common::ErrorKind;
using common::require;

namespace {

unsigned resolveJobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

// ---------------------------------------------------------------------------
// CampaignEngine
// ---------------------------------------------------------------------------

ExperimentOutcome CampaignEngine::synthesizeOutcome(
    const CampaignSpec& /*spec*/, std::span<const std::uint32_t> /*pool*/,
    unsigned /*index*/, const ExperimentOutcome& /*representative*/) {
  throw common::FadesError(ErrorKind::InvalidArgument,
                           "this campaign engine does not support "
                           "fades.prune/1 plans");
}

// ---------------------------------------------------------------------------
// ProgressTracker
// ---------------------------------------------------------------------------

ProgressTracker::ProgressTracker(std::string model, std::uint64_t total,
                                 std::uint64_t interval)
    : model_(std::move(model)),
      total_(total),
      interval_(interval),
      start_(std::chrono::steady_clock::now()),
      gauge_(obs::Registry::global().gauge("campaign.progress_pct")) {
  gauge_.set(0.0);
}

void ProgressTracker::record(const ExperimentOutcome& outcome) {
  if (interval_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  if (outcome.quarantined) {
    ++quarantined_;
  } else {
    switch (outcome.outcome) {
      case Outcome::Failure: ++failures_; break;
      case Outcome::Latent: ++latents_; break;
      case Outcome::Silent: ++silents_; break;
    }
    modeledSum_ += outcome.modeledSeconds;
  }
  if (done_ % interval_ != 0 && done_ != total_) return;
  emitLocked();
}

void ProgressTracker::heartbeat() {
  std::lock_guard<std::mutex> lock(mu_);
  emitLocked();
}

void ProgressTracker::emitLocked() {
  gauge_.set(total_ == 0 ? 100.0 : 100.0 * done_ / total_);
  // ETA from observed rates: wall-clock extrapolates elapsed time per
  // completed experiment, modeled extrapolates the accumulated per-fault
  // board seconds (quarantined experiments carry no modeled cost, so they
  // feed the wall rate only). With no completions - a heartbeat firing
  // before the first experiment lands - there is no rate to extrapolate,
  // and the fields carry a literal null instead of a division by zero.
  const std::uint64_t remaining = total_ > done_ ? total_ - done_ : 0;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const bool haveWallRate = done_ != 0 && elapsed > 0.0;
  const double etaWall =
      haveWallRate ? elapsed / static_cast<double>(done_) *
                         static_cast<double>(remaining)
                   : 0.0;
  const std::uint64_t tallied = failures_ + latents_ + silents_;
  const double etaModeled =
      tallied == 0 ? 0.0
                   : modeledSum_ / static_cast<double>(tallied) *
                         static_cast<double>(remaining);
  FADES_LOG(Info) << "campaign progress" << obs::kv("model", model_)
                  << obs::kv("done", done_) << obs::kv("total", total_)
                  << obs::kv("failures", failures_)
                  << obs::kv("latents", latents_)
                  << obs::kv("silents", silents_)
                  << obs::kv("quarantined", quarantined_)
                  << obs::kv("modeled_s", modeledSum_)
                  << (haveWallRate ? obs::kv("eta_wall_s", etaWall)
                                   : obs::kv("eta_wall_s", "null"))
                  << (tallied != 0 ? obs::kv("eta_modeled_s", etaModeled)
                                   : obs::kv("eta_modeled_s", "null"));
}

// ---------------------------------------------------------------------------
// runExperimentWithRetry / runLease / materializeMember
// ---------------------------------------------------------------------------

ExperimentOutcome runExperimentWithRetry(CampaignEngine& engine,
                                         const CampaignSpec& spec,
                                         std::span<const std::uint32_t> pool,
                                         unsigned index,
                                         obs::Counter& quarantineCounter) {
  for (unsigned rerun = 0;; ++rerun) {
    try {
      ExperimentOutcome outcome =
          engine.runExperimentAt(spec, pool, index, rerun);
      outcome.index = index;
      outcome.attempts = rerun + 1;
      return outcome;
    } catch (const common::FadesError& err) {
      if (!common::isTransientError(err.kind())) throw;
      engine.recover();
      if (rerun + 1 >= kExperimentAttempts) {
        ExperimentOutcome outcome;
        outcome.index = index;
        outcome.quarantined = true;
        outcome.failureKind = err.kind();
        outcome.failureMessage = err.what();
        outcome.attempts = rerun + 1;
        quarantineCounter.inc();
        return outcome;
      }
    }
  }
}

bool runLease(CampaignEngine& engine, const CampaignSpec& spec,
              std::span<const std::uint32_t> pool,
              std::span<const unsigned> indices,
              obs::Counter& quarantineCounter, const OutcomeSink& done) {
  const std::size_t width = std::max(1u, engine.waveWidth());
  for (std::size_t base = 0; base < indices.size(); base += width) {
    const auto wave =
        indices.subspan(base, std::min(width, indices.size() - base));
    // Wave path first: one batched call. A width of 1 or a transient error
    // leaves `outs` empty, which sends the wave down the per-experiment
    // retry/quarantine path.
    std::vector<ExperimentOutcome> outs;
    if (width > 1) {
      try {
        outs = engine.runWaveAt(spec, pool, wave, 0);
        require(outs.size() == wave.size(), ErrorKind::InvalidArgument,
                "engine wave returned wrong outcome count");
        for (std::size_t i = 0; i < wave.size(); ++i) {
          outs[i].index = wave[i];
          outs[i].attempts = 1;
        }
      } catch (const common::FadesError& err) {
        if (!common::isTransientError(err.kind())) throw;
        engine.recover();
        outs.clear();
      }
    }
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (!done(outs.empty() ? runExperimentWithRetry(engine, spec, pool,
                                                      wave[i],
                                                      quarantineCounter)
                             : std::move(outs[i]))) {
        return false;
      }
    }
  }
  return true;
}

ExperimentOutcome materializeMember(
    CampaignEngine& engine, const CampaignSpec& spec,
    std::span<const std::uint32_t> pool, unsigned index,
    const ExperimentOutcome& representative, obs::Counter& quarantineCounter) {
  if (representative.quarantined) {
    return runExperimentWithRetry(engine, spec, pool, index,
                                  quarantineCounter);
  }
  ExperimentOutcome outcome =
      engine.synthesizeOutcome(spec, pool, index, representative);
  outcome.index = index;
  outcome.attempts = 0;
  obs::Registry::global().counter("campaign.pruned_experiments").inc();
  return outcome;
}

// ---------------------------------------------------------------------------
// ParallelCampaignRunner
// ---------------------------------------------------------------------------

ParallelCampaignRunner::ParallelCampaignRunner(EngineFactory factory,
                                               ParallelOptions options)
    : factory_(std::move(factory)),
      opt_(options),
      jobs_(resolveJobs(options.jobs)) {
  require(static_cast<bool>(factory_), ErrorKind::InvalidArgument,
          "parallel campaign runner needs an engine factory");
}

void ParallelCampaignRunner::ensureEngines(unsigned count) {
  if (engines_.size() >= count) return;
  const std::size_t have = engines_.size();
  engines_.resize(count);
  // Build the missing replicas concurrently: each factory call pays the
  // one-time setup (bitstream download + golden run), so replica setup
  // scales with the worker count instead of serializing in front of it.
  std::vector<std::thread> builders;
  std::mutex errMu;
  std::exception_ptr firstError;
  for (std::size_t w = have; w < count; ++w) {
    builders.emplace_back([this, w, &errMu, &firstError] {
      try {
        engines_[w] = factory_();
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMu);
        if (!firstError) firstError = std::current_exception();
      }
    });
  }
  for (auto& t : builders) t.join();
  if (firstError) {
    engines_.resize(have);
    std::rethrow_exception(firstError);
  }
  for (const auto& engine : engines_) {
    require(engine != nullptr, ErrorKind::InvalidArgument,
            "engine factory returned null");
  }
}

CampaignResult ParallelCampaignRunner::run(const CampaignSpec& spec) {
  const unsigned workers =
      std::max(1u, std::min(jobs_, std::max(1u, spec.experiments)));
  ensureEngines(workers);
  std::vector<CampaignEngine*> replicas;
  for (unsigned w = 0; w < workers; ++w) replicas.push_back(engines_[w].get());
  return runCampaign(spec, replicas, opt_);
}

// ---------------------------------------------------------------------------
// runCampaign
// ---------------------------------------------------------------------------

CampaignResult runCampaign(const CampaignSpec& spec,
                           const std::vector<CampaignEngine*>& replicas,
                           const ParallelOptions& options) {
  require(!replicas.empty(), ErrorKind::InvalidArgument,
          "a campaign needs at least one engine replica");
  const unsigned workers = static_cast<unsigned>(replicas.size());
  CampaignEngine& first = *replicas[0];

  obs::Span campaignSpan{"campaign",
                         {{"model", toString(spec.model)},
                          {"targets", toString(spec.targets)},
                          {"jobs", std::to_string(workers)}}};
  const std::vector<std::uint32_t> pool = first.enumeratePool(spec);

  std::vector<ExperimentOutcome> outcomes(spec.experiments);
  ProgressTracker progress(toString(spec.model), spec.experiments,
                           options.progressInterval);

  // Checkpoint/resume: journaled outcomes are folded back in without being
  // re-run, so a resumed campaign produces artifacts byte-identical to an
  // uninterrupted one (every outcome is a pure function of (spec, index)
  // and the fold order is index order either way).
  std::vector<char> alreadyDone(spec.experiments, 0);
  if (options.journal != nullptr) {
    options.journal->open(spec, options.resume);
    std::uint64_t resumed = 0;
    for (const auto& [index, outcome] : options.journal->completed()) {
      if (index >= spec.experiments) continue;
      outcomes[index] = outcome;
      alreadyDone[index] = 1;
      ++resumed;
      progress.record(outcome);
    }
    if (resumed != 0) {
      obs::Registry::global()
          .counter("campaign.resumed_experiments")
          .add(resumed);
      FADES_LOG(Info) << "campaign resume"
                      << obs::kv("journal", options.journal->path())
                      << obs::kv("resumed", resumed)
                      << obs::kv("total", spec.experiments);
    }
  }

  // Fault-list pruning: collapsed members never reach the worker loop.
  // They are synthesized from their representatives after the workers
  // finish (unless the journal already materialized them on a previous
  // run), so only the plan's executedCount() experiments execute.
  std::vector<char> fromJournal;
  if (options.prunePlan != nullptr) {
    const PrunePlan& plan = *options.prunePlan;
    plan.validate();
    require(specKey(plan.spec) == specKey(spec), ErrorKind::InvalidArgument,
            "prune plan was derived for a different campaign spec");
    require(plan.poolSize == pool.size(), ErrorKind::InvalidArgument,
            "prune plan was derived for a different target pool");
    fromJournal = alreadyDone;
    for (const auto& cls : plan.classes) {
      for (const std::uint64_t m : cls.members) alreadyDone[m] = 1;
    }
  }

  // Lease waveWidth()-wide slices of the experiments still to run, so
  // resumed and collapsed indices leave no hole in a wave. Wave composition
  // cannot change outcomes, only wall-clock.
  std::vector<unsigned> todo;
  for (unsigned e = 0; e < spec.experiments; ++e) {
    if (!alreadyDone[e]) todo.push_back(e);
  }
  const std::size_t leaseWidth = std::max(1u, first.waveWidth());
  obs::Counter& cQuarantined =
      obs::Registry::global().counter("campaign.quarantined");
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex errMu;
  std::exception_ptr firstError;

  const OutcomeSink record = [&](ExperimentOutcome outcome) {
    if (options.journal != nullptr) options.journal->append(outcome);
    progress.record(outcome);
    outcomes[outcome.index] = std::move(outcome);
    return !abort.load(std::memory_order_relaxed);
  };
  auto workerLoop = [&](unsigned w) {
    try {
      while (!abort.load(std::memory_order_relaxed)) {
        const std::size_t base =
            next.fetch_add(leaseWidth, std::memory_order_relaxed);
        if (base >= todo.size()) break;
        const std::span<const unsigned> lease(
            todo.data() + base, std::min(leaseWidth, todo.size() - base));
        runLease(*replicas[w], spec, pool, lease, cQuarantined, record);
      }
    } catch (...) {
      abort.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(errMu);
      if (!firstError) firstError = std::current_exception();
    }
  };

  if (workers == 1) {
    workerLoop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) threads.emplace_back(workerLoop, w);
    for (auto& t : threads) t.join();
  }
  if (firstError) std::rethrow_exception(firstError);

  // Materialize the collapsed members. Synthesis is cheap (no execution),
  // so running it single-threaded on the first replica after the join keeps
  // the journal append order race-free.
  if (options.prunePlan != nullptr) {
    for (const auto& cls : options.prunePlan->classes) {
      for (const std::uint64_t m : cls.members) {
        if (fromJournal[m]) continue;  // resumed from a previous run
        record(materializeMember(first, spec, pool,
                                 static_cast<unsigned>(m),
                                 outcomes[cls.representative], cQuarantined));
      }
    }
  }

  // Merge in experiment-index order, whatever ran where, so sums and stats
  // come out bit-identical for any replica count.
  CampaignResult result;
  result.spec = spec;
  for (const auto& outcome : outcomes) result.fold(outcome);
  return result;
}

}  // namespace fades::campaign
