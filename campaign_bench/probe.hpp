// Call-boundary instrumentation for the campaign benchmark.
//
// ProbedEngine decorates a campaign::CampaignEngine. Every call is forwarded
// unchanged to the wrapped engine, so a campaign run through it yields the
// same outcomes, records and modeled cost as one run without it (the
// benchmark's --self-test checks exactly that). What the decorator adds is
// timing taken from outside the library:
//  - always: the instant the first experiment or wave is dispatched, which
//    closes the campaign's set-up window (one relaxed atomic load per call);
//  - when tracing: one "replica.build" span per factory call and one
//    "experiment", "wave" or "synthesize" span per engine call, recorded
//    through obs::Span into the probe's own obs::TraceBuffer. They therefore
//    share the clock and the thread ids of the program's own FADES phase
//    spans, which is what lets the benchmark fold those phases under the
//    experiment that ran them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "campaign/parallel.hpp"
#include "obs/trace.hpp"

namespace fades::bench {

class Probe {
 public:
  /// `spans` null means untraced: only the first dispatch is stamped.
  /// `campaign` tags every span of this campaign (the request identifier
  /// that ties a call to its enclosing campaign.run).
  Probe(obs::TraceBuffer* spans, std::string campaign);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// Factory whose engines are ProbedEngines around `inner`'s engines. The
  /// probe must outlive every engine the returned factory builds.
  campaign::EngineFactory wrap(campaign::EngineFactory inner);

  bool tracing() const { return spans_ != nullptr; }
  obs::TraceBuffer& spans() { return *spans_; }
  const std::string& campaign() const { return campaign_; }

  /// Called on every engine call; stamps the first one.
  void dispatched();
  /// obs::TraceBuffer::nowMicros() of the first dispatch; 0 if none.
  std::uint64_t firstDispatchMicros() const {
    return firstDispatch_.load(std::memory_order_acquire);
  }
  /// recover() calls forwarded so far (the self-test checks the retry path
  /// really went through the decorator).
  unsigned recoveries() const {
    return recoveries_.load(std::memory_order_relaxed);
  }
  void countRecovery() { recoveries_.fetch_add(1, std::memory_order_relaxed); }

 private:
  obs::TraceBuffer* spans_;
  std::string campaign_;
  std::atomic<unsigned> workers_{0};
  std::atomic<std::uint64_t> firstDispatch_{0};
  std::atomic<unsigned> recoveries_{0};
};

class ProbedEngine final : public campaign::CampaignEngine {
 public:
  ProbedEngine(std::unique_ptr<campaign::CampaignEngine> inner, Probe& probe,
               unsigned worker);

  std::vector<std::uint32_t> enumeratePool(
      const campaign::CampaignSpec& spec) override;
  campaign::ExperimentOutcome runExperimentAt(
      const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index, unsigned rerun) override;
  std::vector<campaign::ExperimentOutcome> runWaveAt(
      const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
      std::span<const unsigned> indices, unsigned rerun) override;
  unsigned waveWidth() const override;
  campaign::ExperimentOutcome synthesizeOutcome(
      const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
      unsigned index,
      const campaign::ExperimentOutcome& representative) override;
  void recover() override;

 private:
  std::unique_ptr<campaign::CampaignEngine> inner_;
  Probe& probe_;
  std::string worker_;
};

}  // namespace fades::bench
