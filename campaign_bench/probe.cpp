#include "probe.hpp"

#include <utility>

namespace fades::bench {

Probe::Probe(obs::TraceBuffer* spans, std::string campaign)
    : spans_(spans), campaign_(std::move(campaign)) {}

campaign::EngineFactory Probe::wrap(campaign::EngineFactory inner) {
  return [this, inner = std::move(inner)]()
             -> std::unique_ptr<campaign::CampaignEngine> {
    const unsigned worker = workers_.fetch_add(1, std::memory_order_relaxed);
    if (!tracing()) {
      return std::make_unique<ProbedEngine>(inner(), *this, worker);
    }
    obs::Span span{"replica.build",
                   {{"campaign", campaign_},
                    {"worker", std::to_string(worker)}},
                   *spans_};
    return std::make_unique<ProbedEngine>(inner(), *this, worker);
  };
}

void Probe::dispatched() {
  if (firstDispatch_.load(std::memory_order_relaxed) != 0) return;
  std::uint64_t expected = 0;
  firstDispatch_.compare_exchange_strong(expected,
                                         obs::TraceBuffer::nowMicros(),
                                         std::memory_order_acq_rel);
}

ProbedEngine::ProbedEngine(std::unique_ptr<campaign::CampaignEngine> inner,
                           Probe& probe, unsigned worker)
    : inner_(std::move(inner)), probe_(probe),
      worker_(std::to_string(worker)) {}

std::vector<std::uint32_t> ProbedEngine::enumeratePool(
    const campaign::CampaignSpec& spec) {
  return inner_->enumeratePool(spec);
}

campaign::ExperimentOutcome ProbedEngine::runExperimentAt(
    const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, unsigned rerun) {
  probe_.dispatched();
  if (!probe_.tracing()) {
    return inner_->runExperimentAt(spec, pool, index, rerun);
  }
  obs::Span span{"experiment",
                 {{"campaign", probe_.campaign()},
                  {"parent", "campaign.run"},
                  {"worker", worker_},
                  {"index", std::to_string(index)},
                  {"rerun", std::to_string(rerun)}},
                 probe_.spans()};
  campaign::ExperimentOutcome out =
      inner_->runExperimentAt(spec, pool, index, rerun);
  span.setArg("outcome", campaign::toString(out.outcome));
  return out;
}

std::vector<campaign::ExperimentOutcome> ProbedEngine::runWaveAt(
    const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
    std::span<const unsigned> indices, unsigned rerun) {
  probe_.dispatched();
  if (!probe_.tracing()) {
    return inner_->runWaveAt(spec, pool, indices, rerun);
  }
  obs::Span span{"wave",
                 {{"campaign", probe_.campaign()},
                  {"parent", "campaign.run"},
                  {"worker", worker_},
                  {"index", indices.empty() ? std::string("-")
                                            : std::to_string(indices[0])},
                  {"count", std::to_string(indices.size())},
                  {"width", std::to_string(inner_->waveWidth())},
                  {"rerun", std::to_string(rerun)}},
                 probe_.spans()};
  return inner_->runWaveAt(spec, pool, indices, rerun);
}

unsigned ProbedEngine::waveWidth() const { return inner_->waveWidth(); }

campaign::ExperimentOutcome ProbedEngine::synthesizeOutcome(
    const campaign::CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, const campaign::ExperimentOutcome& representative) {
  if (!probe_.tracing()) {
    return inner_->synthesizeOutcome(spec, pool, index, representative);
  }
  obs::Span span{"synthesize",
                 {{"campaign", probe_.campaign()},
                  {"parent", "campaign.run"},
                  {"index", std::to_string(index)}},
                 probe_.spans()};
  return inner_->synthesizeOutcome(spec, pool, index, representative);
}

void ProbedEngine::recover() {
  probe_.countRecovery();
  inner_->recover();
}

}  // namespace fades::bench
