#include "campaign/artifact.hpp"

#include <cstdint>

#include "obs/metrics.hpp"

namespace fades::campaign {

using obs::Json;

Json toJson(const DurationBand& band) {
  Json j = Json::object();
  j.set("label", Json(band.label));
  j.set("min_cycles", Json(band.minCycles));
  j.set("max_cycles", Json(band.maxCycles));
  return j;
}

Json toJson(const CampaignSpec& spec) {
  Json j = Json::object();
  j.set("model", Json(std::string(toString(spec.model))));
  j.set("targets", Json(std::string(toString(spec.targets))));
  j.set("unit", Json(static_cast<std::int64_t>(spec.unit)));
  j.set("band", toJson(spec.band));
  j.set("experiments", Json(static_cast<std::uint64_t>(spec.experiments)));
  j.set("seed", Json(static_cast<std::uint64_t>(spec.seed)));
  j.set("target_pool_size",
        Json(static_cast<std::uint64_t>(spec.targetPool.size())));
  return j;
}

bool specFromJson(const Json& j, CampaignSpec& out, std::string* error) {
  auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::string model;
  std::string targets;
  if (!j.get("model", model) || !faultModelFromString(model, out.model)) {
    return fail("spec has no valid fault model");
  }
  if (!j.get("targets", targets) ||
      !targetClassFromString(targets, out.targets)) {
    return fail("spec has no valid target class");
  }
  std::int64_t unit = 0;
  std::uint64_t experiments = 0;
  if (!j.get("unit", unit) || !j.get("experiments", experiments) ||
      !j.get("seed", out.seed)) {
    return fail("spec misses unit/experiments/seed");
  }
  out.unit = static_cast<int>(unit);
  out.experiments = static_cast<unsigned>(experiments);
  const Json* band = j.find("band");
  if (band == nullptr || !band->get("label", out.band.label) ||
      !band->get("min_cycles", out.band.minCycles) ||
      !band->get("max_cycles", out.band.maxCycles)) {
    return fail("spec has no valid duration band");
  }
  return true;
}

Json toJson(const ExperimentRecord& record) {
  Json j = Json::object();
  j.set("target", Json(record.targetName));
  j.set("component", Json(record.component));
  j.set("inject_cycle", Json(record.injectCycle));
  j.set("duration_cycles", Json(record.durationCycles));
  j.set("outcome", Json(std::string(toString(record.outcome))));
  j.set("modeled_seconds", Json(record.modeledSeconds));
  // Attribution fields are always present (-1 = not available) so the
  // record schema is byte-stable whether or not a trace was attached.
  j.set("pc", Json(record.pc));
  j.set("opcode", Json(record.opcode));
  j.set("detect_cycle", Json(record.detectCycle));
  // Only synthesized (pruned) records carry the provenance field, so
  // artifacts from unpruned campaigns are unchanged byte for byte.
  if (record.prunedFrom >= 0) j.set("pruned_from", Json(record.prunedFrom));
  return j;
}

bool recordFromJson(const Json& j, ExperimentRecord& out) {
  out = ExperimentRecord{};
  std::string outcome;
  if (!j.isObject() || !j.get("target", out.targetName) ||
      !j.get("inject_cycle", out.injectCycle) ||
      !j.get("duration_cycles", out.durationCycles) ||
      !j.get("outcome", outcome) ||
      !j.get("modeled_seconds", out.modeledSeconds)) {
    return false;
  }
  j.get("component", out.component);
  j.get("pc", out.pc);
  j.get("opcode", out.opcode);
  j.get("detect_cycle", out.detectCycle);
  j.get("pruned_from", out.prunedFrom);
  return outcomeFromString(outcome, out.outcome);
}

Json toJson(const CostBreakdown& cost) {
  Json j = Json::object();
  j.set("config_seconds", Json(cost.configSeconds));
  j.set("workload_seconds", Json(cost.workloadSeconds));
  j.set("host_seconds", Json(cost.hostSeconds));
  j.set("total_seconds", Json(cost.totalSeconds()));
  j.set("bytes_to_device", Json(cost.bytesToDevice));
  j.set("bytes_from_device", Json(cost.bytesFromDevice));
  j.set("sessions", Json(cost.sessions));
  return j;
}

namespace {

// Everything about a result except the per-experiment records, which the
// JSONL form carries as individual rows.
Json summaryJson(const CampaignResult& result) {
  Json j = Json::object();
  j.set("spec", toJson(result.spec));
  Json outcomes = Json::object();
  outcomes.set("failures", Json(static_cast<std::uint64_t>(result.failures)));
  outcomes.set("latents", Json(static_cast<std::uint64_t>(result.latents)));
  outcomes.set("silents", Json(static_cast<std::uint64_t>(result.silents)));
  outcomes.set("failure_pct", Json(result.failurePct()));
  outcomes.set("latent_pct", Json(result.latentPct()));
  outcomes.set("silent_pct", Json(result.silentPct()));
  j.set("outcomes", outcomes);
  Json seconds = Json::object();
  seconds.set("count",
              Json(static_cast<std::uint64_t>(result.modeledSeconds.count())));
  seconds.set("mean", Json(result.modeledSeconds.mean()));
  seconds.set("min", Json(result.modeledSeconds.min()));
  seconds.set("max", Json(result.modeledSeconds.max()));
  seconds.set("stddev", Json(result.modeledSeconds.stddev()));
  seconds.set("sum", Json(result.modeledSeconds.sum()));
  j.set("modeled_seconds", seconds);
  j.set("cost", toJson(result.cost));
  // Always present (an empty array when nothing was quarantined) so a
  // fault-free artifact and a faulted-but-fully-recovered artifact are
  // byte-identical.
  Json quarantined = Json::array();
  for (const auto& q : result.quarantined) {
    Json entry = Json::object();
    entry.set("index", Json(q.index));
    entry.set("kind", Json(std::string(common::toString(q.kind))));
    entry.set("error", Json(q.error));
    entry.set("attempts", Json(static_cast<std::uint64_t>(q.attempts)));
    quarantined.push(std::move(entry));
  }
  j.set("quarantined", std::move(quarantined));
  return j;
}

}  // namespace

Json toJson(const CampaignResult& result) {
  Json j = summaryJson(result);
  if (!result.records.empty()) {
    Json records = Json::array();
    for (const auto& r : result.records) records.push(toJson(r));
    j.set("records", records);
  }
  return j;
}

obs::RunArtifact toRunArtifact(const CampaignResult& result,
                               const std::string& name, bool includeMetrics) {
  obs::RunArtifact artifact("campaign", name);
  artifact.setSpec(toJson(result.spec));
  for (const auto& r : result.records) artifact.addRecord(toJson(r));
  artifact.setSection("summary", summaryJson(result));
  artifact.setCost(toJson(result.cost));
  if (includeMetrics) {
    artifact.setMetrics(obs::Registry::global().snapshotJson());
  }
  return artifact;
}

}  // namespace fades::campaign
