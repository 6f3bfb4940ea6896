// Campaign <-> observability bridge: serialize campaign specs, results and
// per-experiment records into the obs JSON model, and package a whole
// campaign as a versioned RunArtifact for offline analysis.
#pragma once

#include <string>

#include "campaign/types.hpp"
#include "obs/artifact.hpp"
#include "obs/json.hpp"

namespace fades::campaign {

obs::Json toJson(const DurationBand& band);
obs::Json toJson(const CampaignSpec& spec);
/// Inverse of toJson(CampaignSpec), shared by the job-spec and prune-plan
/// readers; the written target_pool_size is informational and not read
/// back. False, with the reason in *error when given, if a field is
/// missing or invalid.
bool specFromJson(const obs::Json& j, CampaignSpec& out, std::string* error);
obs::Json toJson(const ExperimentRecord& record);

/// Inverse of toJson(ExperimentRecord), shared by the journal reader and
/// the analytics artifact loader. The attribution fields (component, pc,
/// opcode, detect_cycle) are optional: records written before vulnerability
/// analytics lack them and keep their defaults.
bool recordFromJson(const obs::Json& j, ExperimentRecord& out);
obs::Json toJson(const CostBreakdown& cost);
/// Full result: spec, outcome tallies/percentages, modeled-seconds summary,
/// cost decomposition and (when kept) per-experiment records.
obs::Json toJson(const CampaignResult& result);

/// Package one campaign as a `fades.run/1` artifact named `name`, with the
/// current global metrics snapshot attached. Pass includeMetrics = false to
/// omit the snapshot: it is process telemetry (replica setup, scheduling),
/// not campaign output, and is the one section that varies with `--jobs`.
obs::RunArtifact toRunArtifact(const CampaignResult& result,
                               const std::string& name,
                               bool includeMetrics = true);

}  // namespace fades::campaign
