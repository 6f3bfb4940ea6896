// Machine-readable run artifacts.
//
// A RunArtifact is the versioned on-disk record of one run - a fault
// campaign, a bench binary, an ad-hoc experiment. It carries the spec that
// produced the run, the per-experiment records, a metrics snapshot and the
// cost-model breakdown, and serializes either as one pretty-printed JSON
// document or as JSONL (header line, one line per record, summary line) for
// streaming consumers. The schema string gates compatibility: consumers
// check "fades.run/1" before trusting field layout.
#pragma once

#include <string>

#include "obs/json.hpp"

namespace fades::obs {

class RunArtifact {
 public:
  static constexpr const char* kSchema = "fades.run/1";

  /// `kind` classifies the producer ("campaign", "bench", ...); `name`
  /// identifies the run within the kind.
  RunArtifact(std::string kind, std::string name);

  void setSpec(Json spec) { spec_ = std::move(spec); }
  void addRecord(Json record) { records_.push(std::move(record)); }
  void setMetrics(Json metrics) { metrics_ = std::move(metrics); }
  void setCost(Json cost) { cost_ = std::move(cost); }
  /// Attach an additional named section (tables, trace, notes, ...).
  void setSection(const std::string& key, Json value);

  std::size_t recordCount() const { return records_.size(); }

  /// Single-document form: schema, kind, name, spec, records, metrics,
  /// cost, then extra sections in insertion order.
  Json toJson() const;

  /// Streaming form: {"schema",...,"spec"} header line, {"record": ...} per
  /// experiment, {"metrics","cost",...} summary line.
  std::string toJsonl() const;

  void writeJson(const std::string& path, int indent = 2) const;
  void writeJsonl(const std::string& path) const;

 private:
  std::string kind_;
  std::string name_;
  Json spec_;
  Json records_ = Json::array();
  Json metrics_;
  Json cost_;
  Json sections_ = Json::object();
};

/// Write text to a file, crash-safe (tmp + rename): the one writer behind
/// artifacts, reports, prune plans and the service store. Throws
/// common::FadesError (a std::runtime_error) on I/O failure.
void writeFile(const std::string& path, const std::string& text);

}  // namespace fades::obs
