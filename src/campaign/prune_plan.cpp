#include "campaign/prune_plan.hpp"

#include <algorithm>

#include "campaign/artifact.hpp"
#include "common/error.hpp"

namespace fades::campaign {

using common::ErrorKind;
using common::require;
using obs::Json;

const char* toString(PruneReason reason) {
  switch (reason) {
    case PruneReason::DeadTarget: return "dead-target";
    case PruneReason::OverwriteBeforeRead: return "overwrite-before-read";
    case PruneReason::QuiescentUntilRead: return "quiescent-until-read";
    case PruneReason::OutOfWindow: return "out-of-window";
  }
  return "?";
}

bool pruneReasonFromString(std::string_view text, PruneReason& out) {
  for (PruneReason r :
       {PruneReason::DeadTarget, PruneReason::OverwriteBeforeRead,
        PruneReason::QuiescentUntilRead, PruneReason::OutOfWindow}) {
    if (text == toString(r)) {
      out = r;
      return true;
    }
  }
  return false;
}

std::uint64_t PrunePlan::collapsedCount() const {
  std::uint64_t n = 0;
  for (const auto& c : classes) n += c.members.size();
  return n;
}

double PrunePlan::collapseFactor() const {
  const std::uint64_t executed = executedCount();
  if (executed == 0) return 1.0;
  return static_cast<double>(spec.experiments) /
         static_cast<double>(executed);
}

std::uint64_t PrunePlan::countForReason(PruneReason reason) const {
  std::uint64_t n = 0;
  for (const auto& c : classes) {
    if (c.reason == reason) n += c.members.size();
  }
  return n;
}

std::vector<std::int32_t> PrunePlan::memberClassIndex() const {
  std::vector<std::int32_t> index(spec.experiments, -1);
  for (std::size_t k = 0; k < classes.size(); ++k) {
    for (const std::uint64_t m : classes[k].members) {
      index[m] = static_cast<std::int32_t>(k);
    }
  }
  return index;
}

void PrunePlan::validate() const {
  std::vector<std::uint8_t> seen(spec.experiments, 0);
  for (const auto& c : classes) {
    require(c.representative < spec.experiments, ErrorKind::InvalidArgument,
            "prune plan: representative index out of range");
    require(!c.members.empty(), ErrorKind::InvalidArgument,
            "prune plan: class with no collapsed members");
    for (const std::uint64_t m : c.members) {
      require(m < spec.experiments, ErrorKind::InvalidArgument,
              "prune plan: member index out of range");
      require(m != c.representative, ErrorKind::InvalidArgument,
              "prune plan: representative listed as its own member");
      require(!seen[m], ErrorKind::InvalidArgument,
              "prune plan: experiment collapsed into two classes");
      seen[m] = 1;
    }
  }
  for (const auto& c : classes) {
    require(!seen[c.representative], ErrorKind::InvalidArgument,
            "prune plan: representative collapsed as a member elsewhere");
  }
}

std::string specKey(const CampaignSpec& spec) { return toJson(spec).dump(); }

Json toJson(const PrunePlan& plan) {
  Json j = Json::object();
  j.set("schema", Json(std::string(PrunePlan::kSchema)));
  j.set("spec", toJson(plan.spec));
  j.set("run_cycles", Json(plan.runCycles));
  j.set("pool_size", Json(plan.poolSize));
  Json classes = Json::array();
  for (const auto& c : plan.classes) {
    Json cj = Json::object();
    cj.set("representative", Json(c.representative));
    cj.set("reason", Json(std::string(toString(c.reason))));
    cj.set("target", Json(c.target));
    if (c.windowBegin >= 0) {
      Json window = Json::array();
      window.push(Json(c.windowBegin));
      window.push(Json(c.windowEnd));
      cj.set("window", std::move(window));
    } else {
      cj.set("window", Json());
    }
    Json members = Json::array();
    for (const std::uint64_t m : c.members) members.push(Json(m));
    cj.set("members", std::move(members));
    classes.push(std::move(cj));
  }
  j.set("classes", std::move(classes));
  Json summary = Json::object();
  summary.set("experiments",
              Json(static_cast<std::uint64_t>(plan.spec.experiments)));
  summary.set("executed", Json(plan.executedCount()));
  summary.set("collapsed", Json(plan.collapsedCount()));
  summary.set("collapse_factor", Json(plan.collapseFactor()));
  Json byReason = Json::object();
  for (PruneReason r :
       {PruneReason::DeadTarget, PruneReason::OverwriteBeforeRead,
        PruneReason::QuiescentUntilRead, PruneReason::OutOfWindow}) {
    byReason.set(toString(r), Json(plan.countForReason(r)));
  }
  summary.set("by_reason", std::move(byReason));
  j.set("summary", std::move(summary));
  return j;
}

namespace {

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool prunePlanFromJson(const Json& j, PrunePlan& out, std::string* error) {
  out = PrunePlan{};
  if (!j.isObject()) return fail(error, "prune plan is not an object");
  std::string schema;
  if (!j.get("schema", schema) || schema != PrunePlan::kSchema) {
    return fail(error,
                std::string("prune plan is not ") + PrunePlan::kSchema);
  }
  const Json* spec = j.find("spec");
  if (spec == nullptr || !specFromJson(*spec, out.spec, error)) return false;
  if (!j.get("run_cycles", out.runCycles) ||
      !j.get("pool_size", out.poolSize)) {
    return fail(error, "prune plan misses run_cycles/pool_size");
  }
  const Json* classes = j.find("classes");
  if (classes == nullptr || !classes->isArray()) {
    return fail(error, "prune plan misses classes");
  }
  for (const Json& cj : classes->items()) {
    if (!cj.isObject()) return fail(error, "prune class is not an object");
    PruneClass c;
    std::string reason;
    const Json* members = cj.find("members");
    if (!cj.get("representative", c.representative) ||
        !cj.get("reason", reason) || !pruneReasonFromString(reason, c.reason) ||
        !cj.get("target", c.target) || members == nullptr ||
        !members->isArray()) {
      return fail(error, "prune class misses representative/reason/target/"
                         "members");
    }
    if (const Json* window = cj.find("window");
        window != nullptr && window->isArray() && window->size() == 2) {
      c.windowBegin = window->items()[0].asInt();
      c.windowEnd = window->items()[1].asInt();
    }
    for (const Json& m : members->items()) {
      if (!m.isNumber()) return fail(error, "prune member is not an index");
      c.members.push_back(static_cast<std::uint64_t>(m.asInt()));
    }
    out.classes.push_back(std::move(c));
  }
  try {
    out.validate();
  } catch (const common::FadesError& e) {
    return fail(error, e.what());
  }
  return true;
}

std::string accountingLine(const PrunePlan& plan) {
  char buffer[256];
  std::snprintf(
      buffer, sizeof(buffer),
      "prune plan: experiments=%llu executed=%llu collapsed=%llu "
      "factor=%.2fx dead_target=%llu overwrite_before_read=%llu "
      "quiescent_until_read=%llu out_of_window=%llu",
      static_cast<unsigned long long>(plan.spec.experiments),
      static_cast<unsigned long long>(plan.executedCount()),
      static_cast<unsigned long long>(plan.collapsedCount()),
      plan.collapseFactor(),
      static_cast<unsigned long long>(
          plan.countForReason(PruneReason::DeadTarget)),
      static_cast<unsigned long long>(
          plan.countForReason(PruneReason::OverwriteBeforeRead)),
      static_cast<unsigned long long>(
          plan.countForReason(PruneReason::QuiescentUntilRead)),
      static_cast<unsigned long long>(
          plan.countForReason(PruneReason::OutOfWindow)));
  return std::string(buffer);
}

}  // namespace fades::campaign
