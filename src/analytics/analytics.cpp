#include "analytics/analytics.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "campaign/artifact.hpp"
#include "campaign/journal.hpp"
#include "campaign/report.hpp"
#include "common/error.hpp"
#include "mc8051/isa.hpp"
#include "obs/json.hpp"

namespace fades::analytics {

using campaign::CampaignJournal;
using common::ErrorKind;
using common::raise;
using common::require;
using obs::Json;

namespace {

constexpr const char* kRunSchema = "fades.run/1";
constexpr const char* kReportSchema = "fades.report/1";

std::string readFileText(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  require(f != nullptr, ErrorKind::ConfigError,
          "cannot open input '" + path + "'");
  std::string content;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) != 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

std::string firstLine(const std::string& content) {
  const std::size_t nl = content.find('\n');
  return nl == std::string::npos ? content : content.substr(0, nl);
}

std::string schemaOf(const Json& j) {
  const Json* s = j.isObject() ? j.find("schema") : nullptr;
  return s != nullptr && s->isString() ? s->asString() : std::string();
}

void foldRecordArray(const Json& records, const std::string& path,
                     CampaignInput& input) {
  for (const auto& r : records.items()) {
    campaign::ExperimentRecord rec;
    require(campaign::recordFromJson(r, rec), ErrorKind::ConfigError,
            "malformed experiment record in '" + path + "'");
    input.records.push_back(std::move(rec));
  }
}

/// Mnemonic bucket for a record: the mc8051 decode of the traced opcode, or
/// a stable placeholder when the experiment ran without a golden-run trace.
std::string mnemonicOf(std::int64_t opcode) {
  if (opcode < 0 || opcode > 0xFF) return "(untraced)";
  return mc8051::opcodeName(static_cast<std::uint8_t>(opcode));
}

/// Basis points rendered as a fixed two-decimal percentage ("12.34").
std::string bpToPct(unsigned bp) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%02u", bp / 100, bp % 100);
  return buf;
}

std::string pcHex(std::int64_t pc) {
  if (pc < 0) return "-";
  char buf[2 + 16 + 1];  // "0x", up to 16 hex digits, NUL
  std::snprintf(buf, sizeof buf, "0x%04llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

Json sliceJson(const OutcomeSlice& s) {
  Json j = Json::object();
  j.set("experiments", Json(s.experiments));
  j.set("failures", Json(s.failures));
  j.set("latents", Json(s.latents));
  j.set("silents", Json(s.silents));
  j.set("failure_bp", Json(static_cast<std::uint64_t>(s.failureBp)));
  j.set("latent_bp", Json(static_cast<std::uint64_t>(s.latentBp)));
  j.set("silent_bp", Json(static_cast<std::uint64_t>(s.silentBp)));
  return j;
}

std::vector<std::string> sliceCells(const OutcomeSlice& s) {
  return {std::to_string(s.experiments), std::to_string(s.failures),
          std::to_string(s.latents),     std::to_string(s.silents),
          bpToPct(s.failureBp),          bpToPct(s.latentBp),
          bpToPct(s.silentBp)};
}

const std::vector<std::string> kSliceHeader = {
    "experiments", "failures", "latents",  "silents",
    "failure %",   "latent %", "silent %"};

}  // namespace

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

CampaignInput loadRunArtifact(const std::string& path) {
  const std::string content = readFileText(path);
  CampaignInput input;
  input.path = path;
  input.schema = kRunSchema;

  // Single-document form parses as one JSON value; anything else is JSONL.
  if (auto doc = Json::parse(content)) {
    require(schemaOf(*doc) == kRunSchema, ErrorKind::ConfigError,
            "'" + path + "' is not a " + kRunSchema + " artifact");
    if (const Json* name = doc->find("name")) input.name = name->asString();
    if (const Json* records = doc->find("records")) {
      foldRecordArray(*records, path, input);
    }
    return input;
  }

  std::size_t pos = 0;
  bool haveHeader = false;
  while (pos < content.size()) {
    std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) nl = content.size();
    const std::string line = content.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    const auto j = Json::parse(line);
    require(j.has_value(), ErrorKind::ConfigError,
            "malformed JSONL line in '" + path + "'");
    if (!haveHeader) {
      require(schemaOf(*j) == kRunSchema, ErrorKind::ConfigError,
              "'" + path + "' is not a " + kRunSchema + " artifact");
      if (const Json* name = j->find("name")) input.name = name->asString();
      haveHeader = true;
      continue;
    }
    if (const Json* record = j->find("record")) {
      campaign::ExperimentRecord rec;
      require(campaign::recordFromJson(*record, rec), ErrorKind::ConfigError,
              "malformed experiment record in '" + path + "'");
      input.records.push_back(std::move(rec));
    }
    // The trailing summary line carries no records; nothing to fold.
  }
  require(haveHeader, ErrorKind::ConfigError,
          "'" + path + "' has no " + kRunSchema + " header");
  return input;
}

CampaignInput loadJournal(const std::string& path) {
  CampaignInput input;
  input.path = path;
  input.schema = CampaignJournal::kSchema;
  input.name = path;
  for (auto& [index, outcome] : CampaignJournal::read(path)) {
    (void)index;
    if (outcome.quarantined) {
      ++input.quarantined;
    } else if (outcome.hasRecord) {
      input.records.push_back(std::move(outcome.record));
    }
  }
  return input;
}

std::vector<CampaignInput> loadInputs(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;

  std::vector<std::string> files;
  for (const auto& p : paths) {
    if (fs::is_directory(p)) {
      for (const auto& entry : fs::directory_iterator(p)) {
        if (entry.is_regular_file()) files.push_back(entry.path().string());
      }
    } else {
      files.push_back(p);
    }
  }
  // readdir order is filesystem-dependent; a sorted scan keeps the input
  // manifest (and thus the report) independent of it.
  std::sort(files.begin(), files.end());

  std::vector<CampaignInput> inputs;
  for (const auto& file : files) {
    const std::string content = readFileText(file);
    std::string schema;
    if (auto doc = Json::parse(content)) {
      schema = schemaOf(*doc);
    } else if (auto head = Json::parse(firstLine(content))) {
      schema = schemaOf(*head);
    }
    if (schema == kRunSchema) {
      inputs.push_back(loadRunArtifact(file));
    } else if (schema == CampaignJournal::kSchema) {
      inputs.push_back(loadJournal(file));
    } else {
      raise(ErrorKind::ConfigError,
            "'" + file + "' is neither a " + std::string(kRunSchema) +
                " artifact nor a " + CampaignJournal::kSchema + " journal");
    }
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

void OutcomeSlice::add(campaign::Outcome outcome) {
  ++experiments;
  switch (outcome) {
    case campaign::Outcome::Failure: ++failures; break;
    case campaign::Outcome::Latent: ++latents; break;
    case campaign::Outcome::Silent: ++silents; break;
  }
}

void OutcomeSlice::finalize() {
  // Integer basis points, round half up: deterministic across platforms,
  // unlike a double division formatted at print time.
  auto bp = [this](std::uint64_t count) {
    return experiments == 0
               ? 0u
               : static_cast<unsigned>((count * 10000 + experiments / 2) /
                                       experiments);
  };
  failureBp = bp(failures);
  latentBp = bp(latents);
  silentBp = bp(silents);
}

VulnerabilityReport buildReport(const std::vector<CampaignInput>& inputs) {
  VulnerabilityReport report;
  report.inputs = inputs.size();

  std::map<std::string, OutcomeSlice> byComponent;
  std::map<std::pair<std::int64_t, std::int64_t>, OutcomeSlice> byPc;
  std::map<std::string, OutcomeSlice> byMnemonic;
  std::map<std::uint64_t, LatencyBucket> latency;

  for (const auto& input : inputs) {
    report.quarantined += input.quarantined;
    for (const auto& rec : input.records) {
      report.totals.add(rec.outcome);
      const std::string component =
          rec.component.empty() ? "(unknown)" : rec.component;
      byComponent[component].add(rec.outcome);
      byPc[{rec.pc, rec.opcode}].add(rec.outcome);
      byMnemonic[mnemonicOf(rec.opcode)].add(rec.outcome);
      if (rec.pc >= 0) ++report.traced;
      if (rec.detectCycle >= 0) {
        ++report.detected;
        const std::uint64_t detect =
            static_cast<std::uint64_t>(rec.detectCycle);
        const std::uint64_t lat =
            detect > rec.injectCycle ? detect - rec.injectCycle : 0;
        // Power-of-two buckets: 0, 1, 2-3, 4-7, ... - fixed bounds, so the
        // histogram shape never depends on the data's spread.
        LatencyBucket bucket;
        if (lat == 0) {
          bucket.lo = bucket.hi = 0;
        } else {
          std::uint64_t lo = 1;
          while (lo * 2 <= lat) lo *= 2;
          bucket.lo = lo;
          bucket.hi = lo * 2 - 1;
        }
        auto& slot = latency[bucket.lo];
        slot.lo = bucket.lo;
        slot.hi = bucket.hi;
        ++slot.count;
      }
    }
  }

  report.totals.finalize();
  for (auto& [component, slice] : byComponent) {
    slice.finalize();
    report.components.push_back(ComponentStats{component, slice});
  }
  std::sort(report.components.begin(), report.components.end(),
            [](const ComponentStats& a, const ComponentStats& b) {
              if (a.slice.failureBp != b.slice.failureBp) {
                return a.slice.failureBp > b.slice.failureBp;
              }
              return a.component < b.component;
            });
  for (auto& [key, slice] : byPc) {
    slice.finalize();
    PcStats stats;
    stats.pc = key.first;
    stats.opcode = key.second;
    stats.mnemonic = mnemonicOf(key.second);
    stats.slice = slice;
    report.pcs.push_back(std::move(stats));
  }
  // byPc is a std::map keyed (pc, opcode): already ascending.
  for (auto& [mnemonic, slice] : byMnemonic) {
    slice.finalize();
    report.instructions.push_back(InstructionStats{mnemonic, slice});
  }
  std::sort(report.instructions.begin(), report.instructions.end(),
            [](const InstructionStats& a, const InstructionStats& b) {
              if (a.slice.failureBp != b.slice.failureBp) {
                return a.slice.failureBp > b.slice.failureBp;
              }
              return a.mnemonic < b.mnemonic;
            });
  for (const auto& [lo, bucket] : latency) report.latency.push_back(bucket);
  return report;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

Json toJson(const VulnerabilityReport& report) {
  Json j = Json::object();
  j.set("schema", Json(std::string(kReportSchema)));
  Json inputs = Json::object();
  inputs.set("files", Json(report.inputs));
  inputs.set("quarantined", Json(report.quarantined));
  j.set("inputs", inputs);
  j.set("totals", sliceJson(report.totals));
  j.set("traced", Json(report.traced));
  j.set("detected", Json(report.detected));
  Json components = Json::array();
  for (const auto& c : report.components) {
    Json entry = Json::object();
    entry.set("component", Json(c.component));
    entry.set("stats", sliceJson(c.slice));
    components.push(std::move(entry));
  }
  j.set("components", std::move(components));
  Json pcs = Json::array();
  for (const auto& p : report.pcs) {
    Json entry = Json::object();
    entry.set("pc", Json(p.pc));
    entry.set("opcode", Json(p.opcode));
    entry.set("mnemonic", Json(p.mnemonic));
    entry.set("stats", sliceJson(p.slice));
    pcs.push(std::move(entry));
  }
  j.set("pcs", std::move(pcs));
  Json instructions = Json::array();
  for (const auto& i : report.instructions) {
    Json entry = Json::object();
    entry.set("mnemonic", Json(i.mnemonic));
    entry.set("stats", sliceJson(i.slice));
    instructions.push(std::move(entry));
  }
  j.set("instructions", std::move(instructions));
  Json latency = Json::array();
  for (const auto& b : report.latency) {
    Json entry = Json::object();
    entry.set("lo", Json(b.lo));
    entry.set("hi", Json(b.hi));
    entry.set("count", Json(b.count));
    latency.push(std::move(entry));
  }
  j.set("latency", std::move(latency));
  return j;
}

std::string toMarkdown(const VulnerabilityReport& report) {
  std::string out = "# Vulnerability report\n\n";
  out += std::to_string(report.totals.experiments) + " experiments from " +
         std::to_string(report.inputs) + " input(s); " +
         std::to_string(report.traced) + " with PC attribution, " +
         std::to_string(report.detected) + " with an observed divergence";
  if (report.quarantined != 0) {
    out += ", " + std::to_string(report.quarantined) + " quarantined";
  }
  out += ".\n\n";

  out += "## Component ranking\n\n";
  {
    std::vector<std::string> header = {"component"};
    header.insert(header.end(), kSliceHeader.begin(), kSliceHeader.end());
    std::vector<std::vector<std::string>> rows;
    for (const auto& c : report.components) {
      std::vector<std::string> row = {c.component};
      const auto cells = sliceCells(c.slice);
      row.insert(row.end(), cells.begin(), cells.end());
      rows.push_back(std::move(row));
    }
    out += campaign::renderMarkdownTable(header, rows);
  }

  out += "\n## Instruction vulnerability\n\n";
  {
    std::vector<std::string> header = {"instruction"};
    header.insert(header.end(), kSliceHeader.begin(), kSliceHeader.end());
    std::vector<std::vector<std::string>> rows;
    for (const auto& i : report.instructions) {
      std::vector<std::string> row = {i.mnemonic};
      const auto cells = sliceCells(i.slice);
      row.insert(row.end(), cells.begin(), cells.end());
      rows.push_back(std::move(row));
    }
    out += campaign::renderMarkdownTable(header, rows);
  }

  out += "\n## PC attribution\n\n";
  {
    std::vector<std::string> header = {"pc", "instruction"};
    header.insert(header.end(), kSliceHeader.begin(), kSliceHeader.end());
    std::vector<std::vector<std::string>> rows;
    for (const auto& p : report.pcs) {
      std::vector<std::string> row = {pcHex(p.pc), p.mnemonic};
      const auto cells = sliceCells(p.slice);
      row.insert(row.end(), cells.begin(), cells.end());
      rows.push_back(std::move(row));
    }
    out += campaign::renderMarkdownTable(header, rows);
  }

  out += "\n## Fault latency (cycles from injection to first divergence)\n\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& b : report.latency) {
      const std::string range =
          b.lo == b.hi ? std::to_string(b.lo)
                       : std::to_string(b.lo) + "-" + std::to_string(b.hi);
      rows.push_back({range, std::to_string(b.count)});
    }
    out += campaign::renderMarkdownTable({"latency", "count"}, rows);
  }
  return out;
}

std::string toCsv(const VulnerabilityReport& report) {
  std::vector<std::string> header = {"component",  "experiments", "failures",
                                     "latents",    "silents",     "failure_bp",
                                     "latent_bp",  "silent_bp"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& c : report.components) {
    rows.push_back({c.component, std::to_string(c.slice.experiments),
                    std::to_string(c.slice.failures),
                    std::to_string(c.slice.latents),
                    std::to_string(c.slice.silents),
                    std::to_string(c.slice.failureBp),
                    std::to_string(c.slice.latentBp),
                    std::to_string(c.slice.silentBp)});
  }
  return campaign::renderCsv(header, rows);
}

}  // namespace fades::analytics
