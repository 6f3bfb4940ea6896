// Vulnerability analytics over fades.run/1 artifacts and fades.journal/1
// checkpoints - the offline half of the paper's results analysis (Section
// 5): fold per-experiment records into per-component vulnerability rankings,
// per-PC / per-instruction attribution tables (CFA-style root cause: which
// instruction was in flight when the fault landed), derating fractions and
// fault-latency histograms.
//
// Determinism contract: every statistic is integer or fixed-point (basis
// points, round-half-up) and every table is sorted with a total order, so a
// report built from byte-identical inputs is byte-identical - including
// across --jobs counts and checkpoint/resume, which the campaign layer
// already guarantees for the inputs themselves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/types.hpp"
#include "obs/json.hpp"

namespace fades::analytics {

/// One loaded input file: where it came from, which schema it carried and
/// the per-experiment records recovered from it.
struct CampaignInput {
  std::string path;
  std::string schema;  // "fades.run/1" or "fades.journal/1"
  std::string name;    // artifact name; journals use the file path
  std::vector<campaign::ExperimentRecord> records;
  /// Journal outcomes that were quarantined (no record to fold).
  std::uint64_t quarantined = 0;
};

/// Load a fades.run/1 artifact - either the single-document JSON form or
/// the streaming JSONL form; both are detected from the content. Raises
/// ConfigError on malformed input or a foreign schema.
CampaignInput loadRunArtifact(const std::string& path);

/// Load a fades.journal/1 checkpoint journal, recovering the embedded
/// records of the outcomes campaign resume recovers
/// (CampaignJournal::read): one per experiment index, up to a torn or
/// corrupt line. Quarantined outcomes carry no record and are counted but
/// not folded.
CampaignInput loadJournal(const std::string& path);

/// Load a mix of files and directories. Directories are scanned one level
/// deep in sorted path order (determinism does not depend on readdir
/// order). A file whose first line is a fades.journal/1 header loads as a
/// journal, any other as a run artifact; a file that is neither raises
/// ConfigError. Each file is read once, apart from that first line.
std::vector<CampaignInput> loadInputs(const std::vector<std::string>& paths);

/// Outcome tally plus derating fractions in basis points (1/100 of a
/// percent, round half up) - the silent/latent/failure decomposition the
/// paper reports per fault model, here computed per slice.
struct OutcomeSlice {
  std::uint64_t experiments = 0;
  std::uint64_t failures = 0;
  std::uint64_t latents = 0;
  std::uint64_t silents = 0;
  unsigned failureBp = 0;
  unsigned latentBp = 0;
  unsigned silentBp = 0;

  void add(campaign::Outcome outcome);
  void finalize();  // computes the basis-point fields
};

struct ComponentStats {
  std::string component;
  OutcomeSlice slice;
};

struct PcStats {
  std::int64_t pc = -1;  // -1 = experiments without a golden-run trace
  std::int64_t opcode = -1;
  std::string mnemonic;  // mc8051 decode of `opcode`; "?" when untraced
  OutcomeSlice slice;
};

struct InstructionStats {
  std::string mnemonic;  // register/indirect forms collapse onto families
  OutcomeSlice slice;
};

/// Fault-latency histogram bucket: experiments whose first observable
/// divergence happened `lo..hi` cycles after injection (power-of-two
/// bounds; the last bucket is open-ended in rendering only).
struct LatencyBucket {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t count = 0;
};

struct VulnerabilityReport {
  OutcomeSlice totals;
  std::uint64_t inputs = 0;        // files folded
  std::uint64_t quarantined = 0;   // journal outcomes without a record
  std::uint64_t traced = 0;        // records with PC attribution
  std::uint64_t detected = 0;      // records with a detect cycle
  std::vector<ComponentStats> components;      // failureBp desc, name asc
  std::vector<PcStats> pcs;                    // pc asc
  std::vector<InstructionStats> instructions;  // failureBp desc, name asc
  std::vector<LatencyBucket> latency;          // lo asc
};

/// Fold loaded inputs into one report. Record order inside each input and
/// input order in the vector do not affect the output (tables are keyed and
/// sorted), so any directory layout of the same records ranks identically.
VulnerabilityReport buildReport(const std::vector<CampaignInput>& inputs);

/// Versioned fades.report/1 document: schema, aggregate input counts,
/// totals and every table. Deliberately path-free: reports built from
/// byte-identical records are byte-identical even when the input files live
/// under different names (the --jobs 1 vs --jobs 8 comparison).
obs::Json toJson(const VulnerabilityReport& report);

/// Human-readable markdown: component ranking, top instruction and PC
/// tables, latency histogram.
std::string toMarkdown(const VulnerabilityReport& report);

/// Per-component ranking as CSV (campaign::renderCsv quoting).
std::string toCsv(const VulnerabilityReport& report);

}  // namespace fades::analytics
