// Crash-safe campaign checkpoint journal.
//
// A campaign over millions of experiments cannot afford to lose hours of
// completed work to a host crash. The journal is an append-only JSONL file:
// one header line binding the file to a campaign spec, then one line per
// completed experiment outcome keyed by index. Appends are a single
// fwrite() of a full line (atomic with respect to readers on POSIX when the
// line fits the stdio buffer we flush immediately), so a killed process
// leaves at worst one torn trailing line - which open() and read() ignore.
// Resuming a campaign replays the journaled outcomes through the same
// index-ordered fold as live execution, so a resumed run's artifacts are
// byte-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "campaign/types.hpp"
#include "obs/json.hpp"

namespace fades::campaign {

/// Durability of each journal append. Never = fflush only (survives process
/// death, not power loss); EachRecord = fflush + fsync per line.
enum class FsyncPolicy : std::uint8_t { Never, EachRecord };

class CampaignJournal {
 public:
  explicit CampaignJournal(std::string path,
                           FsyncPolicy fsync = FsyncPolicy::Never)
      : path_(std::move(path)), fsync_(fsync) {}
  ~CampaignJournal() { close(); }
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Open the journal for `spec`. With resume set, committed outcome lines
  /// of an existing journal for the SAME spec are loaded into completed()
  /// and subsequent appends extend the file; a journal written for a
  /// different spec raises ConfigError (resuming someone else's campaign
  /// would silently fabricate results). Without resume - or when the file
  /// is missing, empty, or lacks a committed header - the journal is
  /// recreated from scratch.
  void open(const CampaignSpec& spec, bool resume);

  /// Append one completed outcome. Thread-safe; the line is committed (at
  /// least to the OS) before this returns.
  void append(const ExperimentOutcome& outcome);

  /// Read the journal at `path` without binding it to a spec: the outcomes
  /// open(resume=true) would recover, keyed by experiment index (a line
  /// repeated for one index counts once). Raises ConfigError when the file
  /// is missing, has no valid header or has a line over kMaxLineBytes.
  static std::map<std::uint64_t, ExperimentOutcome> read(
      const std::string& path);

  /// Outcomes recovered by open(resume=true), keyed by experiment index.
  const std::map<std::uint64_t, ExperimentOutcome>& completed() const {
    return completed_;
  }
  bool has(std::uint64_t index) const {
    return completed_.find(index) != completed_.end();
  }

  const std::string& path() const { return path_; }

  void close();

  /// Atomically replace the journal's committed contents (tmp + rename)
  /// with `spec`'s header plus `outcomes` in index order, then reopen for
  /// append. Used when previously committed lines turn out to be wrong -
  /// e.g. a byzantine worker's results being expunged after detection - so
  /// a crash at any instant leaves either the old or the new journal, never
  /// a mix.
  void rewrite(const CampaignSpec& spec,
               const std::map<std::uint64_t, ExperimentOutcome>& outcomes);

  // Serialization used by the journal lines; exposed for tests and reused
  // verbatim by the fades.wire/1 service protocol so outcomes survive the
  // coordinator<->worker trip bit-exactly, like they survive checkpointing.
  static obs::Json outcomeJson(const ExperimentOutcome& outcome);
  static bool outcomeFromJson(const obs::Json& j, ExperimentOutcome& out);
  static std::string outcomeLine(const ExperimentOutcome& outcome);
  static bool parseOutcomeLine(const std::string& line,
                               ExperimentOutcome& out);

  static constexpr const char* kSchema = "fades.journal/1";

  /// Longest line open() and read() accept before rejecting the file as
  /// corrupt or adversarial (a record line is a few hundred bytes; anything
  /// near this bound is not a journal).
  static constexpr std::size_t kMaxLineBytes = 1u << 20;

 private:
  std::string path_;
  FsyncPolicy fsync_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  std::map<std::uint64_t, ExperimentOutcome> completed_;
};

}  // namespace fades::campaign
