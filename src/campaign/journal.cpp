#include "campaign/journal.hpp"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "campaign/artifact.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"

namespace fades::campaign {

using common::ErrorKind;
using common::require;
using obs::Json;

namespace {

constexpr const char* kSchema = "fades.journal/1";

Json headerJson(const CampaignSpec& spec) {
  Json j = Json::object();
  j.set("schema", Json(std::string(kSchema)));
  j.set("spec", toJson(spec));
  return j;
}

}  // namespace

Json CampaignJournal::outcomeJson(const ExperimentOutcome& x) {
  // Doubles survive the trip exactly: obs::Json prints them with enough
  // digits to round-trip through strtod bit-for-bit, which is what lets a
  // resumed campaign fold journaled outcomes into sums identical to the
  // live run's.
  Json j = Json::object();
  j.set("index", Json(x.index));
  j.set("attempts", Json(static_cast<std::uint64_t>(x.attempts)));
  if (x.quarantined) {
    j.set("quarantined", Json(true));
    j.set("kind", Json(std::string(common::toString(x.failureKind))));
    j.set("error", Json(x.failureMessage));
  } else {
    j.set("outcome", Json(std::string(toString(x.outcome))));
    j.set("modeled_seconds", Json(x.modeledSeconds));
    j.set("config_seconds", Json(x.configSeconds));
    j.set("workload_seconds", Json(x.workloadSeconds));
    j.set("host_seconds", Json(x.hostSeconds));
    j.set("bytes_to_device", Json(x.bytesToDevice));
    j.set("bytes_from_device", Json(x.bytesFromDevice));
    j.set("sessions", Json(x.sessions));
    if (x.hasRecord) j.set("record", toJson(x.record));
  }
  return j;
}

std::string CampaignJournal::outcomeLine(const ExperimentOutcome& x) {
  return outcomeJson(x).dump() + "\n";
}

bool CampaignJournal::outcomeFromJson(const Json& j, ExperimentOutcome& out) {
  if (!j.isObject()) return false;
  out = ExperimentOutcome{};
  std::uint64_t attempts = 0;
  if (!j.get("index", out.index) || !j.get("attempts", attempts)) {
    return false;
  }
  out.attempts = static_cast<unsigned>(attempts);
  const Json* quarantined = j.find("quarantined");
  if (quarantined != nullptr && quarantined->asBool()) {
    out.quarantined = true;
    std::string kind;
    if (!j.get("kind", kind) ||
        !j.get("error", out.failureMessage)) {
      return false;
    }
    return errorKindFromString(kind, out.failureKind);
  }
  std::string outcome;
  if (!j.get("outcome", outcome) ||
      !outcomeFromString(outcome, out.outcome) ||
      !j.get("modeled_seconds", out.modeledSeconds) ||
      !j.get("config_seconds", out.configSeconds) ||
      !j.get("workload_seconds", out.workloadSeconds) ||
      !j.get("host_seconds", out.hostSeconds) ||
      !j.get("bytes_to_device", out.bytesToDevice) ||
      !j.get("bytes_from_device", out.bytesFromDevice) ||
      !j.get("sessions", out.sessions)) {
    return false;
  }
  if (const Json* record = j.find("record")) {
    if (!recordFromJson(*record, out.record)) return false;
    out.hasRecord = true;
  }
  return true;
}

bool CampaignJournal::parseOutcomeLine(const std::string& line,
                                       ExperimentOutcome& out) {
  const auto parsed = Json::parse(line);
  if (!parsed) return false;
  return outcomeFromJson(*parsed, out);
}

void CampaignJournal::open(const CampaignSpec& spec, bool resume) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  completed_.clear();

  // Byte offset of the end of the last committed (parsed and
  // newline-terminated) line; everything past it is a torn tail from a
  // killed writer and gets truncated before we append.
  std::size_t committedEnd = 0;
  bool haveHeader = false;
  if (resume) {
    // Stream the file line by line with a bounded buffer instead of
    // slurping it whole: a corrupt or adversarial journal whose "line"
    // never ends fails fast with a ConfigError naming the byte offset of
    // the offending line, instead of growing the buffer without bound.
    struct FileCloser {
      void operator()(std::FILE* f) const { std::fclose(f); }
    };
    std::unique_ptr<std::FILE, FileCloser> in(
        std::fopen(path_.c_str(), "rb"));
    if (in != nullptr) {
      std::string buffer;
      char chunk[1 << 16];
      std::size_t consumed = 0;  // bytes already dropped from buffer's front
      bool stop = false;
      while (!stop) {
        const std::size_t n = std::fread(chunk, 1, sizeof chunk, in.get());
        if (n == 0) break;
        buffer.append(chunk, n);
        std::size_t pos = 0;
        while (!stop) {
          const std::size_t nl = buffer.find('\n', pos);
          if (nl == std::string::npos) break;
          std::string line = buffer.substr(pos, nl - pos);
          // CRLF-tolerant: a journal that crossed a Windows filesystem or a
          // text-mode transfer still resumes ('\r' is not part of the
          // record; committedEnd keeps counting the bytes as written).
          if (!line.empty() && line.back() == '\r') line.pop_back();
          require(line.size() <= kMaxLineBytes, ErrorKind::ConfigError,
                  "journal " + path_ + ": line exceeding " +
                      std::to_string(kMaxLineBytes) +
                      " bytes at byte offset " +
                      std::to_string(consumed + pos));
          if (!haveHeader) {
            const auto header = Json::parse(line);
            std::string schema;
            require(header && header->isObject() &&
                        header->get("schema", schema) &&
                        schema == kSchema,
                    ErrorKind::ConfigError,
                    "journal " + path_ +
                        " has no valid fades.journal/1 header");
            const Json* fileSpec = header->find("spec");
            require(fileSpec != nullptr &&
                        fileSpec->dump() == toJson(spec).dump(),
                    ErrorKind::ConfigError,
                    "journal " + path_ +
                        " was written for a different campaign spec");
            haveHeader = true;
          } else {
            ExperimentOutcome outcome;
            if (!parseOutcomeLine(line, outcome)) {
              stop = true;  // stop at corruption
              break;
            }
            completed_[outcome.index] = std::move(outcome);
          }
          committedEnd = consumed + nl + 1;
          pos = nl + 1;
        }
        buffer.erase(0, pos);
        consumed += pos;
        // An unterminated line past the bound is rejected before reading
        // further - same offset diagnostics as the terminated case.
        require(stop || buffer.size() <= kMaxLineBytes,
                ErrorKind::ConfigError,
                "journal " + path_ + ": line exceeding " +
                    std::to_string(kMaxLineBytes) + " bytes at byte offset " +
                    std::to_string(consumed));
      }
      // Anything left in `buffer` is a torn tail from a killed writer;
      // truncation below drops it.
    }
  }

  if (haveHeader) {
    // Drop the torn tail (if any), then extend the surviving journal.
    if (truncate(path_.c_str(), static_cast<off_t>(committedEnd)) != 0) {
      common::raise(ErrorKind::ConfigError,
                    "cannot truncate journal " + path_);
    }
    file_ = std::fopen(path_.c_str(), "ab");
    require(file_ != nullptr, ErrorKind::ConfigError,
            "cannot open journal " + path_ + " for append");
    return;
  }

  // Fresh journal (no resume requested, file missing, or no committed
  // header survived).
  file_ = std::fopen(path_.c_str(), "wb");
  require(file_ != nullptr, ErrorKind::ConfigError,
          "cannot create journal " + path_);
  const std::string header = headerJson(spec).dump() + "\n";
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    std::fclose(file_);
    file_ = nullptr;
    common::raise(ErrorKind::ConfigError,
                  "cannot write journal header to " + path_);
  }
  std::fflush(file_);
  if (fsync_ == FsyncPolicy::EachRecord) fsync(fileno(file_));
}

void CampaignJournal::append(const ExperimentOutcome& outcome) {
  const std::string line = outcomeLine(outcome);
  std::lock_guard<std::mutex> lock(mutex_);
  require(file_ != nullptr, ErrorKind::ConfigError,
          "journal " + path_ + " is not open");
  // One fwrite per line + immediate flush: a crash between appends never
  // leaves more than one torn line, and open() skips torn lines.
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    common::raise(ErrorKind::ConfigError,
                  "cannot append to journal " + path_);
  }
  std::fflush(file_);
  if (fsync_ == FsyncPolicy::EachRecord) fsync(fileno(file_));
}

void CampaignJournal::rewrite(
    const CampaignSpec& spec,
    const std::map<std::uint64_t, ExperimentOutcome>& outcomes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  // Tmp + rename: a crash at any instant leaves either the previous journal
  // or the complete rewritten one on disk, never a mix of the two.
  const std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  require(out != nullptr, ErrorKind::ConfigError,
          "cannot create journal rewrite file " + tmp);
  std::string text = headerJson(spec).dump() + "\n";
  for (const auto& [index, outcome] : outcomes) {
    (void)index;
    text += outcomeLine(outcome);
  }
  bool ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  ok = std::fflush(out) == 0 && ok;
  if (fsync_ == FsyncPolicy::EachRecord) fsync(fileno(out));
  ok = std::fclose(out) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    common::raise(ErrorKind::ConfigError,
                  "cannot rewrite journal " + path_);
  }
  completed_.clear();
  for (const auto& [index, outcome] : outcomes) completed_[index] = outcome;
  file_ = std::fopen(path_.c_str(), "ab");
  require(file_ != nullptr, ErrorKind::ConfigError,
          "cannot reopen journal " + path_ + " for append");
}

void CampaignJournal::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace fades::campaign
