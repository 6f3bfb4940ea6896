#include "obs/artifact.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace fades::obs {

using common::ErrorKind;

RunArtifact::RunArtifact(std::string kind, std::string name)
    : kind_(std::move(kind)), name_(std::move(name)) {}

void RunArtifact::setSection(const std::string& key, Json value) {
  sections_.set(key, std::move(value));
}

Json RunArtifact::toJson() const {
  Json out = Json::object();
  out.set("schema", kSchema);
  out.set("kind", kind_);
  out.set("name", name_);
  out.set("spec", spec_);
  out.set("records", records_);
  out.set("metrics", metrics_);
  out.set("cost", cost_);
  for (const auto& [key, value] : sections_.members()) out.set(key, value);
  return out;
}

std::string RunArtifact::toJsonl() const {
  Json header = Json::object();
  header.set("schema", kSchema);
  header.set("kind", kind_);
  header.set("name", name_);
  header.set("spec", spec_);
  std::string out = header.dump() + "\n";
  for (const auto& r : records_.items()) {
    Json line = Json::object();
    line.set("record", r);
    out += line.dump() + "\n";
  }
  Json summary = Json::object();
  summary.set("metrics", metrics_);
  summary.set("cost", cost_);
  for (const auto& [key, value] : sections_.members()) summary.set(key, value);
  out += summary.dump() + "\n";
  return out;
}

void writeFile(const std::string& path, const std::string& text) {
  // Crash-safe: write the whole text to <path>.tmp, then rename() it into
  // place (atomic on POSIX). A process killed mid-write leaves either the
  // previous complete file or a stray .tmp - never a truncated file that
  // parses as a complete artifact, report or plan.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  common::require(f != nullptr, ErrorKind::InvalidArgument,
                  "cannot open '" + tmp + "' for writing");
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    common::raise(ErrorKind::InvalidArgument, "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    common::raise(ErrorKind::InvalidArgument,
                  "cannot rename '" + tmp + "' to '" + path + "'");
  }
}

void RunArtifact::writeJson(const std::string& path, int indent) const {
  writeFile(path, toJson().dump(indent) + "\n");
}

void RunArtifact::writeJsonl(const std::string& path) const {
  writeFile(path, toJsonl());
}

}  // namespace fades::obs
