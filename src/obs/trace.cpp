#include "obs/trace.hpp"

#include <cstdlib>
#include <functional>
#include <thread>

namespace fades::obs {

namespace {

std::uint32_t currentTid() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7FFFFFFF);
}

}  // namespace

std::uint64_t TraceBuffer::nowMicros() {
  static const auto start = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  // The whole ring at once: filling it never reallocates (a doubling would
  // hold the old and the new block resident together), and the pages no
  // record has reached yet are not resident.
  ring_.reserve(capacity_);
}

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer buffer;
  static const bool init = [] {
    if (const char* v = std::getenv("FADES_TRACE")) {
      buffer.setEnabled(!(v[0] == '0' && v[1] == '\0'));
    }
    (void)buffer.nowMicros();  // anchor the span clock at first use
    return true;
  }();
  (void)init;
  return buffer;
}

void TraceBuffer::record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  ring_[next_] = std::move(record);
  next_ = (next_ + 1) % capacity_;
}

std::size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ - ring_.size();
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

std::vector<SpanRecord> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  // Oldest first: the ring cursor points at the oldest entry once wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

Json TraceBuffer::chromeTraceJson() const {
  Json events = Json::array();
  for (const auto& r : snapshot()) {
    Json e = Json::object();
    e.set("name", r.name);
    e.set("cat", "fades");
    e.set("ph", "X");
    e.set("ts", r.beginMicros);
    e.set("dur", r.durMicros);
    e.set("pid", 1);
    e.set("tid", static_cast<std::uint64_t>(r.tid));
    if (!r.args.empty()) {
      Json args = Json::object();
      for (const auto& a : r.args) args.set(a.key, a.value);
      e.set("args", std::move(args));
    }
    events.push(std::move(e));
  }
  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ms");
  return out;
}

Span::Span(std::string name,
           std::initializer_list<std::pair<std::string, std::string>> args,
           TraceBuffer& buffer)
    : buffer_(buffer) {
  if (!buffer_.enabled()) return;
  active_ = true;
  record_.name = std::move(name);
  record_.tid = currentTid();
  for (const auto& [k, v] : args) record_.args.push_back({k, v});
  record_.beginMicros = TraceBuffer::nowMicros();
}

void Span::setArg(const std::string& key, std::string value) {
  if (!active_) return;
  for (auto& a : record_.args) {
    if (a.key == key) {
      a.value = std::move(value);
      return;
    }
  }
  record_.args.push_back({key, std::move(value)});
}

Span::~Span() {
  if (!active_) return;
  record_.durMicros = TraceBuffer::nowMicros() - record_.beginMicros;
  buffer_.record(std::move(record_));
}

}  // namespace fades::obs
