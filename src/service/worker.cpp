#include "service/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "common/error.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace fades::service {

using campaign::CampaignJournal;
using campaign::ExperimentOutcome;
using common::ErrorKind;
using common::FadesError;
using common::require;
using obs::Json;

namespace {

std::string messageType(const Json& j) {
  std::string type;
  j.get("type", type);
  return type;
}

/// Built campaign systems kept alive, keyed by job fingerprint. Building a
/// system is the expensive part (synthesis + golden run), so a worker
/// serving few campaigns reuses them across leases.
constexpr std::size_t kCachedSystems = 2;

}  // namespace

WorkerDaemon::WorkerDaemon(WorkerOptions options) : opt_(std::move(options)) {
  if (opt_.name.empty()) {
    opt_.name = "worker-" + std::to_string(::getpid());
  }
}

void WorkerDaemon::sleepInterruptible(int ms) {
  // 50 ms slices so stop() takes effect promptly even inside a long backoff.
  while (ms > 0 && !stop_.load()) {
    const int slice = std::min(ms, 50);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    ms -= slice;
  }
}

int WorkerDaemon::run() {
  // Reconnect backoff: 200 ms, doubling per failed attempt up to 5 s.
  constexpr int kReconnectBaseMs = 200;
  constexpr int kReconnectCapMs = 5000;
  int backoffMs = kReconnectBaseMs;
  unsigned failures = 0;
  while (!stop_.load()) {
    Socket sock;
    try {
      sock = connectTo(opt_.host, opt_.port, opt_.recvTimeoutMs);
      Json hello = Json::object();
      hello.set("type", Json(std::string("hello")));
      hello.set("schema", Json(std::string(kWireSchema)));
      hello.set("role", Json(std::string("worker")));
      hello.set("worker", Json(opt_.name));
      sendMessage(sock, hello);
      const auto welcome = recvMessage(sock, opt_.recvTimeoutMs);
      require(welcome && messageType(*welcome) == "welcome",
              ErrorKind::LinkError, "coordinator did not answer the hello");
    } catch (const FadesError& e) {
      ++failures;
      if (opt_.maxReconnects != 0 && failures >= opt_.maxReconnects) {
        FADES_LOG(Error) << "worker giving up"
                         << obs::kv("worker", opt_.name)
                         << obs::kv("failures",
                                    static_cast<std::uint64_t>(failures))
                         << obs::kv("error", e.what());
        return 1;
      }
      FADES_LOG(Warn) << "worker reconnect backoff"
                      << obs::kv("worker", opt_.name)
                      << obs::kv("backoff_ms",
                                 static_cast<std::uint64_t>(backoffMs))
                      << obs::kv("error", e.what());
      sleepInterruptible(backoffMs);
      backoffMs = std::min(backoffMs * 2, kReconnectCapMs);
      continue;
    }
    failures = 0;
    backoffMs = kReconnectBaseMs;
    Served served = Served::LinkLost;
    try {
      served = serveConnection(sock);
    } catch (const FadesError& e) {
      // Wire trouble mid-conversation: drop the connection and let the
      // reconnect loop try again. The coordinator re-leases anything we
      // were holding once the deadline passes.
      FADES_LOG(Warn) << "worker link lost" << obs::kv("worker", opt_.name)
                      << obs::kv("error", e.what());
    }
    if (served == Served::Shutdown) {
      FADES_LOG(Info) << "worker shutdown by coordinator"
                      << obs::kv("worker", opt_.name);
      return 0;
    }
    if (served == Served::Stopped) return 0;
  }
  return 0;
}

WorkerDaemon::Served WorkerDaemon::serveConnection(const Socket& sock) {
  while (!stop_.load()) {
    Json request = Json::object();
    request.set("type", Json(std::string("lease_request")));
    request.set("worker", Json(opt_.name));
    sendMessage(sock, request);
    const auto reply = recvMessage(sock, opt_.recvTimeoutMs);
    if (!reply) return Served::LinkLost;
    const std::string type = messageType(*reply);
    if (type == "shutdown") return Served::Shutdown;
    if (type == "lease") {
      runLease(sock, *reply);
      continue;
    }
    if (type == "idle") {
      std::uint64_t retryMs = 200;
      reply->get("retry_ms", retryMs);
      sleepInterruptible(static_cast<int>(std::min<std::uint64_t>(
          retryMs, 5000)));
      continue;
    }
    // "error" or anything unexpected: pause briefly rather than hot-loop.
    FADES_LOG(Warn) << "unexpected coordinator reply"
                    << obs::kv("worker", opt_.name) << obs::kv("type", type);
    sleepInterruptible(200);
  }
  return Served::Stopped;
}

WorkerDaemon::CachedSystem& WorkerDaemon::systemFor(const JobSpec& job,
                                                    const std::string& fp) {
  const auto it = systems_.find(fp);
  if (it != systems_.end()) {
    it->second.lastUsed = ++useSeq_;
    return it->second;
  }
  if (systems_.size() >= kCachedSystems) {
    // Evict the least recently used system; campaigns usually arrive in
    // batches of one or two, so thrash here means the operator under-sized
    // the cache, not a correctness problem.
    auto victim = systems_.begin();
    for (auto i = systems_.begin(); i != systems_.end(); ++i) {
      if (i->second.lastUsed < victim->second.lastUsed) victim = i;
    }
    systems_.erase(victim);
  }
  CachedSystem cached;
  validate(job);  // jobs enter a worker over the wire
  cached.system = buildSystem(job);
  cached.engine = cached.system->factory();
  require(cached.engine != nullptr, ErrorKind::InvalidArgument,
          "engine factory returned null");
  cached.pool = cached.engine->enumeratePool(job.spec);
  if (job.prune) {
    // Every worker derives the identical plan (a pure function of the job),
    // so synthesized outcomes still satisfy the byzantine agreement checks.
    cached.plan = buildPrunePlan(*cached.system);
    cached.memberClass = cached.plan.memberClassIndex();
  }
  cached.lastUsed = ++useSeq_;
  return systems_.emplace(fp, std::move(cached)).first->second;
}

void WorkerDaemon::runLease(const Socket& sock, const Json& lease) {
  std::string fp;
  std::uint64_t leaseId = 0;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  const Json* jobJson = lease.find("job");
  std::string error;
  JobSpec job;
  require(lease.get("fingerprint", fp) &&
              lease.get("lease_id", leaseId) &&
              lease.get("first", first) &&
              lease.get("count", count) && jobJson != nullptr &&
              jobSpecFromJson(*jobJson, job, &error) &&
              count <= job.spec.experiments &&
              first <= job.spec.experiments - count,
          ErrorKind::LinkError, "malformed lease: " + error);

  auto release = [&](const std::string& why) {
    Json msg = Json::object();
    msg.set("type", Json(std::string("release")));
    msg.set("worker", Json(opt_.name));
    msg.set("fingerprint", Json(fp));
    msg.set("lease_id", Json(leaseId));
    msg.set("first", Json(first));
    msg.set("error", Json(why));
    sendMessage(sock, msg);
    recvMessage(sock, opt_.recvTimeoutMs);  // release_ack / error - ignored
  };

  if (poisoned_.find(fp) != poisoned_.end()) {
    release("worker cannot build this campaign: " + poisoned_[fp]);
    return;
  }

  CachedSystem* sys = nullptr;
  try {
    sys = &systemFor(job, fp);
  } catch (const FadesError& e) {
    // A job this worker cannot build (bad spec for this build, fatal
    // engine setup error) is released back, and remembered so the same
    // lease does not ping-pong here forever.
    poisoned_[fp] = e.what();
    FADES_LOG(Error) << "worker cannot build campaign"
                     << obs::kv("worker", opt_.name)
                     << obs::kv("fingerprint", fp)
                     << obs::kv("error", e.what());
    release(e.what());
    return;
  }

  // Split the block. Experiments to execute, plus the out-of-block
  // representatives of its collapsed members that are not cached yet, go
  // through campaign::runLease; the members are materialized afterwards.
  const auto inBlock = [&](std::uint64_t i) {
    return i >= first && i < first + count;
  };
  const auto representativeOf = [&](unsigned member) {
    const auto cls = static_cast<std::size_t>(sys->memberClass[member]);
    return sys->plan.classes[cls].representative;
  };
  std::vector<unsigned> execute;
  std::vector<unsigned> members;
  for (std::uint64_t i = first; i < first + count; ++i) {
    const bool member = job.prune && sys->memberClass[i] >= 0;
    (member ? members : execute).push_back(static_cast<unsigned>(i));
  }
  for (const unsigned m : members) {
    const std::uint64_t rep = representativeOf(m);
    if (!inBlock(rep) && sys->repOutcomes.count(rep) == 0) {
      execute.push_back(static_cast<unsigned>(rep));
    }
  }
  std::ranges::sort(execute);
  execute.erase(std::unique(execute.begin(), execute.end()), execute.end());

  // The coordinator leases one wave of the job's tool. A pruned lease
  // executes its non-members plus the distinct uncached representatives of
  // its members, at most `count` experiments, so it is still one wave.
  std::vector<ExperimentOutcome> outcomes(count);
  const campaign::OutcomeSink deliver = [&](ExperimentOutcome outcome) {
    // Cache representatives untampered (classes are sorted by
    // representative), so members leased later clone instead of re-running.
    if (job.prune &&
        std::ranges::binary_search(sys->plan.classes, outcome.index, {},
                                   &campaign::PruneClass::representative)) {
      sys->repOutcomes.emplace(outcome.index, outcome);
    }
    if (inBlock(outcome.index)) {
      if (opt_.tamper) opt_.tamper(outcome);
      outcomes[outcome.index - first] = std::move(outcome);
    }
    return true;
  };

  obs::Counter& quarantined =
      obs::Registry::global().counter("campaign.quarantined");
  try {
    campaign::runLease(*sys->engine, job.spec, sys->pool, execute, quarantined,
                       deliver);
    for (const unsigned m : members) {
      deliver(campaign::materializeMember(
          *sys->engine, job.spec, sys->pool, m,
          sys->repOutcomes.at(representativeOf(m)), quarantined));
    }
  } catch (const FadesError& e) {
    // runLease absorbs transient engine errors; what reaches here is fatal
    // for this campaign on this worker.
    poisoned_[fp] = e.what();
    release(e.what());
    return;
  }

  Json complete = Json::object();
  complete.set("type", Json(std::string("complete")));
  complete.set("worker", Json(opt_.name));
  complete.set("fingerprint", Json(fp));
  complete.set("lease_id", Json(leaseId));
  complete.set("first", Json(first));
  Json list = Json::array();
  for (const auto& outcome : outcomes) {
    list.push(CampaignJournal::outcomeJson(outcome));
  }
  complete.set("outcomes", std::move(list));
  sendMessage(sock, complete);
  const auto ack = recvMessage(sock, opt_.recvTimeoutMs);
  if (!ack) {
    common::raise(ErrorKind::LinkError, "coordinator closed during completion");
  }
  if (messageType(*ack) == "error") {
    std::string why;
    ack->get("error", why);
    FADES_LOG(Warn) << "completion rejected" << obs::kv("worker", opt_.name)
                    << obs::kv("fingerprint", fp) << obs::kv("error", why);
  }
}

}  // namespace fades::service
