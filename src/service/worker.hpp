// Campaign worker daemon - the client half of the distributed service.
//
// A worker connects to the coordinator, leases blocks of experiments, runs
// each block through campaign::runLease - the in-process runner's lease
// executor, so compiled leases run as waves, transient errors retry against
// a recovered replica and persistent ones quarantine the experiment - and
// streams the block's outcomes back in one completion message. A block is
// one wave of the job's tool, so the worker says nothing between lease and
// completion; a completion that arrives after the deadline is a late
// duplicate the coordinator still digest-checks.
//
// Link robustness mirrors the worker's own experiment discipline: any wire
// error drops the connection, and the daemon reconnects with capped
// exponential backoff. Campaign state lives entirely on the coordinator, so
// a reconnected worker just asks for the next lease.
//
// The `tamper` hook exists to make the byzantine defense testable: it
// mutates outcomes after execution but before they hit the wire - a worker
// that lies about results, not one that mis-runs them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "campaign/types.hpp"
#include "service/jobspec.hpp"
#include "service/wire.hpp"

namespace fades::service {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Stable worker identity; strikes, backoff and bans attach to this name
  /// across reconnects. Empty derives "worker-<pid>".
  std::string name;
  /// Per-frame read stall bound on the coordinator connection.
  int recvTimeoutMs = 5000;
  /// Consecutive failed connect attempts before run() gives up (0 = retry
  /// until stopped).
  unsigned maxReconnects = 0;
  /// Byzantine test hook: mutate each outcome before it is streamed back.
  std::function<void(campaign::ExperimentOutcome&)> tamper;
};

class WorkerDaemon {
 public:
  explicit WorkerDaemon(WorkerOptions options);

  /// Serve leases until the coordinator answers "shutdown" (returns 0),
  /// stop() is called (returns 0), or the reconnect budget runs out
  /// (returns 1).
  int run();

  /// Ask run() to wind down at the next poll point.
  void stop() { stop_.store(true); }

  const std::string& name() const { return opt_.name; }

 private:
  struct CachedSystem {
    std::shared_ptr<CampaignSystem> system;
    std::unique_ptr<campaign::CampaignEngine> engine;
    std::vector<std::uint32_t> pool;
    /// job.prune only: the deterministic fades.prune/1 plan, the member ->
    /// class map, and the representatives this worker has already executed
    /// (a member leased before its representative runs it on demand, once).
    /// Cached untampered: `tamper` applies only to the outcomes sent.
    campaign::PrunePlan plan;
    std::vector<std::int32_t> memberClass;
    std::map<std::uint64_t, campaign::ExperimentOutcome> repOutcomes;
    std::uint64_t lastUsed = 0;
  };

  enum class Served : std::uint8_t { Shutdown, Stopped, LinkLost };

  Served serveConnection(const Socket& sock);
  void runLease(const Socket& sock, const obs::Json& lease);
  CachedSystem& systemFor(const JobSpec& job, const std::string& fp);
  void sleepInterruptible(int ms);

  WorkerOptions opt_;
  std::atomic<bool> stop_{false};
  std::map<std::string, CachedSystem> systems_;
  std::uint64_t useSeq_ = 0;
  /// Fingerprints whose system failed to build or hit a fatal engine error:
  /// leases for them are released instead of retried forever.
  std::map<std::string, std::string> poisoned_;
};

}  // namespace fades::service
