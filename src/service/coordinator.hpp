// Campaign coordinator - the server half of the distributed service.
//
// The coordinator owns the campaign: it partitions each submitted job's
// experiment range into contiguous blocks one wave of the job's tool wide
// (waveWidth(job): 1 for fades, 63 for vfit and autonomous), leases blocks
// to workers with a deadline, and folds the streamed-back outcomes in index
// order into the same merge every other execution plane uses. A lease is
// one engine call on the worker. Workers are assumed unreliable in every
// way the paper's board links are, plus one more: they can lie. The
// defenses, in order of escalation:
//
//  - A lease that misses its deadline (no completion) is requeued for
//    another worker; the late worker earns a strike and an exponentially
//    growing backoff, and enough strikes ban it outright. Its late
//    completion is still accepted and digest-checked.
//  - Duplicate completions of one block are resolved deterministically:
//    the first committed result wins, the second is verified equal by
//    digest. A mismatch is a byzantine signal - the block is re-run until
//    two distinct workers agree, every worker whose result disagrees with
//    the agreed digest is banned, its uncorroborated blocks are re-queued
//    and its journal lines are expunged by an atomic rewrite.
//  - An audit mode (auditEvery = N) forces every Nth block through the
//    two-agreeing-workers rule even without a dispute, bounding how long a
//    quiet liar can survive.
//
// Crash safety: the coordinator's durable state is a superset of the
// single-process journal format - per-campaign fades.journal/1 files plus a
// fades.store/1 meta file per campaign in a content-addressed store
// directory. Killing the coordinator at any instant and restarting it with
// --resume replays the journals through the standard resume path; the merged
// artifact stays byte-identical to an uninterrupted single-process run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/types.hpp"
#include "obs/metrics.hpp"
#include "service/jobspec.hpp"
#include "service/wire.hpp"

namespace fades::service {

struct CoordinatorOptions {
  /// Listen port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Artifact-store directory: campaigns/ (job meta), journals/ (crash-safe
  /// outcome journals), objects/ (content-addressed artifacts), service/
  /// (worker ban events).
  std::string storeDir = "fades-store";
  /// Lease lifetime; a worker must complete its lease within this.
  int leaseMs = 10000;
  /// Lease-expiry scan period.
  int reaperTickMs = 100;
  /// Service progress log period; 0 disables the periodic line.
  int progressLogMs = 2000;
  /// Every Nth block (per campaign) requires two agreeing results from
  /// distinct workers before committing; 0 trusts single results unless a
  /// duplicate completion disagrees.
  unsigned auditEvery = 0;
  /// ProgressTracker heartbeat interval in experiments; 0 disables.
  std::uint64_t progressInterval = 0;
  /// fsync policy for the campaign journals.
  campaign::FsyncPolicy fsync = campaign::FsyncPolicy::Never;
  /// Reply "shutdown" to lease requests once every campaign is complete
  /// (lets a fixed worker fleet drain and exit; used by --once).
  bool shutdownWhenDone = false;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Bind the listener and start the accept + reaper threads.
  void start();
  /// Close the listener, join every thread, close journals. Idempotent.
  void stop();

  /// Resolved listen port (after start()).
  std::uint16_t port() const { return port_; }

  /// Register a campaign; idempotent on the job fingerprint, which it
  /// returns. An existing journal for this fingerprint is resumed (the
  /// store is content-addressed: same fingerprint = same campaign).
  std::string submit(const JobSpec& job);

  /// Re-submit every campaign recorded in the store's campaigns/ directory;
  /// returns their fingerprints. The --resume path after a coordinator kill.
  std::vector<std::string> resumeFromStore();

  bool campaignComplete(const std::string& fingerprint) const;
  bool allComplete() const;
  /// Block until every submitted campaign is complete (false on timeout;
  /// timeoutMs < 0 waits forever).
  bool waitForAllComplete(int timeoutMs);

  /// Path of the merged artifact object; empty until the campaign
  /// completes.
  std::string artifactPath(const std::string& fingerprint) const;

  /// Banned (byzantine or chronically late) worker names.
  std::vector<std::string> bannedWorkers() const;

 private:
  struct BlockResult {
    std::string worker;
    std::string digest;
    std::vector<campaign::ExperimentOutcome> outcomes;
  };

  enum class BlockState : std::uint8_t { Pending, Leased, Done };

  struct Block {
    unsigned first = 0;
    unsigned count = 0;
    BlockState state = BlockState::Pending;
    std::uint64_t leaseId = 0;
    std::string lessee;
    std::chrono::steady_clock::time_point deadline{};
    /// Two agreeing results from distinct workers required before commit
    /// (audit blocks, and any block that ever saw a digest dispute).
    bool needsAgreement = false;
    std::vector<BlockResult> results;
    std::string winnerWorker;
    std::string winnerDigest;
  };

  struct Campaign {
    JobSpec job;
    std::string fp;
    std::vector<Block> blocks;
    std::deque<std::size_t> queue;
    std::map<std::uint64_t, campaign::ExperimentOutcome> committed;
    std::set<std::uint64_t> journaled;
    std::unique_ptr<campaign::CampaignJournal> journal;
    std::unique_ptr<campaign::ProgressTracker> progress;
    std::size_t doneBlocks = 0;
    bool complete = false;
    std::string artifactObject;
  };

  struct WorkerState {
    std::string name;
    unsigned strikes = 0;
    std::chrono::steady_clock::time_point backoffUntil{};
    bool banned = false;
    std::string banReason;
  };

  void acceptLoop();
  void reaperLoop();
  void handleConnection(Socket sock);
  obs::Json dispatch(const obs::Json& msg, std::string& helloWorker);

  obs::Json handleLease(const std::string& worker);
  obs::Json handleComplete(const obs::Json& msg);
  obs::Json handleRelease(const obs::Json& msg);
  obs::Json handleSubmit(const obs::Json& msg);
  obs::Json handleStatus(const obs::Json& msg);
  obs::Json handleFetch(const obs::Json& msg);

  // All of the below require mu_ held.
  WorkerState& workerLocked(const std::string& name);
  void strikeLocked(WorkerState& w, const std::string& why);
  void banLocked(WorkerState& w, const std::string& reason);
  void requeueLocked(Campaign& c, std::size_t blockIdx, bool front);
  void uncommitLocked(Campaign& c, Block& block);
  void commitLocked(Campaign& c, std::size_t blockIdx,
                    const BlockResult& result);
  void resolveLocked(Campaign& c, std::size_t blockIdx);
  void finalizeLocked(Campaign& c);
  void writeMetaLocked(const Campaign& c);
  void appendEventLocked(const obs::Json& event);
  void logProgressLocked();
  Campaign* findCampaignLocked(const std::string& fp);
  Block* findBlockLocked(Campaign& c, unsigned first);

  static std::string resultDigest(
      const std::vector<campaign::ExperimentOutcome>& outcomes);

  CoordinatorOptions opt_;
  std::uint16_t port_ = 0;
  std::unique_ptr<Listener> listener_;
  std::atomic<bool> stop_{false};
  std::thread acceptThread_;
  std::thread reaperThread_;
  std::mutex handlersMu_;
  std::map<std::uint64_t, std::thread> handlers_;
  std::vector<std::uint64_t> finishedHandlers_;
  std::uint64_t handlerSeq_ = 0;
  std::atomic<int> activeWorkers_{0};

  mutable std::mutex mu_;
  std::condition_variable allDoneCv_;
  std::uint64_t leaseSeq_ = 0;
  std::vector<std::string> order_;
  std::map<std::string, std::unique_ptr<Campaign>> campaigns_;
  std::map<std::string, WorkerState> workers_;
  std::size_t rrCursor_ = 0;

  obs::Counter& cLeasesGranted_;
  obs::Counter& cLeasesExpired_;
  obs::Counter& cLeasesRequeued_;
  obs::Counter& cBytesStreamed_;
  obs::Gauge& gWorkersActive_;
  obs::Gauge& gWorkersQuarantined_;
};

}  // namespace fades::service
