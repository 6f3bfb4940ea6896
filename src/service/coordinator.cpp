#include "service/coordinator.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/artifact.hpp"
#include "common/error.hpp"
#include "obs/artifact.hpp"
#include "obs/log.hpp"

namespace fades::service {

using campaign::CampaignJournal;
using campaign::ExperimentOutcome;
using common::ErrorKind;
using common::FadesError;
using common::require;
using obs::Json;

namespace {

namespace fs = std::filesystem;

Json errorReply(const std::string& message) {
  Json j = Json::object();
  j.set("type", Json(std::string("error")));
  j.set("error", Json(message));
  return j;
}

Json typed(const char* type) {
  Json j = Json::object();
  j.set("type", Json(std::string(type)));
  return j;
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options)
    : opt_(std::move(options)),
      cLeasesGranted_(obs::Registry::global().counter("service.leases_granted")),
      cLeasesExpired_(obs::Registry::global().counter("service.leases_expired")),
      cLeasesRequeued_(
          obs::Registry::global().counter("service.leases_requeued")),
      cBytesStreamed_(obs::Registry::global().counter("service.bytes_streamed")),
      gWorkersActive_(obs::Registry::global().gauge("service.workers_active")),
      gWorkersQuarantined_(
          obs::Registry::global().gauge("service.workers_quarantined")) {
  fs::create_directories(opt_.storeDir + "/campaigns");
  fs::create_directories(opt_.storeDir + "/journals");
  fs::create_directories(opt_.storeDir + "/objects");
  fs::create_directories(opt_.storeDir + "/service");
  // Bans survive coordinator restarts: a byzantine worker stays out even
  // after a --resume, so it cannot relitigate its quarantine by racing the
  // restarted coordinator to a lease.
  std::ifstream events(opt_.storeDir + "/service/events.jsonl");
  std::string line;
  while (std::getline(events, line)) {
    const auto parsed = Json::parse(line);
    if (!parsed) continue;  // torn tail from a killed append
    std::string event;
    std::string worker;
    std::string reason;
    if (parsed->get("event", event) && event == "ban" &&
        parsed->get("worker", worker)) {
      parsed->get("reason", reason);
      WorkerState& w = workers_[worker];
      w.name = worker;
      w.banned = true;
      w.banReason = reason;
    }
  }
  std::size_t banned = 0;
  for (const auto& [name, w] : workers_) banned += w.banned ? 1 : 0;
  gWorkersQuarantined_.set(static_cast<double>(banned));
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() {
  require(listener_ == nullptr, ErrorKind::InvalidArgument,
          "coordinator already started");
  listener_ = std::make_unique<Listener>(opt_.port);
  port_ = listener_->port();
  stop_.store(false);
  acceptThread_ = std::thread([this] { acceptLoop(); });
  reaperThread_ = std::thread([this] { reaperLoop(); });
  FADES_LOG(Info) << "coordinator listening"
                  << obs::kv("port", static_cast<std::uint64_t>(port_))
                  << obs::kv("store", opt_.storeDir);
}

void Coordinator::stop() {
  if (stop_.exchange(true)) {
    // A second stop still joins anything the first one raced with.
  }
  // Join the accept loop (it polls stop_) before closing its listener.
  if (acceptThread_.joinable()) acceptThread_.join();
  if (listener_ != nullptr) listener_->close();
  if (reaperThread_.joinable()) reaperThread_.join();
  std::map<std::uint64_t, std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(handlersMu_);
    handlers.swap(handlers_);
    finishedHandlers_.clear();
  }
  for (auto& [id, t] : handlers) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [fp, c] : campaigns_) {
    if (c->journal != nullptr) c->journal->close();
  }
}

// ---------------------------------------------------------------------------
// Campaign registration
// ---------------------------------------------------------------------------

std::string Coordinator::submit(const JobSpec& job) {
  validate(job);
  const std::string fp = fingerprint(job);
  std::lock_guard<std::mutex> lock(mu_);
  if (campaigns_.find(fp) != campaigns_.end()) return fp;

  auto c = std::make_unique<Campaign>();
  c->job = job;
  c->fp = fp;
  c->journal = std::make_unique<CampaignJournal>(
      opt_.storeDir + "/journals/" + fp + ".jsonl", opt_.fsync);
  // Always resume: the store is content-addressed, so a journal under this
  // fingerprint IS this campaign's prior progress (a different spec would
  // live under a different fingerprint). That makes coordinator restart and
  // duplicate submission both safe by default.
  c->journal->open(job.spec, /*resume=*/true);
  c->progress = std::make_unique<campaign::ProgressTracker>(
      campaign::toString(job.spec.model), job.spec.experiments,
      opt_.progressInterval);

  for (const auto& [index, outcome] : c->journal->completed()) {
    if (index >= job.spec.experiments) continue;
    c->committed[index] = outcome;
    c->journaled.insert(index);
    c->progress->record(outcome);
  }

  // One block per wave of the job's tool, so a lease is one engine call.
  const unsigned total = job.spec.experiments;
  const unsigned width = waveWidth(job);
  const unsigned blocks = (total + width - 1) / width;
  c->blocks.reserve(blocks);
  for (unsigned b = 0; b < blocks; ++b) {
    Block block;
    block.first = b * width;
    block.count = std::min(width, total - block.first);
    block.needsAgreement = opt_.auditEvery != 0 && b % opt_.auditEvery == 0;
    bool covered = true;
    for (unsigned i = block.first; i < block.first + block.count; ++i) {
      if (c->journaled.find(i) == c->journaled.end()) {
        covered = false;
        break;
      }
    }
    if (covered) {
      // Fully journaled (prior run): committed as-is. Journaled lines were
      // verified at commit time; re-verification would need the lying
      // worker's name, which the journal deliberately does not carry.
      block.state = BlockState::Done;
      ++c->doneBlocks;
    }
    c->blocks.push_back(std::move(block));
  }
  for (std::size_t b = 0; b < c->blocks.size(); ++b) {
    if (c->blocks[b].state == BlockState::Pending) c->queue.push_back(b);
  }

  FADES_LOG(Info) << "campaign submitted" << obs::kv("fingerprint", fp)
                  << obs::kv("experiments",
                             static_cast<std::uint64_t>(total))
                  << obs::kv("blocks", static_cast<std::uint64_t>(blocks))
                  << obs::kv("resumed",
                             static_cast<std::uint64_t>(c->committed.size()));
  order_.push_back(fp);
  auto& slot = campaigns_[fp];
  slot = std::move(c);
  writeMetaLocked(*slot);
  if (slot->doneBlocks == slot->blocks.size()) finalizeLocked(*slot);
  return fp;
}

std::vector<std::string> Coordinator::resumeFromStore() {
  std::vector<std::string> resumed;
  std::vector<JobSpec> jobs;
  {
    const fs::path dir = fs::path(opt_.storeDir) / "campaigns";
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() != ".json") continue;
      std::ifstream in(entry.path());
      std::stringstream text;
      text << in.rdbuf();
      const auto meta = Json::parse(text.str());
      if (!meta) {
        FADES_LOG(Warn) << "store meta unreadable"
                        << obs::kv("path", entry.path().string());
        continue;
      }
      const Json* jobJson = meta->find("job");
      JobSpec job;
      std::string error;
      if (jobJson == nullptr || !jobSpecFromJson(*jobJson, job, &error)) {
        FADES_LOG(Warn) << "store meta has no valid job"
                        << obs::kv("path", entry.path().string())
                        << obs::kv("error", error);
        continue;
      }
      jobs.push_back(std::move(job));
    }
  }
  for (const auto& job : jobs) resumed.push_back(submit(job));
  return resumed;
}

// ---------------------------------------------------------------------------
// Accept / connection handling
// ---------------------------------------------------------------------------

void Coordinator::acceptLoop() {
  while (!stop_.load()) {
    Socket sock = listener_->accept(/*timeoutMs=*/100);
    if (!sock.valid()) continue;
    std::lock_guard<std::mutex> lock(handlersMu_);
    for (const std::uint64_t id : finishedHandlers_) {
      const auto it = handlers_.find(id);
      if (it != handlers_.end()) {
        it->second.join();
        handlers_.erase(it);
      }
    }
    finishedHandlers_.clear();
    if (handlers_.size() >= 256) {
      // Bounded handler pool: a connect flood degrades into refused
      // connections, not unbounded thread creation.
      continue;
    }
    const std::uint64_t id = ++handlerSeq_;
    handlers_.emplace(
        id, std::thread(
                [this, id](Socket s) {
                  handleConnection(std::move(s));
                  std::lock_guard<std::mutex> lk(handlersMu_);
                  finishedHandlers_.push_back(id);
                },
                std::move(sock)));
  }
}

void Coordinator::handleConnection(Socket sock) {
  constexpr int kRecvTimeoutMs = 5000;  // per-frame read stall bound
  std::string helloWorker;
  bool counted = false;
  try {
    const auto hello = recvMessage(sock, kRecvTimeoutMs, &cBytesStreamed_);
    if (!hello) return;
    std::string type;
    std::string schema;
    if (!hello->get("type", type) || type != "hello" ||
        !hello->get("schema", schema) || schema != kWireSchema) {
      sendMessage(sock, errorReply("expected a fades.wire/1 hello"),
                  &cBytesStreamed_);
      return;
    }
    std::string role;
    hello->get("role", role);
    if (role == "worker" && hello->get("worker", helloWorker)) {
      counted = true;
      gWorkersActive_.set(activeWorkers_.fetch_add(1) + 1);
    }
    Json welcome = typed("welcome");
    welcome.set("schema", Json(std::string(kWireSchema)));
    sendMessage(sock, welcome, &cBytesStreamed_);

    while (!stop_.load()) {
      if (!waitReadable(sock, 100)) continue;
      const auto msg = recvMessage(sock, kRecvTimeoutMs, &cBytesStreamed_);
      if (!msg) break;
      Json reply;
      try {
        reply = dispatch(*msg, helloWorker);
      } catch (const FadesError& e) {
        reply = errorReply(e.what());
      }
      sendMessage(sock, reply, &cBytesStreamed_);
    }
  } catch (const std::exception& e) {
    // A stalled, flooding or vanished peer costs one log line and one
    // closed socket; its leases come back through deadline expiry.
    FADES_LOG(Warn) << "connection dropped"
                    << obs::kv("worker", helloWorker)
                    << obs::kv("error", e.what());
  }
  if (counted) {
    gWorkersActive_.set(activeWorkers_.fetch_sub(1) - 1);
  }
}

Json Coordinator::dispatch(const Json& msg, std::string& helloWorker) {
  std::string type;
  if (!msg.get("type", type)) {
    return errorReply("message has no type");
  }
  if (type == "lease_request") {
    std::string worker = helloWorker;
    msg.get("worker", worker);
    if (worker.empty()) return errorReply("lease_request needs a worker name");
    return handleLease(worker);
  }
  if (type == "complete") return handleComplete(msg);
  if (type == "release") return handleRelease(msg);
  if (type == "submit") return handleSubmit(msg);
  if (type == "status") return handleStatus(msg);
  if (type == "fetch") return handleFetch(msg);
  return errorReply("unknown message type '" + type + "'");
}

// ---------------------------------------------------------------------------
// Worker bookkeeping
// ---------------------------------------------------------------------------

Coordinator::WorkerState& Coordinator::workerLocked(const std::string& name) {
  WorkerState& w = workers_[name];
  if (w.name.empty()) w.name = name;
  return w;
}

void Coordinator::strikeLocked(WorkerState& w, const std::string& why) {
  // A strike (missed deadline, released lease) backs the worker off for
  // 250 ms, doubling per strike up to 2^6 times that; the 8th strike bans.
  constexpr int kStrikeBackoffBaseMs = 250;
  constexpr unsigned kStrikesBeforeBan = 8;
  ++w.strikes;
  const unsigned shift = std::min(w.strikes - 1, 6u);
  const auto backoff =
      std::chrono::milliseconds(kStrikeBackoffBaseMs << shift);
  w.backoffUntil = std::chrono::steady_clock::now() + backoff;
  FADES_LOG(Warn) << "worker strike" << obs::kv("worker", w.name)
                  << obs::kv("strikes", static_cast<std::uint64_t>(w.strikes))
                  << obs::kv("backoff_ms",
                             static_cast<std::uint64_t>(backoff.count()))
                  << obs::kv("why", why);
  if (!w.banned && w.strikes >= kStrikesBeforeBan) {
    banLocked(w, "exceeded strike threshold (" + why + ")");
  }
}

void Coordinator::banLocked(WorkerState& w, const std::string& reason) {
  if (w.banned) return;
  w.banned = true;
  w.banReason = reason;
  std::size_t banned = 0;
  for (const auto& [name, ws] : workers_) banned += ws.banned ? 1 : 0;
  gWorkersQuarantined_.set(static_cast<double>(banned));
  Json event = Json::object();
  event.set("event", Json(std::string("ban")));
  event.set("worker", Json(w.name));
  event.set("reason", Json(reason));
  appendEventLocked(event);
  FADES_LOG(Error) << "worker banned" << obs::kv("worker", w.name)
                   << obs::kv("reason", reason);

  // Expunge the liar's uncorroborated work: every Done block whose winning
  // result came from this worker alone goes back to the queue, and the
  // journal is atomically rewritten without those lines so no downstream
  // reader (resume, analytics, the final fold) ever sees them.
  for (const auto& fp : order_) {
    Campaign& c = *campaigns_[fp];
    if (c.complete) continue;
    bool dirty = false;
    for (std::size_t b = 0; b < c.blocks.size(); ++b) {
      Block& block = c.blocks[b];
      if (block.state != BlockState::Done || block.winnerWorker != w.name) {
        continue;
      }
      bool corroborated = false;
      for (const auto& r : block.results) {
        if (r.worker != w.name && r.digest == block.winnerDigest) {
          corroborated = true;
          break;
        }
      }
      if (corroborated) continue;
      uncommitLocked(c, block);
      block.results.erase(
          std::remove_if(block.results.begin(), block.results.end(),
                         [&](const BlockResult& r) {
                           return r.worker == w.name;
                         }),
          block.results.end());
      block.needsAgreement = true;
      requeueLocked(c, b, /*front=*/true);
      dirty = true;
    }
    if (dirty) c.journal->rewrite(c.job.spec, c.committed);
  }
}

// ---------------------------------------------------------------------------
// Block lifecycle
// ---------------------------------------------------------------------------

void Coordinator::requeueLocked(Campaign& c, std::size_t blockIdx,
                                bool front) {
  Block& block = c.blocks[blockIdx];
  block.state = BlockState::Pending;
  block.leaseId = 0;
  block.lessee.clear();
  if (front) {
    c.queue.push_front(blockIdx);
  } else {
    c.queue.push_back(blockIdx);
  }
  cLeasesRequeued_.inc();
}

void Coordinator::uncommitLocked(Campaign& c, Block& block) {
  for (unsigned i = block.first; i < block.first + block.count; ++i) {
    c.committed.erase(i);
    c.journaled.erase(i);
  }
  if (block.state == BlockState::Done) --c.doneBlocks;
  block.state = BlockState::Pending;
  block.winnerWorker.clear();
  block.winnerDigest.clear();
}

void Coordinator::commitLocked(Campaign& c, std::size_t blockIdx,
                               const BlockResult& result) {
  Block& block = c.blocks[blockIdx];
  for (const auto& outcome : result.outcomes) {
    if (c.journaled.insert(outcome.index).second) {
      c.journal->append(outcome);
      c.progress->record(outcome);
    }
    c.committed[outcome.index] = outcome;
  }
  block.state = BlockState::Done;
  block.leaseId = 0;
  block.lessee.clear();
  block.winnerWorker = result.worker;
  block.winnerDigest = result.digest;
  ++c.doneBlocks;
  if (c.doneBlocks == c.blocks.size()) finalizeLocked(c);
}

void Coordinator::resolveLocked(Campaign& c, std::size_t blockIdx) {
  Block& block = c.blocks[blockIdx];
  // Agreement rule: commit the earliest result whose digest a second,
  // distinct worker has reproduced. Workers whose digest disagrees with the
  // agreed one are byzantine by construction (every outcome is a pure
  // function of (spec, index), so honest workers cannot disagree).
  for (std::size_t i = 0; i < block.results.size(); ++i) {
    for (std::size_t j = i + 1; j < block.results.size(); ++j) {
      if (block.results[i].digest != block.results[j].digest) continue;
      if (block.results[i].worker == block.results[j].worker) continue;
      const BlockResult winner = block.results[i];
      std::vector<std::string> liars;
      for (const auto& r : block.results) {
        if (r.digest != winner.digest) liars.push_back(r.worker);
      }
      commitLocked(c, blockIdx, winner);
      for (const auto& liar : liars) {
        banLocked(workerLocked(liar),
                  "result digest disagrees with agreed block " +
                      c.fp + "/" + std::to_string(block.first));
      }
      return;
    }
  }
  if (!block.needsAgreement && block.results.size() == 1) {
    commitLocked(c, blockIdx, block.results[0]);
    return;
  }
  if (block.results.size() >= 2) {
    // Distinct digests and no agreement yet: someone is lying, we cannot
    // yet say who. Escalate to the agreement rule and let more workers
    // vote.
    if (!block.needsAgreement) {
      FADES_LOG(Warn) << "block result dispute"
                      << obs::kv("fingerprint", c.fp)
                      << obs::kv("first",
                                 static_cast<std::uint64_t>(block.first))
                      << obs::kv("results", static_cast<std::uint64_t>(
                                                block.results.size()));
      block.needsAgreement = true;
    }
  }
  // No commit yet: make sure the block stays claimable. A block still
  // Leased to someone else is left alone - that lessee's completion is the
  // next vote - and one already queued is not queued twice.
  if (block.state == BlockState::Pending &&
      std::find(c.queue.begin(), c.queue.end(), blockIdx) == c.queue.end()) {
    requeueLocked(c, blockIdx, /*front=*/true);
  }
}

void Coordinator::finalizeLocked(Campaign& c) {
  campaign::CampaignResult result;
  result.spec = c.job.spec;
  // The canonical index-ordered fold (std::map iterates in key order): the
  // same merge the single-process runner does, which is what keeps the
  // artifact byte-identical at any worker count and kill schedule.
  for (const auto& [index, outcome] : c.committed) result.fold(outcome);
  const std::string text = artifactText(c.job, result);
  const std::string object = fnv1a64Hex(text);
  obs::writeFile(opt_.storeDir + "/objects/" + object + ".json", text);
  c.artifactObject = object;
  c.complete = true;
  writeMetaLocked(c);
  FADES_LOG(Info) << "campaign complete" << obs::kv("fingerprint", c.fp)
                  << obs::kv("object", object)
                  << obs::kv("bytes",
                             static_cast<std::uint64_t>(text.size()));
  allDoneCv_.notify_all();
}

void Coordinator::writeMetaLocked(const Campaign& c) {
  Json meta = Json::object();
  meta.set("schema", Json(std::string("fades.store/1")));
  meta.set("fingerprint", Json(c.fp));
  meta.set("job", toJson(c.job));
  meta.set("complete", Json(c.complete));
  if (!c.artifactObject.empty()) meta.set("object", Json(c.artifactObject));
  obs::writeFile(opt_.storeDir + "/campaigns/" + c.fp + ".json",
                 meta.dump(2) + "\n");
}

void Coordinator::appendEventLocked(const Json& event) {
  std::ofstream out(opt_.storeDir + "/service/events.jsonl",
                    std::ios::app | std::ios::binary);
  out << event.dump() << "\n";
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

Json Coordinator::handleLease(const std::string& worker) {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerState& w = workerLocked(worker);
  if (w.banned) {
    Json j = typed("shutdown");
    j.set("reason", Json("worker is quarantined: " + w.banReason));
    return j;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now < w.backoffUntil) {
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        w.backoffUntil - now);
    Json j = typed("idle");
    j.set("retry_ms", Json(static_cast<std::uint64_t>(wait.count())));
    return j;
  }
  // Round-robin across campaigns so a long campaign cannot starve a short
  // one submitted after it.
  for (std::size_t step = 0; step < order_.size(); ++step) {
    Campaign& c =
        *campaigns_[order_[(rrCursor_ + step) % order_.size()]];
    if (c.complete) continue;
    for (std::size_t scans = c.queue.size(); scans > 0; --scans) {
      const std::size_t blockIdx = c.queue.front();
      c.queue.pop_front();
      Block& block = c.blocks[blockIdx];
      if (block.state != BlockState::Pending) continue;  // stale queue entry
      bool hasOwnResult = false;
      for (const auto& r : block.results) {
        if (r.worker == worker) {
          hasOwnResult = true;
          break;
        }
      }
      if (hasOwnResult) {
        // A worker cannot second its own result; leave the block for
        // someone else.
        c.queue.push_back(blockIdx);
        continue;
      }
      block.state = BlockState::Leased;
      block.leaseId = ++leaseSeq_;
      block.lessee = worker;
      block.deadline = now + std::chrono::milliseconds(opt_.leaseMs);
      cLeasesGranted_.inc();
      rrCursor_ = (rrCursor_ + step) % order_.size();
      Json j = typed("lease");
      j.set("fingerprint", Json(c.fp));
      j.set("lease_id", Json(block.leaseId));
      j.set("first", Json(static_cast<std::uint64_t>(block.first)));
      j.set("count", Json(static_cast<std::uint64_t>(block.count)));
      j.set("job", toJson(c.job));
      return j;
    }
  }
  if (opt_.shutdownWhenDone && !order_.empty()) {
    bool done = true;
    for (const auto& fp : order_) done = done && campaigns_[fp]->complete;
    if (done) {
      Json j = typed("shutdown");
      j.set("reason", Json(std::string("all campaigns complete")));
      return j;
    }
  }
  Json j = typed("idle");
  j.set("retry_ms", Json(static_cast<std::uint64_t>(200)));
  return j;
}

Json Coordinator::handleComplete(const Json& msg) {
  std::string worker;
  std::string fp;
  std::uint64_t first = 0;
  if (!msg.get("worker", worker) ||
      !msg.get("fingerprint", fp) || !msg.get("first", first)) {
    return errorReply("complete misses worker/fingerprint/first");
  }
  const Json* outcomesJson = msg.find("outcomes");

  std::lock_guard<std::mutex> lock(mu_);
  Campaign* c = findCampaignLocked(fp);
  if (c == nullptr) return errorReply("unknown campaign " + fp);
  Block* block = findBlockLocked(*c, static_cast<unsigned>(first));
  if (block == nullptr) {
    return errorReply("campaign " + fp + " has no block at " +
                      std::to_string(first));
  }
  const std::size_t blockIdx =
      static_cast<std::size_t>(block - c->blocks.data());

  // Parse and validate the streamed outcomes: exactly the block's indices,
  // in order, each line round-tripping through the journal codec. Anything
  // else is a protocol violation - strike the sender, keep the block.
  BlockResult result;
  result.worker = worker;
  bool valid = outcomesJson != nullptr && outcomesJson->isArray() &&
               outcomesJson->items().size() == block->count;
  if (valid) {
    result.outcomes.reserve(block->count);
    for (std::size_t i = 0; i < outcomesJson->items().size(); ++i) {
      ExperimentOutcome outcome;
      if (!CampaignJournal::outcomeFromJson(outcomesJson->items()[i],
                                            outcome) ||
          outcome.index != block->first + i) {
        valid = false;
        break;
      }
      result.outcomes.push_back(std::move(outcome));
    }
  }
  if (!valid) {
    strikeLocked(workerLocked(worker), "malformed completion payload");
    return errorReply("completion payload does not match block " + fp + "/" +
                      std::to_string(first));
  }
  result.digest = resultDigest(result.outcomes);

  if (block->state == BlockState::Done) {
    // Duplicate completion: first-committed wins; this one is only checked
    // for agreement. A clean match is an expired-lease echo; a mismatch
    // means the committed result and this one cannot both be honest, so the
    // block goes back under the two-agreeing-workers rule and the journal
    // drops its lines until the vote settles.
    if (result.digest == block->winnerDigest) {
      Json j = typed("complete_ack");
      j.set("committed", Json(false));
      return j;
    }
    FADES_LOG(Warn) << "duplicate completion disagrees"
                    << obs::kv("fingerprint", fp)
                    << obs::kv("first", static_cast<std::uint64_t>(first))
                    << obs::kv("committed_by", block->winnerWorker)
                    << obs::kv("disputed_by", worker);
    uncommitLocked(*c, *block);
    c->journal->rewrite(c->job.spec, c->committed);
    block->needsAgreement = true;
  }

  if (block->state == BlockState::Leased && block->lessee == worker) {
    block->state = BlockState::Pending;
    block->leaseId = 0;
    block->lessee.clear();
  }
  bool replaced = false;
  for (auto& r : block->results) {
    if (r.worker == worker) {
      r = result;
      replaced = true;
      break;
    }
  }
  if (!replaced) block->results.push_back(std::move(result));
  const std::size_t done = c->doneBlocks;
  resolveLocked(*c, blockIdx);
  Json j = typed("complete_ack");
  j.set("committed", Json(c->doneBlocks > done ||
                          c->blocks[blockIdx].state == BlockState::Done));
  return j;
}

Json Coordinator::handleRelease(const Json& msg) {
  std::string worker;
  std::string fp;
  std::uint64_t leaseId = 0;
  std::uint64_t first = 0;
  std::string error;
  if (!msg.get("worker", worker) ||
      !msg.get("fingerprint", fp) ||
      !msg.get("lease_id", leaseId) || !msg.get("first", first)) {
    return errorReply("release misses worker/fingerprint/lease_id/first");
  }
  msg.get("error", error);
  std::lock_guard<std::mutex> lock(mu_);
  Campaign* c = findCampaignLocked(fp);
  Block* block =
      c != nullptr ? findBlockLocked(*c, static_cast<unsigned>(first))
                   : nullptr;
  // Idempotent: releasing an expired, re-leased or already completed block
  // (including the same release arriving twice) acknowledges without
  // touching state - only the exact live lease is returned to the queue.
  if (block != nullptr && block->state == BlockState::Leased &&
      block->leaseId == leaseId && block->lessee == worker) {
    requeueLocked(*c, static_cast<std::size_t>(block - c->blocks.data()),
                  /*front=*/true);
    strikeLocked(workerLocked(worker),
                 error.empty() ? "released lease" : "released lease: " + error);
  }
  return typed("release_ack");
}

Json Coordinator::handleSubmit(const Json& msg) {
  const Json* jobJson = msg.find("job");
  JobSpec job;
  std::string error;
  if (jobJson == nullptr || !jobSpecFromJson(*jobJson, job, &error)) {
    return errorReply("submit carries no valid job: " + error);
  }
  try {
    const std::string fp = submit(job);
    Json j = typed("submitted");
    j.set("fingerprint", Json(fp));
    return j;
  } catch (const FadesError& e) {
    return errorReply(e.what());
  }
}

Json Coordinator::handleStatus(const Json& msg) {
  Json j = typed("status_report");
  std::lock_guard<std::mutex> lock(mu_);
  std::string fp;
  if (msg.get("fingerprint", fp)) {
    Campaign* c = findCampaignLocked(fp);
    if (c == nullptr) return errorReply("unknown campaign " + fp);
    j.set("fingerprint", Json(fp));
    j.set("done", Json(static_cast<std::uint64_t>(c->committed.size())));
    j.set("total",
          Json(static_cast<std::uint64_t>(c->job.spec.experiments)));
    j.set("complete", Json(c->complete));
    if (!c->artifactObject.empty()) j.set("object", Json(c->artifactObject));
  } else {
    Json list = Json::array();
    for (const auto& name : order_) list.push(Json(name));
    j.set("campaigns", std::move(list));
  }
  j.set("workers_active", Json(static_cast<std::uint64_t>(
                              std::max(0, activeWorkers_.load()))));
  j.set("workers_quarantined",
        Json(static_cast<std::uint64_t>(gWorkersQuarantined_.value())));
  j.set("leases_granted", Json(cLeasesGranted_.value()));
  j.set("leases_expired", Json(cLeasesExpired_.value()));
  j.set("leases_requeued", Json(cLeasesRequeued_.value()));
  j.set("bytes_streamed", Json(cBytesStreamed_.value()));
  return j;
}

Json Coordinator::handleFetch(const Json& msg) {
  std::string fp;
  if (!msg.get("fingerprint", fp)) {
    return errorReply("fetch misses fingerprint");
  }
  std::string object;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Campaign* c = findCampaignLocked(fp);
    if (c == nullptr) return errorReply("unknown campaign " + fp);
    if (!c->complete) return errorReply("campaign " + fp + " is not complete");
    object = c->artifactObject;
    path = opt_.storeDir + "/objects/" + object + ".json";
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return errorReply("cannot read artifact object " + object);
  }
  if (text.str().size() + 1024 > kMaxFrameBytes) {
    return errorReply("artifact " + object +
                      " exceeds the frame bound; read it from the store at " +
                      path);
  }
  Json j = typed("artifact");
  j.set("fingerprint", Json(fp));
  j.set("object", Json(object));
  j.set("content", Json(text.str()));
  return j;
}

// ---------------------------------------------------------------------------
// Reaper / progress
// ---------------------------------------------------------------------------

void Coordinator::reaperLoop() {
  auto lastProgress = std::chrono::steady_clock::now();
  while (!stop_.load()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(opt_.reaperTickMs));
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& fp : order_) {
      Campaign& c = *campaigns_[fp];
      if (c.complete) continue;
      for (std::size_t b = 0; b < c.blocks.size(); ++b) {
        Block& block = c.blocks[b];
        if (block.state != BlockState::Leased || now < block.deadline) {
          continue;
        }
        // Missed deadline: the lease is void. The worker may be dead
        // (SIGKILL), wedged, or merely slow - either way the block goes
        // back to the queue and the lessee earns a strike. A slow worker's
        // late completion is still accepted and digest-checked.
        cLeasesExpired_.inc();
        FADES_LOG(Warn) << "lease expired" << obs::kv("fingerprint", fp)
                        << obs::kv("first",
                                   static_cast<std::uint64_t>(block.first))
                        << obs::kv("worker", block.lessee);
        const std::string lessee = block.lessee;
        requeueLocked(c, b, /*front=*/true);
        strikeLocked(workerLocked(lessee), "lease deadline missed");
      }
    }
    if (opt_.progressLogMs > 0 &&
        now - lastProgress >=
            std::chrono::milliseconds(opt_.progressLogMs)) {
      lastProgress = now;
      logProgressLocked();
    }
  }
}

void Coordinator::logProgressLocked() {
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  for (const auto& fp : order_) {
    Campaign& c = *campaigns_[fp];
    done += c.committed.size();
    total += c.job.spec.experiments;
    if (!c.complete && opt_.progressInterval != 0) c.progress->heartbeat();
  }
  FADES_LOG(Info) << "service progress" << obs::kv("done", done)
                  << obs::kv("total", total)
                  << obs::kv("leases_granted", cLeasesGranted_.value())
                  << obs::kv("leases_expired", cLeasesExpired_.value())
                  << obs::kv("leases_requeued", cLeasesRequeued_.value())
                  << obs::kv("workers_active",
                             static_cast<std::uint64_t>(
                                 std::max(0, activeWorkers_.load())))
                  << obs::kv("workers_quarantined",
                             static_cast<std::uint64_t>(
                                 gWorkersQuarantined_.value()))
                  << obs::kv("bytes_streamed", cBytesStreamed_.value());
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

Coordinator::Campaign* Coordinator::findCampaignLocked(const std::string& fp) {
  const auto it = campaigns_.find(fp);
  return it == campaigns_.end() ? nullptr : it->second.get();
}

Coordinator::Block* Coordinator::findBlockLocked(Campaign& c, unsigned first) {
  const std::size_t idx = first / waveWidth(c.job);
  if (idx >= c.blocks.size() || c.blocks[idx].first != first) return nullptr;
  return &c.blocks[idx];
}

std::string Coordinator::resultDigest(
    const std::vector<ExperimentOutcome>& outcomes) {
  std::string text;
  for (const auto& outcome : outcomes) {
    text += CampaignJournal::outcomeLine(outcome);
  }
  return fnv1a64Hex(text);
}

bool Coordinator::campaignComplete(const std::string& fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = campaigns_.find(fingerprint);
  return it != campaigns_.end() && it->second->complete;
}

bool Coordinator::allComplete() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (campaigns_.empty()) return false;
  for (const auto& [fp, c] : campaigns_) {
    if (!c->complete) return false;
  }
  return true;
}

bool Coordinator::waitForAllComplete(int timeoutMs) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto done = [this] {
    if (campaigns_.empty()) return false;
    for (const auto& [fp, c] : campaigns_) {
      if (!c->complete) return false;
    }
    return true;
  };
  if (timeoutMs < 0) {
    allDoneCv_.wait(lock, done);
    return true;
  }
  return allDoneCv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                             done);
}

std::string Coordinator::artifactPath(const std::string& fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = campaigns_.find(fingerprint);
  if (it == campaigns_.end() || !it->second->complete) return "";
  return opt_.storeDir + "/objects/" + it->second->artifactObject + ".json";
}

std::vector<std::string> Coordinator::bannedWorkers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> banned;
  for (const auto& [name, w] : workers_) {
    if (w.banned) banned.push_back(name);
  }
  return banned;
}

}  // namespace fades::service
