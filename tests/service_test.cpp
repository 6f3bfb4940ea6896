// Distributed campaign service tests.
//
// Every scenario here runs coordinator and workers in-process over real
// loopback sockets - the same wire path the fades_coordinator/fades_worker
// binaries use - so the tests cover the protocol, not a mock of it. The
// chaos cases (vanished worker, coordinator restart) simulate SIGKILL by
// dropping connections / destroying the coordinator without any graceful
// goodbye; the crash-safe store is what must carry the state across.
//
// The load-bearing assertion throughout: the merged artifact text equals a
// serial in-process fold of the same JobSpec, byte for byte, at any worker
// count and under any kill schedule.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/parallel.hpp"
#include "campaign/prune_plan.hpp"
#include "campaign/types.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "service/coordinator.hpp"
#include "service/jobspec.hpp"
#include "service/wire.hpp"
#include "service/worker.hpp"

namespace fades {
namespace {

namespace fs = std::filesystem;
using obs::Json;

fs::path makeTempDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("fades-service-test-" + tag + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The fast multi-unit workload; every service test uses it so a full
/// campaign finishes in well under a second per worker.
service::JobSpec demoJob(unsigned experiments, std::uint64_t seed = 11) {
  service::JobSpec job;
  job.workload = "demo";
  job.spec.experiments = experiments;
  job.spec.seed = seed;
  return job;
}

/// Serial in-process reference: fold every experiment in index order through
/// buildSystem and runExperimentWithRetry, the discipline campaign::runLease
/// applies on the workers. This is the byte-identity target for every
/// distributed scenario.
std::string referenceArtifact(const service::JobSpec& job) {
  const auto system = service::buildSystem(job);
  const auto engine = system->factory();
  const auto pool = engine->enumeratePool(job.spec);
  campaign::CampaignResult result;
  result.spec = job.spec;
  auto& quarantined = obs::Registry::global().counter("test.quarantined");
  for (unsigned i = 0; i < job.spec.experiments; ++i) {
    result.fold(campaign::runExperimentWithRetry(*engine, job.spec, pool, i,
                                                 quarantined));
  }
  return service::artifactText(job, result);
}

/// Minimal raw-wire client: performs the hello handshake and exposes one
/// request/response exchange. Used to drive the coordinator into the edge
/// cases a well-behaved WorkerDaemon never produces.
class RawClient {
 public:
  RawClient(std::uint16_t port, const std::string& worker) : worker_(worker) {
    sock_ = service::connectTo("127.0.0.1", port, 2000);
    Json hello = Json::object();
    hello.set("type", Json(std::string("hello")));
    hello.set("schema", Json(std::string(service::kWireSchema)));
    hello.set("role", Json(std::string("worker")));
    hello.set("worker", Json(worker));
    service::sendMessage(sock_, hello);
    const auto welcome = service::recvMessage(sock_, 2000);
    if (!welcome) throw std::runtime_error("no welcome");
  }

  Json rpc(Json msg) {
    msg.set("worker", Json(worker_));
    service::sendMessage(sock_, msg);
    const auto reply = service::recvMessage(sock_, 5000);
    if (!reply) throw std::runtime_error("connection closed mid-rpc");
    return *reply;
  }

  Json lease() {
    Json msg = Json::object();
    msg.set("type", Json(std::string("lease_request")));
    return rpc(std::move(msg));
  }

  /// Drop the connection with no release - the wire-visible signature of a
  /// SIGKILLed worker.
  void vanish() { sock_.close(); }

  const std::string& name() const { return worker_; }

 private:
  service::Socket sock_;
  std::string worker_;
};

std::string typeOf(const Json& msg) {
  const Json* t = msg.find("type");
  return t != nullptr && t->isString() ? t->asString() : std::string();
}

std::uint64_t u64Of(const Json& msg, const char* key) {
  const Json* v = msg.find(key);
  return v != nullptr && v->isNumber()
             ? static_cast<std::uint64_t>(v->asInt())
             : 0;
}

std::string stringOf(const Json& msg, const char* key) {
  const Json* v = msg.find(key);
  return v != nullptr && v->isString() ? v->asString() : std::string();
}

/// Honest outcomes for one leased block, computed through the exact worker
/// discipline, serialized through the journal codec - what a correct worker
/// would stream back.
Json honestOutcomes(campaign::CampaignEngine& engine,
                    const campaign::CampaignSpec& spec,
                    const std::vector<std::uint32_t>& pool,
                    std::uint64_t first, std::uint64_t count) {
  auto& quarantined = obs::Registry::global().counter("test.quarantined");
  Json outcomes = Json::array();
  for (std::uint64_t i = first; i < first + count; ++i) {
    outcomes.push(campaign::CampaignJournal::outcomeJson(
        campaign::runExperimentWithRetry(engine, spec, pool,
                                         static_cast<unsigned>(i),
                                         quarantined)));
  }
  return outcomes;
}

std::uint64_t counterValue(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

// ---------------------------------------------------------------------------
// Wire framing

TEST(ServiceWire, RoundTripAndCleanEof) {
  service::Listener listener(0);
  std::optional<service::Socket> serverSide;
  std::thread acceptor([&] {
    auto s = listener.accept(2000);
    ASSERT_TRUE(s.valid());
    serverSide.emplace(std::move(s));
  });
  service::Socket client =
      service::connectTo("127.0.0.1", listener.port(), 2000);
  acceptor.join();

  Json msg = Json::object();
  msg.set("type", Json(std::string("ping")));
  msg.set("payload", Json(std::string("x\ny\"z")));  // framing, not lines
  msg.set("n", Json(std::uint64_t(123456789012345ull)));
  service::sendMessage(client, msg);
  const auto got = service::recvMessage(*serverSide, 2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->dump(), msg.dump());

  // Clean EOF at a frame boundary is a disconnect, not an error.
  client.close();
  const auto eof = service::recvMessage(*serverSide, 2000);
  EXPECT_FALSE(eof.has_value());
}

TEST(ServiceWire, FingerprintIsStable) {
  const service::JobSpec job = demoJob(16);
  EXPECT_EQ(service::fingerprint(job), service::fingerprint(job));
  service::JobSpec other = job;
  other.spec.seed += 1;
  EXPECT_NE(service::fingerprint(job), service::fingerprint(other));
  // keepRecords changes the artifact's record list, so it is job identity.
  service::JobSpec bare = job;
  bare.keepRecords = false;
  EXPECT_NE(service::fingerprint(job), service::fingerprint(bare));
}

TEST(ServiceJobSpec, JsonRoundTripPreservesIdentity) {
  service::JobSpec job = demoJob(24, 7);
  job.spec.model = campaign::FaultModel::Pulse;
  job.spec.targets = campaign::TargetClass::CombinationalLut;
  job.name = "round-trip";
  service::JobSpec back;
  std::string error;
  ASSERT_TRUE(service::jobSpecFromJson(service::toJson(job), back, &error))
      << error;
  EXPECT_EQ(service::fingerprint(job), service::fingerprint(back));
}

TEST(ServiceJobSpec, LargestSeedSurvivesTheWireWithItsFingerprint) {
  // campaign_8051's default fades job at the largest seed, through the
  // text the wire carries: the seed comes back exactly, so the job keeps
  // the fingerprint that names its journal and keys the worker caches.
  service::JobSpec job;
  job.spec.experiments = 200;
  job.spec.seed = std::numeric_limits<std::uint64_t>::max();
  job.name = service::defaultName(job);
  const std::string fp = service::fingerprint(job);
  EXPECT_EQ(fp, "31d89e6108d7bb69");
  const auto wire = Json::parse(service::toJson(job).dump());
  ASSERT_TRUE(wire.has_value());
  service::JobSpec back;
  std::string error;
  ASSERT_TRUE(service::jobSpecFromJson(*wire, back, &error)) << error;
  EXPECT_EQ(back.spec.seed, job.spec.seed);
  EXPECT_EQ(service::fingerprint(back), fp);
}

TEST(ServiceJobSpec, ValidateRejectsNonsense) {
  service::JobSpec job = demoJob(8);
  job.tool = "hope";
  EXPECT_THROW(service::validate(job), common::FadesError);
  job = demoJob(0);
  EXPECT_THROW(service::validate(job), common::FadesError);
  job = demoJob(8);
  job.linkFaultRate = 1.5;
  EXPECT_THROW(service::validate(job), common::FadesError);
  // Only FADES injects delays: a coordinator must never lease out a job
  // whose every experiment the injector would refuse.
  job = demoJob(8);
  job.spec.model = campaign::FaultModel::Delay;
  EXPECT_NO_THROW(service::validate(job));
  for (const char* tool : {"vfit", "autonomous"}) {
    job.tool = tool;
    EXPECT_THROW(service::validate(job), common::FadesError) << tool;
  }
}

TEST(ServiceJobSpec, IdentityIsPinnedAndTheToolFixesTheEngine) {
  // campaign_8051's default 200-experiment job per tool. Fingerprints name
  // the store's journals and key the worker caches, so they never move.
  // The tool fixes the engine: the JobSpec field is ignored, and the wire
  // refuses any other engine name.
  for (const auto& [tool, engine, fp] :
       {std::tuple{"fades", "event", "450ab3ae10f1e626"},
        std::tuple{"vfit", "compiled", "7ad3a3685d13fb89"},
        std::tuple{"autonomous", "compiled", "4ec98a752a1cd440"}}) {
    service::JobSpec job;
    job.tool = tool;
    job.spec.experiments = 200;
    job.spec.seed = 2006;
    job.name = service::defaultName(job);
    EXPECT_NO_THROW(service::validate(job)) << tool;
    for (const char* field : {"event", "compiled", "hope"}) {
      job.engine = field;
      EXPECT_EQ(service::fingerprint(job), fp) << tool << " " << field;
    }
    Json wire = service::toJson(job);
    EXPECT_EQ(wire.find("engine")->asString(), engine) << tool;
    service::JobSpec back;
    std::string error;
    ASSERT_TRUE(service::jobSpecFromJson(wire, back, &error)) << error;
    EXPECT_EQ(service::fingerprint(back), fp) << tool;
    const std::string other =
        std::string(engine) == "event" ? "compiled" : "event";
    wire.set("engine", Json(other));
    EXPECT_FALSE(service::jobSpecFromJson(wire, back, &error)) << tool;
    EXPECT_NE(error.find("engine"), std::string::npos) << error;
  }
}

TEST(ServiceJobSpec, BuildSystemNeedsOnlyKnownNames) {
  // A job moved onto another tool to reuse its netlist builds even when no
  // campaign of it could run: a fades delay job built as vfit.
  service::JobSpec job = demoJob(8);
  job.spec.model = campaign::FaultModel::Delay;
  job.spec.targets = campaign::TargetClass::SequentialLine;
  job.tool = "vfit";
  EXPECT_THROW(service::validate(job), common::FadesError);
  EXPECT_GT(service::buildSystem(job)->netlist.flopCount(), 0u);
  job.tool = "hope";
  EXPECT_THROW(service::buildSystem(job), common::FadesError);
  job.tool = "vfit";
  job.workload = "hope";
  EXPECT_THROW(service::buildSystem(job), common::FadesError);
}

TEST(ServiceJobSpec, CliWordsAndNumbersAreStrict) {
  // Every accepted spelling names the spec defaultName() names it by.
  service::JobSpec job;
  for (const char* m : {"bitflip", "pulse", "delay", "indet"}) {
    for (const char* t : {"ff", "memory", "lut", "seqline", "combline"}) {
      for (const char* u : {"any", "registers", "ram", "alu", "mem", "fsm"}) {
        service::applyCampaignWords(m, t, u, "long", job.spec);
        EXPECT_EQ(service::defaultName(job),
                  std::string(m) + "_" + t + "_" + u);
      }
    }
  }
  EXPECT_EQ(job.spec.band.label, campaign::DurationBand::longBand().label);
  job.spec.targets = campaign::TargetClass::CbInputLine;  // no CLI word
  EXPECT_EQ(service::defaultName(job), "indet_cbinput_fsm");
  // A misspelling is an error, never a silent default.
  for (const auto& [m, t, u, b] :
       {std::tuple{"pluse", "ff", "any", "short"},
        std::tuple{"bitflip", "fff", "any", "short"},
        std::tuple{"bitflip", "ff", "anyy", "short"},
        std::tuple{"bitflip", "ff", "any", "longg"}}) {
    EXPECT_THROW(service::applyCampaignWords(m, t, u, b, job.spec),
                 common::FadesError);
  }

  unsigned count = 7;
  EXPECT_TRUE(service::parseCount("4294967295", count));
  EXPECT_EQ(count, 4294967295u);
  for (const char* text : {"", "0", "12abc", "-3", " 5", "4294967296"}) {
    EXPECT_FALSE(service::parseCount(text, count)) << "'" << text << "'";
  }
  double rate = 0.5;
  EXPECT_TRUE(service::parseRate("0.25", rate));
  EXPECT_EQ(rate, 0.25);
  for (const char* text : {"", "abc", "1", "-0.1", "0.1x", "nan"}) {
    EXPECT_FALSE(service::parseRate(text, rate)) << "'" << text << "'";
  }
  EXPECT_EQ(count, 4294967295u);  // failed parses leave `out` alone
  EXPECT_EQ(rate, 0.25);
  // The daemons' ranges: a port of 0-65535, where 0 means ephemeral.
  EXPECT_TRUE(service::parseCount("0", count, 0, 65535));
  EXPECT_EQ(count, 0u);
  EXPECT_FALSE(service::parseCount("70000", count, 0, 65535));
  EXPECT_EQ(count, 0u);
}

// ---------------------------------------------------------------------------
// Satellite: ProgressTracker heartbeat with zero completions

TEST(ServiceProgress, HeartbeatWithZeroDoneEmitsNullEta) {
  std::vector<std::string> lines;
  obs::Logger::global().setSink([&](const obs::LogRecord& record) {
    const std::string line = obs::Logger::format(record);
    if (line.find("campaign progress") != std::string::npos) {
      lines.push_back(line);
    }
  });
  {
    // A large interval keeps record() from emitting on its own; only the
    // two explicit heartbeats below produce lines.
    campaign::ProgressTracker tracker("bit-flip", 1000, 500);
    tracker.heartbeat();  // zero completions: no rate exists yet
    campaign::ExperimentOutcome outcome;
    outcome.index = 0;
    outcome.outcome = campaign::Outcome::Failure;
    outcome.modeledSeconds = 0.25;
    tracker.record(outcome);
    tracker.heartbeat();  // one completion: a real ETA can be computed
  }
  obs::Logger::global().setSink({});

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("eta_wall_s=null"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("done=0"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].find("eta_wall_s=null"), std::string::npos) << lines[1];
}

// ---------------------------------------------------------------------------
// Satellite: journal reader tolerance and bounds

TEST(ServiceJournal, ResumeToleratesCrlfLineEndings) {
  const fs::path dir = makeTempDir("crlf");
  const fs::path path = dir / "journal.jsonl";
  campaign::CampaignSpec spec;
  spec.experiments = 4;
  spec.seed = 3;
  {
    campaign::CampaignJournal journal(path.string());
    journal.open(spec, /*resume=*/false);
    for (std::uint64_t i = 0; i < 3; ++i) {
      campaign::ExperimentOutcome outcome;
      outcome.index = i;
      outcome.outcome = campaign::Outcome::Silent;
      outcome.modeledSeconds = 0.5 + static_cast<double>(i);
      journal.append(outcome);
    }
  }
  // A journal that passed through a Windows-side transfer: CRLF endings.
  std::string text = readFile(path);
  std::string crlf;
  for (const char ch : text) {
    if (ch == '\n') crlf += "\r\n";
    else crlf += ch;
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << crlf;
  }
  campaign::CampaignJournal journal(path.string());
  journal.open(spec, /*resume=*/true);
  ASSERT_EQ(journal.completed().size(), 3u);
  EXPECT_EQ(journal.completed().at(1).modeledSeconds, 1.5);
  fs::remove_all(dir);
}

TEST(ServiceJournal, ResumesASpecWithTheLargestSeed) {
  // The header binds the journal to its spec by comparing the parsed spec
  // with the live one; a seed past 2^63 must parse back exactly.
  const fs::path dir = makeTempDir("maxseed");
  const fs::path path = dir / "journal.jsonl";
  campaign::CampaignSpec spec;
  spec.experiments = 4;
  spec.seed = std::numeric_limits<std::uint64_t>::max();
  {
    campaign::CampaignJournal journal(path.string());
    journal.open(spec, /*resume=*/false);
    campaign::ExperimentOutcome outcome;
    outcome.index = 2;
    outcome.outcome = campaign::Outcome::Latent;
    outcome.modeledSeconds = 0.75;
    journal.append(outcome);
  }
  campaign::CampaignJournal journal(path.string());
  ASSERT_NO_THROW(journal.open(spec, /*resume=*/true));
  ASSERT_EQ(journal.completed().size(), 1u);
  EXPECT_EQ(journal.completed().at(2).modeledSeconds, 0.75);
  fs::remove_all(dir);
}

TEST(ServiceJournal, OversizeLineIsConfigErrorNamingByteOffset) {
  const fs::path dir = makeTempDir("oversize");
  const fs::path path = dir / "journal.jsonl";
  campaign::CampaignSpec spec;
  spec.experiments = 4;
  std::string headerText;
  {
    campaign::CampaignJournal journal(path.string());
    journal.open(spec, /*resume=*/false);
    headerText = readFile(path);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << std::string(campaign::CampaignJournal::kMaxLineBytes + 16, 'x')
        << "\n";
  }
  campaign::CampaignJournal journal(path.string());
  try {
    journal.open(spec, /*resume=*/true);
    FAIL() << "oversize journal line must raise ConfigError";
  } catch (const common::FadesError& e) {
    EXPECT_EQ(e.kind(), common::ErrorKind::ConfigError);
    const std::string what = e.what();
    EXPECT_NE(what.find("byte offset " + std::to_string(headerText.size())),
              std::string::npos)
        << "expected the offending line's byte offset in: " << what;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Coordinator protocol edge cases (raw wire, no WorkerDaemon)

struct CoordinatorFixture {
  explicit CoordinatorFixture(service::CoordinatorOptions options,
                              const std::string& tag)
      : dir(makeTempDir(tag)) {
    options.storeDir = (dir / "store").string();
    coordinator = std::make_unique<service::Coordinator>(std::move(options));
    coordinator->start();
  }
  ~CoordinatorFixture() {
    coordinator->stop();
    fs::remove_all(dir);
  }
  fs::path dir;
  std::unique_ptr<service::Coordinator> coordinator;
};

TEST(ServiceCoordinator, ExpiredLeaseIsRequeuedAndItsLateCompletionChecked) {
  service::CoordinatorOptions options;
  options.leaseMs = 250;
  options.reaperTickMs = 25;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, "lease-expiry");
  const service::JobSpec job = demoJob(8, 21);
  const std::string fp = fx.coordinator->submit(job);

  const std::uint64_t expiredBefore = counterValue("service.leases_expired");
  RawClient slacker(fx.coordinator->port(), "slacker");
  Json lease = slacker.lease();
  ASSERT_EQ(typeOf(lease), "lease");
  EXPECT_EQ(stringOf(lease, "fingerprint"), fp);

  // Silence: no completion. The reaper must take the lease back and
  // requeue the block for somebody else.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (counterValue("service.leases_expired") == expiredBefore &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(counterValue("service.leases_expired"), expiredBefore);

  // An honest worker finishes the campaign, the requeued block included.
  service::WorkerOptions wopt;
  wopt.port = fx.coordinator->port();
  wopt.name = "honest";
  service::WorkerDaemon worker(wopt);
  std::thread workerThread([&] { worker.run(); });
  EXPECT_TRUE(fx.coordinator->waitForAllComplete(60000));
  worker.stop();
  workerThread.join();
  EXPECT_TRUE(fx.coordinator->campaignComplete(fp));

  // The slacker's late completion is a duplicate: digest-checked against
  // the committed block and acknowledged without a second commit.
  const auto system = service::buildSystem(job);
  const auto engine = system->factory();
  const auto pool = engine->enumeratePool(job.spec);
  Json late = Json::object();
  late.set("type", Json(std::string("complete")));
  late.set("fingerprint", Json(fp));
  late.set("first", Json(u64Of(lease, "first")));
  late.set("outcomes", honestOutcomes(*engine, job.spec, pool,
                                      u64Of(lease, "first"),
                                      u64Of(lease, "count")));
  const Json ack = slacker.rpc(std::move(late));
  EXPECT_EQ(typeOf(ack), "complete_ack");
  EXPECT_FALSE(ack.find("committed")->asBool());
  EXPECT_EQ(readFile(fx.coordinator->artifactPath(fp)),
            referenceArtifact(job));
}

TEST(ServiceCoordinator, DoubleReleaseIsIdempotent) {
  service::CoordinatorOptions options;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, "double-release");
  const service::JobSpec job = demoJob(8, 22);
  const std::string fp = fx.coordinator->submit(job);

  RawClient client(fx.coordinator->port(), "flaky");
  Json lease = client.lease();
  ASSERT_EQ(typeOf(lease), "lease");

  Json release = Json::object();
  release.set("type", Json(std::string("release")));
  release.set("fingerprint", Json(fp));
  release.set("lease_id", Json(u64Of(lease, "lease_id")));
  release.set("first", Json(u64Of(lease, "first")));
  release.set("error", Json(std::string("synthetic failure")));

  const std::uint64_t requeuedBefore =
      counterValue("service.leases_requeued");
  EXPECT_EQ(typeOf(client.rpc(Json(release))), "release_ack");
  EXPECT_EQ(counterValue("service.leases_requeued"), requeuedBefore + 1);
  // The second release of the same (now dead) lease must change nothing:
  // same ack, no double requeue of a block somebody else may hold by now.
  EXPECT_EQ(typeOf(client.rpc(Json(release))), "release_ack");
  EXPECT_EQ(counterValue("service.leases_requeued"), requeuedBefore + 1);
}

TEST(ServiceCoordinator, LeasesAreOneWaveOfTheJobsTool) {
  // FADES runs one experiment per engine call, VFIT and autonomous a
  // 63-lane wave: each lease is exactly one of them, the last one short.
  for (const auto& [tool, counts] :
       {std::pair{"fades", std::vector<std::uint64_t>{1}},
        std::pair{"vfit", std::vector<std::uint64_t>{63, 37}},
        std::pair{"autonomous", std::vector<std::uint64_t>{63}}}) {
    service::CoordinatorOptions options;
    options.progressLogMs = 0;
    CoordinatorFixture fx(options, std::string("wave-") + tool);
    service::JobSpec job = demoJob(100, 29);
    job.tool = tool;
    // The coordinator cuts leases by waveWidth(job) without building the
    // system; it must be the width the workers' engines run.
    EXPECT_EQ(service::waveWidth(job),
              service::buildSystem(job)->factory()->waveWidth())
        << tool;
    fx.coordinator->submit(job);
    RawClient client(fx.coordinator->port(), "counter");
    std::uint64_t first = 0;
    for (const std::uint64_t count : counts) {
      const Json lease = client.lease();
      ASSERT_EQ(typeOf(lease), "lease") << tool;
      EXPECT_EQ(u64Of(lease, "first"), first) << tool;
      EXPECT_EQ(u64Of(lease, "count"), count) << tool;
      first += count;
    }
  }
}

TEST(ServiceCoordinator, VanishedWorkerAfterPartialBlockDoesNotCorrupt) {
  service::CoordinatorOptions options;
  options.leaseMs = 250;
  options.reaperTickMs = 25;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, "vanish");
  const service::JobSpec job = demoJob(12, 23);
  const std::string fp = fx.coordinator->submit(job);

  // The victim completes one block honestly, leases a second one, and is
  // then SIGKILLed (wire-wise: the connection just dies, no release).
  const auto system = service::buildSystem(job);
  const auto engine = system->factory();
  const auto pool = engine->enumeratePool(job.spec);
  {
    RawClient victim(fx.coordinator->port(), "victim");
    Json lease = victim.lease();
    ASSERT_EQ(typeOf(lease), "lease");
    Json complete = Json::object();
    complete.set("type", Json(std::string("complete")));
    complete.set("fingerprint", Json(fp));
    complete.set("first", Json(u64Of(lease, "first")));
    complete.set("outcomes",
                 honestOutcomes(*engine, job.spec, pool,
                                u64Of(lease, "first"),
                                u64Of(lease, "count")));
    EXPECT_EQ(typeOf(victim.rpc(std::move(complete))), "complete_ack");
    Json second = victim.lease();
    ASSERT_EQ(typeOf(second), "lease");
    victim.vanish();  // partial block: leased, never completed
  }

  service::WorkerOptions wopt;
  wopt.port = fx.coordinator->port();
  wopt.name = "survivor";
  service::WorkerDaemon worker(wopt);
  std::thread workerThread([&] { worker.run(); });
  EXPECT_TRUE(fx.coordinator->waitForAllComplete(60000));
  worker.stop();
  workerThread.join();
  EXPECT_EQ(readFile(fx.coordinator->artifactPath(fp)),
            referenceArtifact(job));
}

// ---------------------------------------------------------------------------
// Byzantine worker: detected, quarantined, merge unharmed

TEST(ServiceByzantine, TamperingWorkerIsBannedAndMergeStaysExact) {
  service::CoordinatorOptions options;
  options.progressLogMs = 0;
  options.auditEvery = 1;  // every block needs two agreeing workers
  options.shutdownWhenDone = true;
  CoordinatorFixture fx(options, "byzantine");
  const service::JobSpec job = demoJob(16, 24);
  const std::string fp = fx.coordinator->submit(job);

  auto makeWorker = [&](const std::string& name, bool tamper) {
    service::WorkerOptions wopt;
    wopt.port = fx.coordinator->port();
    wopt.name = name;
    if (tamper) {
      wopt.tamper = [](campaign::ExperimentOutcome& outcome) {
        if (outcome.quarantined) return;
        outcome.outcome = outcome.outcome == campaign::Outcome::Silent
                              ? campaign::Outcome::Failure
                              : campaign::Outcome::Silent;
        if (outcome.hasRecord) outcome.record.outcome = outcome.outcome;
      };
    }
    return std::make_unique<service::WorkerDaemon>(std::move(wopt));
  };

  // Audit mode needs two honest voters for agreement; the liar makes three.
  auto liar = makeWorker("liar", true);
  auto honest1 = makeWorker("honest-1", false);
  auto honest2 = makeWorker("honest-2", false);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { liar->run(); });
  threads.emplace_back([&] { honest1->run(); });
  threads.emplace_back([&] { honest2->run(); });

  EXPECT_TRUE(fx.coordinator->waitForAllComplete(120000));
  liar->stop();
  honest1->stop();
  honest2->stop();
  for (auto& t : threads) t.join();

  const auto banned = fx.coordinator->bannedWorkers();
  EXPECT_NE(std::find(banned.begin(), banned.end(), "liar"), banned.end())
      << "tampering worker must be quarantined";
  EXPECT_EQ(std::find(banned.begin(), banned.end(), "honest-1"),
            banned.end());
  EXPECT_EQ(std::find(banned.begin(), banned.end(), "honest-2"),
            banned.end());
  EXPECT_GE(obs::Registry::global()
                .gauge("service.workers_quarantined")
                .value(),
            1.0);
  // The ban event survives in the store for the next coordinator life.
  EXPECT_NE(readFile(fx.dir / "store" / "service" / "events.jsonl")
                .find("\"worker\":\"liar\""),
            std::string::npos);
  EXPECT_EQ(readFile(fx.coordinator->artifactPath(fp)),
            referenceArtifact(job));
}

// ---------------------------------------------------------------------------
// Coordinator kill + --resume: byte identity at 1 / 4 / 8 workers

class ServiceResume : public ::testing::TestWithParam<int> {};

TEST_P(ServiceResume, KilledCoordinatorResumesToIdenticalArtifact) {
  const int workerCount = GetParam();
  const fs::path dir =
      makeTempDir("resume-" + std::to_string(workerCount));
  const std::string store = (dir / "store").string();
  const service::JobSpec job = demoJob(24, 25);
  std::string fp;

  // Life 1: a worker commits exactly one block, then the coordinator dies
  // without ceremony (no graceful drain of the campaign - the journal and
  // meta files in the store are all that survives).
  {
    service::CoordinatorOptions options;
    options.storeDir = store;
    options.progressLogMs = 0;
    service::Coordinator first(options);
    first.start();
    fp = first.submit(job);

    const auto system = service::buildSystem(job);
    const auto engine = system->factory();
    const auto pool = engine->enumeratePool(job.spec);
    RawClient seedWorker(first.port(), "seed");
    Json lease = seedWorker.lease();
    ASSERT_EQ(typeOf(lease), "lease");
    Json complete = Json::object();
    complete.set("type", Json(std::string("complete")));
    complete.set("fingerprint", Json(fp));
    complete.set("first", Json(u64Of(lease, "first")));
    complete.set("outcomes",
                 honestOutcomes(*engine, job.spec, pool,
                                u64Of(lease, "first"),
                                u64Of(lease, "count")));
    ASSERT_EQ(typeOf(seedWorker.rpc(std::move(complete))), "complete_ack");
    ASSERT_FALSE(first.campaignComplete(fp));
    first.stop();
  }

  // Life 2: --resume re-reads the store, workers finish the remainder.
  service::CoordinatorOptions options;
  options.storeDir = store;
  options.progressLogMs = 0;
  options.shutdownWhenDone = true;
  service::Coordinator second(options);
  second.start();
  const auto resumed = second.resumeFromStore();
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0], fp);

  std::vector<std::unique_ptr<service::WorkerDaemon>> workers;
  for (int i = 0; i < workerCount; ++i) {
    service::WorkerOptions wopt;
    wopt.port = second.port();
    wopt.name = "w" + std::to_string(i);
    workers.push_back(std::make_unique<service::WorkerDaemon>(wopt));
  }
  std::vector<std::thread> threads;
  for (auto& w : workers) {
    threads.emplace_back([&w] { w->run(); });
  }
  EXPECT_TRUE(second.waitForAllComplete(120000));
  for (auto& w : workers) w->stop();
  for (auto& t : threads) t.join();

  EXPECT_EQ(readFile(second.artifactPath(fp)), referenceArtifact(job));
  second.stop();
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ServiceResume,
                         ::testing::Values(1, 4, 8));

// ---------------------------------------------------------------------------
// Worker input validation (raw coordinator side, no Coordinator)

/// The coordinator side of one exchange: welcome the worker, then answer
/// its lease request with `count` experiments from `first` of a
/// 12-experiment campaign. The worker must refuse the lease as malformed
/// and hang up, not run and return indices the campaign does not have.
void leaseBeyondTheCampaign(service::Listener& listener, std::uint64_t first,
                            std::uint64_t count) {
  service::Socket sock = listener.accept(5000);
  ASSERT_TRUE(sock.valid());
  ASSERT_TRUE(service::recvMessage(sock, 5000).has_value());  // hello
  Json welcome = Json::object();
  welcome.set("type", Json(std::string("welcome")));
  service::sendMessage(sock, welcome);
  ASSERT_TRUE(service::recvMessage(sock, 5000).has_value());  // lease_request

  const service::JobSpec job = demoJob(12, 28);
  Json lease = Json::object();
  lease.set("type", Json(std::string("lease")));
  lease.set("fingerprint", Json(service::fingerprint(job)));
  lease.set("lease_id", Json(std::uint64_t{1}));
  lease.set("first", Json(first));
  lease.set("count", Json(count));
  lease.set("job", service::toJson(job));
  service::sendMessage(sock, lease);
  EXPECT_FALSE(service::recvMessage(sock, 5000).has_value());
}

TEST(ServiceWorker, LeaseBeyondTheCampaignDropsTheConnection) {
  service::Listener listener(0);
  service::WorkerOptions wopt;
  wopt.port = listener.port();
  wopt.name = "bounds";
  wopt.recvTimeoutMs = 500;
  service::WorkerDaemon worker(wopt);
  std::thread workerThread([&] { worker.run(); });
  leaseBeyondTheCampaign(listener, 8, 8);
  // first + count wraps to 0 here, so a bound taken on the sum would pass.
  leaseBeyondTheCampaign(listener, 1,
                         std::numeric_limits<std::uint64_t>::max());
  worker.stop();
  workerThread.join();
}

// ---------------------------------------------------------------------------
// One lease executor: service leases run the runner's waves and prune rule

/// The single-process reference the way campaign_8051 takes it: the
/// parallel runner, with the job's prune plan when it has one.
std::string runnerArtifact(const service::JobSpec& job) {
  const auto system = service::buildSystem(job);
  campaign::PrunePlan plan;
  campaign::ParallelOptions popt;
  if (job.prune) {
    plan = service::buildPrunePlan(*system);
    popt.prunePlan = &plan;
  }
  return service::artifactText(
      job, campaign::ParallelCampaignRunner(system->factory, popt)
               .run(job.spec));
}

/// Run `job` to completion on a fresh coordinator with `workerCount`
/// daemons and return the merged artifact text.
std::string serviceArtifact(const service::JobSpec& job, int workerCount,
                            const std::string& tag) {
  service::CoordinatorOptions options;
  options.progressLogMs = 0;
  CoordinatorFixture fx(options, tag);
  const std::string fp = fx.coordinator->submit(job);
  std::vector<std::unique_ptr<service::WorkerDaemon>> workers;
  std::vector<std::thread> threads;
  for (int i = 0; i < workerCount; ++i) {
    service::WorkerOptions wopt;
    wopt.port = fx.coordinator->port();
    wopt.name = tag + "-w" + std::to_string(i);
    workers.push_back(std::make_unique<service::WorkerDaemon>(wopt));
  }
  for (auto& w : workers) threads.emplace_back([&w] { w->run(); });
  EXPECT_TRUE(fx.coordinator->waitForAllComplete(120000));
  for (auto& w : workers) w->stop();
  for (auto& t : threads) t.join();
  return readFile(fx.coordinator->artifactPath(fp));
}

TEST(ServiceWaves, CompiledVfitLeasesRunAsWaves) {
  service::JobSpec job = demoJob(200, 26);
  job.tool = "vfit";
  const std::uint64_t before = counterValue("vfit.waves");
  const std::string merged = serviceArtifact(job, 1, "waves");
  // 200 experiments are 4 leases, 63 + 63 + 63 + 11, of one wave each.
  EXPECT_EQ(counterValue("vfit.waves") - before, 4u);
  EXPECT_EQ(merged, runnerArtifact(job));
}

struct PrunedJob {
  const char* name;
  const char* tool;
  campaign::TargetClass targets;
};

// Keeps the test names the suite prints free of pointer values.
void PrintTo(const PrunedJob& job, std::ostream* os) { *os << job.name; }

class ServicePrune : public ::testing::TestWithParam<PrunedJob> {};

TEST_P(ServicePrune, TwoWorkersMatchThePrunedRunner) {
  service::JobSpec job = demoJob(96, 27);
  job.tool = GetParam().tool;
  job.spec.targets = GetParam().targets;
  job.prune = true;
  // The case is only worth running if some member's representative sits
  // in another block, so a worker has to run it out of its own lease.
  const auto plan = service::buildPrunePlan(*service::buildSystem(job));
  const unsigned width = service::waveWidth(job);
  bool crossBlock = false;
  for (const auto& cls : plan.classes) {
    for (const std::uint64_t m : cls.members) {
      crossBlock = crossBlock || m / width != cls.representative / width;
    }
  }
  ASSERT_TRUE(crossBlock) << "plan collapses " << plan.collapsedCount();
  EXPECT_EQ(serviceArtifact(job, 2, std::string("prune-") + GetParam().name),
            runnerArtifact(job));
}

INSTANTIATE_TEST_SUITE_P(
    Jobs, ServicePrune,
    ::testing::Values(
        PrunedJob{"VfitCompiled", "vfit", campaign::TargetClass::SequentialFF},
        PrunedJob{"VfitMemory", "vfit", campaign::TargetClass::MemoryBlockBit},
        PrunedJob{"Fades", "fades", campaign::TargetClass::SequentialFF}),
    [](const ::testing::TestParamInfo<PrunedJob>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fades
