#include "service/jobspec.hpp"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "campaign/artifact.hpp"
#include "common/error.hpp"
#include "core/autonomous.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "mc8051/core.hpp"
#include "mc8051/iss.hpp"
#include "mc8051/workloads.hpp"
#include "prune/prune.hpp"
#include "rtl/builder.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "service/wire.hpp"
#include "vfit/vfit.hpp"

namespace fades::service {

using campaign::CampaignSpec;
using common::ErrorKind;
using common::raise;
using common::require;
using obs::Json;

namespace {

constexpr const char* kJobSchema = "fades.job/1";

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// The engine a tool runs on, as the canonical JSON names it.
const char* engineFor(const std::string& tool) {
  return tool == "fades" ? "event" : "compiled";
}

/// The names buildSystem() builds from.
void requireKnownNames(const JobSpec& job) {
  require(job.tool == "fades" || job.tool == "vfit" ||
              job.tool == "autonomous",
          ErrorKind::InvalidArgument, "unknown tool '" + job.tool + "'");
  require(job.workload == "bubblesort6" || job.workload == "demo",
          ErrorKind::InvalidArgument,
          "unknown workload '" + job.workload + "'");
}

}  // namespace

Json toJson(const JobSpec& job) {
  Json j = Json::object();
  j.set("schema", Json(std::string(kJobSchema)));
  j.set("tool", Json(job.tool));
  j.set("engine", Json(std::string(engineFor(job.tool))));
  j.set("workload", Json(job.workload));
  j.set("spec", campaign::toJson(job.spec));
  j.set("link_fault_rate", Json(job.linkFaultRate));
  j.set("keep_records", Json(job.keepRecords));
  // Emitted only when set so every pre-pruning job keeps its fingerprint
  // (the journal filename and worker cache key).
  if (job.prune) j.set("prune", Json(true));
  j.set("name", Json(job.name));
  return j;
}

bool jobSpecFromJson(const Json& j, JobSpec& out, std::string* error) {
  if (!j.isObject()) return fail(error, "job spec is not an object");
  out = JobSpec{};
  std::string schema;
  if (!j.get("schema", schema) || schema != kJobSchema) {
    return fail(error, "job spec is not " + std::string(kJobSchema));
  }
  if (!j.get("tool", out.tool) ||
      !j.get("engine", out.engine) ||
      !j.get("workload", out.workload) ||
      !j.get("name", out.name)) {
    return fail(error, "job spec misses tool/engine/workload/name");
  }
  if (out.engine != engineFor(out.tool)) {
    return fail(error, "engine '" + out.engine + "' does not match tool '" +
                           out.tool + "'");
  }
  if (!j.get("link_fault_rate", out.linkFaultRate)) {
    return fail(error, "job spec misses link_fault_rate");
  }
  const Json* keep = j.find("keep_records");
  if (keep == nullptr) return fail(error, "job spec misses keep_records");
  out.keepRecords = keep->asBool();
  if (const Json* prune = j.find("prune")) out.prune = prune->asBool();

  const Json* spec = j.find("spec");
  if (spec == nullptr || !spec->isObject()) {
    return fail(error, "job spec misses spec");
  }
  return campaign::specFromJson(*spec, out.spec, error);
}

void validate(const JobSpec& job) {
  requireKnownNames(job);
  require(job.tool == "fades" || job.spec.model != campaign::FaultModel::Delay,
          ErrorKind::InvalidArgument,
          "delay faults require the fades tool (the simulator-backed "
          "injectors carry no timing model)");
  require(job.spec.experiments > 0, ErrorKind::InvalidArgument,
          "campaign needs at least one experiment");
  require(job.linkFaultRate >= 0.0 && job.linkFaultRate < 1.0,
          ErrorKind::InvalidArgument, "link fault rate must be in [0, 1)");
  require(job.linkFaultRate == 0.0 || job.tool == "fades",
          ErrorKind::InvalidArgument,
          "link faults require the fades tool (the other injectors move no "
          "frames over a board link)");
  // The wire format carries the pool size only (matching the journal spec
  // binding); explicit pools stay a single-process feature.
  require(job.spec.targetPool.empty(), ErrorKind::InvalidArgument,
          "explicit target pools are not supported by the service");
  require(!job.prune || job.tool == "fades" || job.tool == "vfit",
          ErrorKind::InvalidArgument,
          "pruning requires the fades or vfit tool (the autonomous backend "
          "cannot synthesize collapsed outcomes)");
  // Link faults can quarantine a representative that its collapsed members
  // would have survived, which would break byte-identity with the unpruned
  // campaign - the property pruning exists to preserve.
  require(!job.prune || job.linkFaultRate == 0.0, ErrorKind::InvalidArgument,
          "pruning requires a reliable link (no --link-faults)");
}

namespace {

using campaign::DurationBand;
using campaign::FaultModel;
using campaign::TargetClass;
using netlist::Unit;

// The campaign_8051 argument spellings, read by applyCampaignWords and
// written by defaultName.
constexpr std::pair<const char*, FaultModel> kModels[] = {
    {"bitflip", FaultModel::BitFlip}, {"pulse", FaultModel::Pulse},
    {"delay", FaultModel::Delay}, {"indet", FaultModel::Indetermination}};
constexpr std::pair<const char*, TargetClass> kTargets[] = {
    {"ff", TargetClass::SequentialFF},
    {"memory", TargetClass::MemoryBlockBit},
    {"lut", TargetClass::CombinationalLut},
    {"seqline", TargetClass::SequentialLine},
    {"combline", TargetClass::CombinationalLine}};
constexpr std::pair<const char*, Unit> kUnits[] = {
    {"any", Unit::None}, {"registers", Unit::Registers}, {"ram", Unit::Ram},
    {"alu", Unit::Alu},  {"mem", Unit::MemCtrl},         {"fsm", Unit::Fsm}};
constexpr std::pair<const char*, DurationBand (*)()> kBands[] = {
    {"sub", &DurationBand::subCycle},
    {"short", &DurationBand::shortBand},
    {"long", &DurationBand::longBand}};

template <typename T, std::size_t N>
T lookupWord(const std::pair<const char*, T> (&words)[N],
             const std::string& word, const char* what) {
  for (const auto& [text, value] : words) {
    if (word == text) return value;
  }
  raise(ErrorKind::InvalidArgument, "unknown " + std::string(what) + " '" +
                                        word + "'");
}

/// The word for `value`, or the list's first word for a value with none
/// (a unit number off the wire out of range).
template <typename T, std::size_t N>
const char* wordFor(const std::pair<const char*, T> (&words)[N], T value) {
  for (const auto& [text, v] : words) {
    if (v == value) return text;
  }
  return words[0].first;
}

}  // namespace

std::string defaultName(const JobSpec& job) {
  // CB input lines have a name but no campaign_8051 argument.
  const char* targets = job.spec.targets == TargetClass::CbInputLine
                            ? "cbinput"
                            : wordFor(kTargets, job.spec.targets);
  return std::string(wordFor(kModels, job.spec.model)) + "_" + targets + "_" +
         wordFor(kUnits, static_cast<Unit>(job.spec.unit));
}

void applyCampaignWords(const std::string& model, const std::string& targets,
                        const std::string& unit, const std::string& band,
                        CampaignSpec& spec) {
  spec.model = lookupWord(kModels, model, "fault model");
  spec.targets = lookupWord(kTargets, targets, "target class");
  spec.unit = static_cast<int>(lookupWord(kUnits, unit, "unit"));
  spec.band = lookupWord(kBands, band, "duration band")();
}

bool parseCount(const std::string& text, unsigned& out, unsigned lo,
                unsigned hi) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  const unsigned long value = std::strtoul(text.c_str(), nullptr, 10);
  if (errno != 0 || value < lo || value > hi) return false;
  out = static_cast<unsigned>(value);
  return true;
}

bool parseRate(const std::string& text, double& out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || errno != 0 || end != text.c_str() + text.size() ||
      !(value >= 0.0) || value >= 1.0) {
    return false;
  }
  out = value;
  return true;
}

std::string fingerprint(const JobSpec& job) {
  return fnv1a64Hex(toJson(job).dump());
}

unsigned waveWidth(const JobSpec& job) {
  if (job.tool == "vfit") return vfit::VfitTool::kWaveExperiments;
  if (job.tool == "autonomous") return core::AutonomousTool::kWaveExperiments;
  return 1;
}

namespace {

/// The robustness/parallel test-suite mini design: an 8-bit LFSR, a 4-bit
/// counter, their sum on "out", and a small write-only RAM log - every
/// functional unit represented, built in milliseconds. The service's fast
/// workload for protocol and chaos tests.
netlist::Netlist buildDemoNetlist() {
  rtl::Builder b;
  b.setUnit(netlist::Unit::Registers);
  rtl::Register lfsr = b.makeRegister("lfsr", 8, 1);
  b.setUnit(netlist::Unit::Fsm);
  rtl::Register cnt = b.makeRegister("cnt", 4, 0);
  b.setUnit(netlist::Unit::Registers);
  auto fb =
      b.lxor(lfsr.q[7], b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
  rtl::Bus next{fb};
  for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
  b.connect(lfsr, next);
  b.setUnit(netlist::Unit::Fsm);
  b.connect(cnt, b.increment(cnt.q));
  b.setUnit(netlist::Unit::Alu);
  auto sum = b.add(lfsr.q, b.zeroExtend(cnt.q, 8), {});
  b.setUnit(netlist::Unit::Ram);
  b.ram("log", 4, 8, cnt.q, lfsr.q, b.one());
  b.output("out", sum.sum);
  return b.finish();
}

}  // namespace

std::shared_ptr<CampaignSystem> buildSystem(const JobSpec& job) {
  requireKnownNames(job);
  auto sys = std::make_shared<CampaignSystem>();
  sys->job = job;

  std::vector<std::string> observed;
  std::shared_ptr<campaign::InstructionTrace> trace;
  if (job.workload == "demo") {
    sys->runCycles = 64;
    sys->netlist = buildDemoNetlist();
    observed = {"out"};
  } else {
    const auto workload = mc8051::bubblesort(6);
    sys->runCycles = workload.cycles;
    sys->netlist = mc8051::buildCore(workload.bytes);
    observed = {"p0", "p1"};
    if (job.keepRecords) {
      // Golden-run PC attribution, shared across replicas - the same trace
      // campaign_8051 attaches, so records match field for field.
      mc8051::Iss iss(workload.bytes);
      const auto samples = iss.tracePcPerCycle(workload.cycles);
      trace = std::make_shared<campaign::InstructionTrace>();
      trace->reserve(samples.size());
      for (const auto& s : samples) {
        trace->push_back(campaign::InstructionSample{s.pc, s.opcode});
      }
    }
  }

  sys->observedOutputs = observed;

  if (job.tool == "vfit") {
    vfit::VfitOptions vopt;
    vopt.observedOutputs = observed;
    vopt.keepRecords = job.keepRecords;
    sys->factory =
        vfit::vfitEngineFactory(sys->netlist, sys->runCycles, vopt);
  } else if (job.tool == "autonomous") {
    core::AutonomousOptions aopt;
    aopt.observedOutputs = observed;
    aopt.keepRecords = job.keepRecords;
    sys->factory =
        core::autonomousEngineFactory(sys->netlist, sys->runCycles, aopt);
  } else {
    sys->impl = synth::implement(sys->netlist,
                                 job.workload == "demo"
                                     ? fpga::DeviceSpec::small()
                                     : fpga::DeviceSpec::virtex1000Like());
    core::FadesOptions options;
    options.observedOutputs = observed;
    options.keepRecords = job.keepRecords;
    options.instructionTrace = std::move(trace);
    if (job.linkFaultRate > 0.0) {
      options.linkFaults.readCrcRate = job.linkFaultRate;
      options.linkFaults.writeFailRate = job.linkFaultRate;
      options.linkFaults.timeoutRate = job.linkFaultRate / 10.0;
    }
    sys->factory =
        core::fadesEngineFactory(*sys->impl, sys->runCycles, options);
  }
  return sys;
}

campaign::PrunePlan buildPrunePlan(const CampaignSystem& sys) {
  const JobSpec& job = sys.job;
  require(job.tool == "fades" || job.tool == "vfit",
          ErrorKind::InvalidArgument,
          "pruning requires the fades or vfit tool");

  sim::Simulator golden(sys.netlist);
  const sim::GoldenTrace trace =
      sim::GoldenTrace::record(golden, sys.netlist, sys.runCycles);

  prune::AnalysisInputs in;
  in.netlist = &sys.netlist;
  in.trace = &trace;
  in.runCycles = sys.runCycles;
  in.observedOutputs = sys.observedOutputs;

  // The pool enumeration and (for fades) the target-name convention are
  // pure functions of the netlist or implementation, so the plan is too.
  std::vector<std::uint32_t> pool;
  if (job.tool == "fades") {
    pool = core::targetPool(*sys.impl, job.spec);
    in.decode = prune::fadesDecoder(*sys.impl, job.spec.targets);
    in.name = [&impl = *sys.impl, cls = job.spec.targets](std::uint32_t h) {
      return core::targetName(impl, cls, h);
    };
  } else {
    pool = vfit::targetPool(sys.netlist, job.spec);
    in.decode = prune::vfitDecoder(sys.netlist, job.spec.targets);
    in.name = [](std::uint32_t handle) { return std::to_string(handle); };
    // VFIT's cost is a pure function of (model, window) - command counting
    // - so outcome-pinning fates merge across the whole target pool.
    in.uniformCostAcrossTargets = true;
  }
  return prune::buildPlan(job.spec, pool, in);
}

std::string artifactText(const JobSpec& job,
                         const campaign::CampaignResult& result) {
  const std::string name = job.name.empty() ? defaultName(job) : job.name;
  // Metrics excluded for the same reason campaign_8051 excludes them: they
  // reflect scheduling, which would break byte-identity across worker
  // counts. dump(2) + "\n" is exactly RunArtifact::writeJson's encoding.
  const auto artifact =
      campaign::toRunArtifact(result, name, /*includeMetrics=*/false);
  return artifact.toJson().dump(2) + "\n";
}

}  // namespace fades::service
