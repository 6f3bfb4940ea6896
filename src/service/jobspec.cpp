#include "service/jobspec.hpp"

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
#include "sim/engine.hpp"
#include "vfit/vfit.hpp"

namespace fades::service {

using campaign::CampaignSpec;
using common::ErrorKind;
using common::require;
using obs::Json;

namespace {

constexpr const char* kJobSchema = "fades.job/1";

bool readString(const Json& j, const char* key, std::string& out) {
  const Json* f = j.find(key);
  if (f == nullptr || !f->isString()) return false;
  out = f->asString();
  return true;
}

bool readNumber(const Json& j, const char* key, double& out) {
  const Json* f = j.find(key);
  if (f == nullptr || !f->isNumber()) return false;
  out = f->asNumber();
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

Json toJson(const JobSpec& job) {
  Json j = Json::object();
  j.set("schema", Json(std::string(kJobSchema)));
  j.set("tool", Json(job.tool));
  j.set("engine", Json(job.engine));
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
  if (!readString(j, "schema", schema) || schema != kJobSchema) {
    return fail(error, "job spec is not " + std::string(kJobSchema));
  }
  if (!readString(j, "tool", out.tool) ||
      !readString(j, "engine", out.engine) ||
      !readString(j, "workload", out.workload) ||
      !readString(j, "name", out.name)) {
    return fail(error, "job spec misses tool/engine/workload/name");
  }
  if (!readNumber(j, "link_fault_rate", out.linkFaultRate)) {
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
  std::string model;
  std::string targets;
  if (!readString(*spec, "model", model) ||
      !campaign::faultModelFromString(model, out.spec.model)) {
    return fail(error, "spec has no valid fault model");
  }
  if (!readString(*spec, "targets", targets) ||
      !campaign::targetClassFromString(targets, out.spec.targets)) {
    return fail(error, "spec has no valid target class");
  }
  const Json* unit = spec->find("unit");
  const Json* experiments = spec->find("experiments");
  const Json* seed = spec->find("seed");
  if (unit == nullptr || !unit->isNumber() || experiments == nullptr ||
      !experiments->isNumber() || seed == nullptr || !seed->isNumber()) {
    return fail(error, "spec misses unit/experiments/seed");
  }
  out.spec.unit = static_cast<int>(unit->asInt());
  out.spec.experiments = static_cast<unsigned>(experiments->asInt());
  out.spec.seed = static_cast<std::uint64_t>(seed->asInt());
  const Json* band = spec->find("band");
  if (band == nullptr || !band->isObject() ||
      !readString(*band, "label", out.spec.band.label) ||
      !readNumber(*band, "min_cycles", out.spec.band.minCycles) ||
      !readNumber(*band, "max_cycles", out.spec.band.maxCycles)) {
    return fail(error, "spec has no valid duration band");
  }
  return true;
}

void validate(const JobSpec& job) {
  require(job.tool == "fades" || job.tool == "vfit" ||
              job.tool == "autonomous",
          ErrorKind::InvalidArgument, "unknown tool '" + job.tool + "'");
  require(job.engine == "event" || job.engine == "compiled",
          ErrorKind::InvalidArgument, "unknown engine '" + job.engine + "'");
  require(job.tool != "fades" || job.engine == "event",
          ErrorKind::InvalidArgument,
          "the compiled engine requires tool vfit or autonomous (FADES "
          "drives the FPGA)");
  require(job.workload == "bubblesort6" || job.workload == "demo",
          ErrorKind::InvalidArgument,
          "unknown workload '" + job.workload + "'");
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

std::string defaultName(const JobSpec& job) {
  std::string model = "bitflip";
  switch (job.spec.model) {
    case campaign::FaultModel::BitFlip: model = "bitflip"; break;
    case campaign::FaultModel::Pulse: model = "pulse"; break;
    case campaign::FaultModel::Delay: model = "delay"; break;
    case campaign::FaultModel::Indetermination: model = "indet"; break;
  }
  std::string targets = "ff";
  switch (job.spec.targets) {
    case campaign::TargetClass::SequentialFF: targets = "ff"; break;
    case campaign::TargetClass::MemoryBlockBit: targets = "memory"; break;
    case campaign::TargetClass::CombinationalLut: targets = "lut"; break;
    case campaign::TargetClass::CbInputLine: targets = "cbinput"; break;
    case campaign::TargetClass::SequentialLine: targets = "seqline"; break;
    case campaign::TargetClass::CombinationalLine: targets = "combline"; break;
  }
  std::string unit = "any";
  switch (static_cast<netlist::Unit>(job.spec.unit)) {
    case netlist::Unit::None: unit = "any"; break;
    case netlist::Unit::Registers: unit = "registers"; break;
    case netlist::Unit::Ram: unit = "ram"; break;
    case netlist::Unit::Alu: unit = "alu"; break;
    case netlist::Unit::MemCtrl: unit = "mem"; break;
    case netlist::Unit::Fsm: unit = "fsm"; break;
  }
  return model + "_" + targets + "_" + unit;
}

std::string fingerprint(const JobSpec& job) {
  return fnv1a64Hex(toJson(job).dump());
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
  validate(job);
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

  sim::EngineKind engineKind = sim::EngineKind::EventDriven;
  if (job.engine == "compiled") {
    const bool ok = sim::engineKindFromString(job.engine, engineKind);
    require(ok, ErrorKind::InvalidArgument, "unknown engine " + job.engine);
  }

  if (job.tool == "vfit") {
    vfit::VfitOptions vopt;
    vopt.observedOutputs = observed;
    vopt.keepRecords = job.keepRecords;
    vopt.engine = engineKind;
    sys->factory =
        vfit::vfitEngineFactory(sys->netlist, sys->runCycles, vopt);
  } else if (job.tool == "autonomous") {
    core::AutonomousOptions aopt;
    aopt.observedOutputs = observed;
    aopt.keepRecords = job.keepRecords;
    aopt.engine = engineKind;
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
    options.progressInterval = 0;
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

  // One engine replica provides the pool enumeration and (for fades) the
  // target-name convention; both are pure functions of the job, so the
  // resulting plan is too.
  const auto engine = sys.factory();
  require(engine != nullptr, ErrorKind::InvalidArgument,
          "engine factory returned null");
  const auto pool = engine->enumeratePool(job.spec);
  if (job.tool == "fades") {
    auto* fades = static_cast<core::FadesCampaignEngine*>(engine.get());
    in.decode = prune::fadesDecoder(*sys.impl, job.spec.targets);
    in.name = [tool = &fades->tool(), cls = job.spec.targets](
                  std::uint32_t handle) {
      return tool->targetName(cls, handle);
    };
  } else {
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
