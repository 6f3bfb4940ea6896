#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <exception>

#include "campaign/artifact.hpp"
#include "campaign/parallel.hpp"
#include "common/stats.hpp"
#include "obs/artifact.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/jobspec.hpp"

namespace fades::bench {

namespace {

BenchRun* gActiveRun = nullptr;

/// --jobs, else FADES_JOBS, else 1 (0 is "auto": one worker per hardware
/// thread); FADES_FAULTS, else 0 (each bench's default).
unsigned gJobs = 1;
unsigned gFaults = 0;

}  // namespace

BenchRun::BenchRun(std::string name, int argc, char** argv)
    : name_(std::move(name)) {
  // A positive count by service::parseCount's rules, or "auto" where
  // `autoOk`; anything else exits 2 with a usage line.
  const auto count = [&](const char* text, const char* what, bool autoOk) {
    unsigned n = 0;
    if ((autoOk && std::string(text) == "auto") ||
        service::parseCount(text, n)) {
      return n;
    }
    std::fprintf(stderr,
                 "error: %s expects a positive integer%s, got '%s'\n"
                 "usage: bench_%s [--json [PATH]] [--jobs N|auto]"
                 " (env FADES_JOBS=N|auto, FADES_FAULTS=N)\n",
                 what, autoOk ? " or 'auto'" : "", text, name_.c_str());
    std::exit(2);
  };
  if (const char* v = std::getenv("FADES_JOBS")) {
    gJobs = count(v, "FADES_JOBS", true);
  }
  if (const char* v = std::getenv("FADES_FAULTS")) {
    gFaults = count(v, "FADES_FAULTS", false);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        jsonPath_ = argv[i + 1];
      } else {
        jsonPath_ = "BENCH_" + name_ + ".json";
      }
    } else if (std::string(argv[i]) == "--jobs") {
      gJobs = count(i + 1 < argc ? argv[i + 1] : "", "--jobs", true);
    }
  }
  gActiveRun = this;
  FADES_LOG(Debug) << "bench start" << obs::kv("name", name_)
                   << obs::kv("json", jsonPath_.empty() ? "-" : jsonPath_);
}

BenchRun::~BenchRun() {
  if (gActiveRun == this) gActiveRun = nullptr;
  if (jsonPath_.empty()) return;
  obs::RunArtifact artifact("bench", name_);
  obs::Json spec = obs::Json::object();
  spec.set("binary", obs::Json("bench_" + name_));
  if (const char* faults = std::getenv("FADES_FAULTS")) {
    spec.set("fades_faults", obs::Json(std::string(faults)));
  }
  artifact.setSpec(spec);
  artifact.setSection("tables", tables_);
  artifact.setSection("campaigns", campaigns_);
  if (scalars_.size() != 0) artifact.setSection("scalars", scalars_);
  artifact.setMetrics(obs::Registry::global().snapshotJson());
  artifact.setSection("trace", obs::TraceBuffer::global().chromeTraceJson());
  try {
    artifact.writeJson(jsonPath_);
    std::printf("Wrote run artifact: %s\n", jsonPath_.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to write %s: %s\n", jsonPath_.c_str(),
                 e.what());
  }
}

void BenchRun::addTable(const std::string& title,
                        const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  obs::Json t = obs::Json::object();
  t.set("title", obs::Json(title));
  obs::Json h = obs::Json::array();
  for (const auto& cell : header) h.push(obs::Json(cell));
  t.set("header", h);
  obs::Json rs = obs::Json::array();
  for (const auto& row : rows) {
    obs::Json r = obs::Json::array();
    for (const auto& cell : row) r.push(obs::Json(cell));
    rs.push(r);
  }
  t.set("rows", rs);
  tables_.push(std::move(t));
}

void BenchRun::addCampaign(const std::string& label,
                           const campaign::CampaignResult& result) {
  obs::Json c = obs::Json::object();
  c.set("label", obs::Json(label));
  c.set("result", campaign::toJson(result));
  campaigns_.push(std::move(c));
}

void BenchRun::addScalar(const std::string& name, double value) {
  scalars_.set(name, obs::Json(value));
}

void recordCampaign(const std::string& label,
                    const campaign::CampaignResult& result) {
  if (gActiveRun != nullptr && gActiveRun->recording()) {
    gActiveRun->addCampaign(label, result);
  }
}

void recordScalar(const std::string& name, double value) {
  if (gActiveRun != nullptr && gActiveRun->recording()) {
    gActiveRun->addScalar(name, value);
  }
}

unsigned classifyCount(unsigned defaultCount) {
  return gFaults != 0 ? gFaults : defaultCount;
}

unsigned timingCount(unsigned defaultCount) {
  return std::min(classifyCount(defaultCount), defaultCount);
}

unsigned jobs() { return gJobs; }

campaign::CampaignResult runCampaign(core::FadesTool& tool,
                                     const campaign::CampaignSpec& spec) {
  campaign::ParallelOptions popt;
  popt.jobs = jobs();
  popt.progressInterval = 100;
  if (popt.jobs == 1) return campaign::runCampaign(spec, {&tool}, popt);
  campaign::ParallelCampaignRunner runner(
      core::fadesEngineFactory(tool.implementation(), tool.runCycles(),
                               tool.options(), tool.device().spec()),
      popt);
  return runner.run(spec);
}

System8051::System8051()
    : workload_(mc8051::bubblesort(6)),
      nl_(mc8051::buildCore(workload_.bytes)),
      impl_(synth::implement(nl_, fpga::DeviceSpec::virtex1000Like())) {}

core::FadesOptions System8051::fadesOptions() const {
  core::FadesOptions opt;
  opt.observedOutputs = {"p0", "p1"};
  return opt;
}

core::FadesTool& System8051::fades() {
  if (!fades_) {
    device_ = std::make_unique<fpga::Device>(impl_.spec);
    fades_ = std::make_unique<core::FadesTool>(*device_, impl_,
                                               workload_.cycles,
                                               fadesOptions());
  }
  return *fades_;
}

core::FadesTool& System8051::fadesForDelay() {
  if (!fadesDelay_) {
    // Measure the fault-free critical path, then rebuild the device with a
    // clock period sitting just above it so that injected delays can push
    // individual paths past setup.
    fpga::Device probe(impl_.spec);
    probe.writeFullBitstream(impl_.bitstream);
    probe.setTimingEnabled(true);
    probe.settle();
    const double maxArrival = probe.timingReport().maxArrivalNs;

    fpga::DeviceSpec spec = impl_.spec;
    spec.clockPeriodNs = maxArrival + spec.ffSetupNs + 0.35;
    delayDevice_ = std::make_unique<fpga::Device>(spec);
    fadesDelay_ = std::make_unique<core::FadesTool>(
        *delayDevice_, impl_, workload_.cycles, fadesOptions());
  }
  return *fadesDelay_;
}

vfit::VfitTool& System8051::vfit() {
  if (!vfit_) {
    vfit::VfitOptions opt;
    opt.observedOutputs = {"p0", "p1"};
    vfit_ = std::make_unique<vfit::VfitTool>(nl_, workload_.cycles, opt);
  }
  return *vfit_;
}

void System8051::printHeadline() const {
  const auto& s = impl_.stats;
  std::printf(
      "System under test: MC8051 subset + %s (%llu cycles; paper: 1303)\n"
      "Implementation on %s: %u LUTs, %u FFs, %u memory blocks "
      "(paper: 5310 LUTs, 637 FFs of 24576)\n\n",
      workload_.name.c_str(),
      static_cast<unsigned long long>(workload_.cycles),
      impl_.spec.name.c_str(), s.luts, s.flops, s.memBlocks);
}

std::string withPaper(double measured, const std::string& paper,
                      int decimals) {
  return common::fixed(measured, decimals) + " (paper: " + paper + ")";
}

std::string pct3(const campaign::CampaignResult& r) {
  return common::fixed(r.failurePct(), 1) + " / " +
         common::fixed(r.latentPct(), 1) + " / " +
         common::fixed(r.silentPct(), 1);
}

void printTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  if (gActiveRun != nullptr && gActiveRun->recording()) {
    gActiveRun->addTable(title, header, rows);
  }
  std::printf("%s\n%s\n", title.c_str(),
              common::renderTable(header, rows).c_str());
}

std::vector<campaign::CampaignResult> bandSweep(
    core::FadesTool& tool, campaign::FaultModel model,
    campaign::TargetClass targets, netlist::Unit unit, unsigned experiments,
    std::uint64_t seed, std::vector<std::uint32_t> pool) {
  std::vector<campaign::CampaignResult> out;
  for (const auto& band : campaign::DurationBand::paperBands()) {
    campaign::CampaignSpec spec;
    spec.model = model;
    spec.targets = targets;
    spec.unit = static_cast<int>(unit);
    spec.band = band;
    spec.experiments = experiments;
    spec.seed = seed;
    spec.targetPool = pool;
    out.push_back(runCampaign(tool, spec));
    recordCampaign(std::string(campaign::toString(model)) + ", " +
                       std::string(campaign::toString(targets)) + ", " +
                       band.label + " cycles",
                   out.back());
  }
  return out;
}

namespace {
std::map<const core::FadesTool*, std::vector<std::uint32_t>> gEligible;
}

std::vector<std::uint32_t> eligibleFlops(core::FadesTool& tool) {
  auto it = gEligible.find(&tool);
  if (it != gEligible.end()) return it->second;
  common::Rng rng(0xE11616);
  const auto all = tool.targets(campaign::FaultModel::BitFlip,
                                campaign::TargetClass::SequentialFF,
                                netlist::Unit::None);
  const int probes =
      static_cast<int>(std::max<std::size_t>(4, 1500 / all.size()));
  std::vector<std::uint32_t> eligible;
  for (auto ff : all) {
    for (int p = 0; p < probes; ++p) {
      common::Rng erng = rng.fork(ff * 37 + p);
      const auto cycle = erng.below(tool.runCycles());
      if (tool.runExperiment(campaign::FaultModel::BitFlip,
                             campaign::TargetClass::SequentialFF, ff, cycle,
                             1.0, erng) == campaign::Outcome::Failure) {
        eligible.push_back(ff);
        break;
      }
    }
  }
  gEligible[&tool] = eligible;
  return eligible;
}

std::vector<std::string> eligibleFlopNames(core::FadesTool& tool) {
  std::vector<std::string> out;
  for (auto ff : eligibleFlops(tool)) {
    out.push_back(tool.targetName(campaign::TargetClass::SequentialFF, ff));
  }
  return out;
}

std::vector<std::uint32_t> eligibleSequentialLines(core::FadesTool& tool) {
  const auto names = eligibleFlopNames(tool);
  std::vector<std::uint32_t> out;
  const auto& impl = tool.implementation();
  for (std::uint32_t i = 0; i < impl.routes.size(); ++i) {
    const auto& r = impl.routes[i];
    if (!r.sequentialSource || r.wireNodes.empty()) continue;
    for (const auto& n : names) {
      if (r.signalName == n) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

}  // namespace fades::bench
