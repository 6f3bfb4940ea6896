#include "diffcheck/oracle.hpp"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/parallel.hpp"
#include "common/error.hpp"
#include "core/autonomous.hpp"
#include "core/fades.hpp"
#include "diffcheck/gen.hpp"
#include "fpga/device.hpp"
#include "mc8051/assembler.hpp"
#include "mc8051/iss.hpp"
#include "obs/metrics.hpp"
#include "synth/implement.hpp"
#include "vfit/vfit.hpp"

namespace fades::diffcheck {

using campaign::FaultModel;
using campaign::TargetClass;

obs::Json Violation::toJson() const {
  obs::Json j = obs::Json::object();
  j.set("rule", obs::Json(rule));
  j.set("detail", obs::Json(detail));
  return j;
}

obs::Json CaseReport::toJson() const {
  obs::Json j = obs::Json::object();
  j.set("case", spec.toJson());
  j.set("ok", obs::Json(ok()));
  obs::Json v = obs::Json::array();
  for (const auto& viol : violations) v.push(viol.toJson());
  j.set("violations", v);
  j.set("experiments", obs::Json(experiments));
  obs::Json f = obs::Json::object();
  f.set("failures", obs::Json(static_cast<std::uint64_t>(fadesFailures)));
  f.set("latents", obs::Json(static_cast<std::uint64_t>(fadesLatents)));
  f.set("silents", obs::Json(static_cast<std::uint64_t>(fadesSilents)));
  f.set("modeled_seconds", obs::Json(fadesModeledSeconds));
  j.set("fades", f);
  obs::Json vf = obs::Json::object();
  vf.set("ran", obs::Json(vfitRan));
  vf.set("failures", obs::Json(static_cast<std::uint64_t>(vfitFailures)));
  vf.set("latents", obs::Json(static_cast<std::uint64_t>(vfitLatents)));
  vf.set("silents", obs::Json(static_cast<std::uint64_t>(vfitSilents)));
  j.set("vfit", vf);
  obs::Json au = obs::Json::object();
  au.set("ran", obs::Json(autonomousRan));
  au.set("failures",
         obs::Json(static_cast<std::uint64_t>(autonomousFailures)));
  au.set("latents", obs::Json(static_cast<std::uint64_t>(autonomousLatents)));
  au.set("silents", obs::Json(static_cast<std::uint64_t>(autonomousSilents)));
  au.set("modeled_seconds", obs::Json(autonomousModeledSeconds));
  j.set("autonomous", au);
  return j;
}

namespace {

/// Bit-level target-pool correspondence between the two tools, available
/// exactly where the fault semantics is exact on both sides: flip-flops
/// (paired by HDL register-bit name) and memory content bits (paired through
/// the location map's bitAddress). Campaigns over these aligned pools draw
/// the SAME logical fault at every experiment index.
struct AlignedPools {
  std::vector<std::uint32_t> fades;
  std::vector<std::uint32_t> vfit;
  bool ok = false;
  std::string error;
};

AlignedPools alignPools(const synth::Implementation& impl,
                        const netlist::Netlist& nl, TargetClass cls) {
  AlignedPools p;
  if (cls == TargetClass::SequentialFF) {
    for (std::uint32_t fi = 0; fi < impl.flops.size(); ++fi) {
      const auto vflop = nl.findFlop(impl.flops[fi].name);
      if (!vflop.has_value()) {
        p.error = "flop '" + impl.flops[fi].name + "' missing from netlist";
        return p;
      }
      p.fades.push_back(fi);
      p.vfit.push_back(vflop->value);
    }
  } else {  // MemoryBlockBit
    for (const auto& site : impl.rams) {
      const std::size_t rows = std::size_t{1} << site.addrBits;
      for (std::size_t row = 0; row < rows; ++row) {
        for (unsigned bit = 0; bit < site.dataBits; ++bit) {
          const auto [block, contentBit] = site.bitAddress(row, bit);
          p.fades.push_back((block << 16) | contentBit);
          p.vfit.push_back((site.ram.value << 24) |
                           (static_cast<std::uint32_t>(row) << 8) | bit);
        }
      }
    }
    if (p.fades.empty()) {
      p.error = "design has no memory bits";
      return p;
    }
  }
  p.ok = true;
  return p;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool sameOutcome(const campaign::ExperimentOutcome& a,
                 const campaign::ExperimentOutcome& b) {
  return a.outcome == b.outcome && a.modeledSeconds == b.modeledSeconds &&
         a.configSeconds == b.configSeconds &&
         a.workloadSeconds == b.workloadSeconds &&
         a.hostSeconds == b.hostSeconds &&
         a.bytesToDevice == b.bytesToDevice &&
         a.bytesFromDevice == b.bytesFromDevice && a.sessions == b.sessions &&
         a.quarantined == b.quarantined;
}

}  // namespace

CaseReport checkCase(const CaseSpec& c, const OracleOptions& opt) {
  auto& reg = obs::Registry::global();
  reg.counter("diffcheck.cases").inc();

  CaseReport rep;
  rep.spec = c;
  rep.experiments = c.inject.experiments;
  const auto fail = [&](const char* rule, std::string detail) {
    rep.violations.push_back({rule, std::move(detail)});
  };

  const netlist::Netlist nl = buildDesign(c);
  const fpga::DeviceSpec deviceSpec = c.kind == DesignKind::Rtl
                                          ? fpga::DeviceSpec::small()
                                          : fpga::DeviceSpec::virtex1000Like();
  const auto impl = synth::implement(nl, deviceSpec);

  fpga::Device device(impl.spec);
  core::FadesOptions fOpt;
  fOpt.observedOutputs = observedOutputs(c);
  fOpt.keepRecords = true;
  core::FadesTool fades(device, impl, c.runCycles, fOpt);

  vfit::VfitOptions vOpt;
  vOpt.observedOutputs = observedOutputs(c);
  vOpt.keepRecords = true;
  vfit::VfitTool vfit(nl, c.runCycles, vOpt);

  // The autonomous backend verifies its own instrumentation at construction
  // (the transparency check simulates the instrumented netlist with every
  // control at 0 against the golden trace); a divergence surfaces as a
  // ConfigError here and is exactly the golden.autonomous-agree rule.
  std::unique_ptr<core::AutonomousTool> autonomous;
  core::AutonomousOptions aOpt;
  aOpt.observedOutputs = observedOutputs(c);
  aOpt.keepRecords = true;
  try {
    autonomous = std::make_unique<core::AutonomousTool>(nl, c.runCycles, aOpt);
  } catch (const common::FadesError& err) {
    if (err.kind() != common::ErrorKind::ConfigError) throw;
    fail("golden.autonomous-agree", err.what());
  }
  if (autonomous != nullptr &&
      autonomous->golden().outputs != vfit.golden().outputs) {
    fail("golden.autonomous-agree",
         "autonomous backend golden trace differs from VFIT's");
  }

  // --- golden agreement ----------------------------------------------------
  // Before any fault the emulated and the simulated model must produce the
  // identical output trace; for the microcontroller the instruction-set
  // simulator is the third, independent reference for the final port state.
  if (fades.golden().outputs != vfit.golden().outputs) {
    std::string where = "trace length " +
                        std::to_string(fades.golden().outputs.size()) + " vs " +
                        std::to_string(vfit.golden().outputs.size());
    for (std::size_t i = 0; i < fades.golden().outputs.size() &&
                            i < vfit.golden().outputs.size();
         ++i) {
      if (fades.golden().outputs[i] != vfit.golden().outputs[i]) {
        where = "first divergence at cycle " + std::to_string(i);
        break;
      }
    }
    fail("golden.trace-agree", "fault-free FADES and VFIT traces differ: " + where);
  }
  if (c.kind == DesignKind::Mc8051 && !fades.golden().outputs.empty()) {
    std::string src;
    for (const auto& line : c.program) {
      src += line;
      src += '\n';
    }
    mc8051::Iss iss(mc8051::assemble(src).bytes);
    iss.runCycles(c.runCycles);
    const std::uint64_t want =
        iss.p0() | (static_cast<std::uint64_t>(iss.p1()) << 16);
    const std::uint64_t got = fades.golden().outputs.back();
    if (got != want) {
      fail("golden.iss-agree",
           "final port word: emulated core 0x" + num(static_cast<double>(got)) +
               " vs ISS p0=" + std::to_string(iss.p0()) +
               " p1=" + std::to_string(iss.p1()));
    }
  }

  // --- campaign setup ------------------------------------------------------
  const bool vfitSupported = vfit.supports(c.inject.model);
  const bool exact =
      vfitSupported && c.inject.model == FaultModel::BitFlip &&
      (c.inject.targets == TargetClass::SequentialFF ||
       c.inject.targets == TargetClass::MemoryBlockBit);

  AlignedPools aligned;
  if (exact) {
    aligned = alignPools(impl, nl, c.inject.targets);
    if (!aligned.ok) {
      fail("pool.align", aligned.error);
    }
  }
  // A generated design may legitimately expose no targets of the requested
  // class (e.g. no flop placed through the CB input bypass). That is an
  // uninjectable spec, not a cross-tool disagreement: report zero
  // experiments and let stricter callers (the corpus test) reject it.
  std::vector<std::uint32_t> fPool;
  if (exact && aligned.ok) {
    fPool = aligned.fades;
  } else {
    try {
      fPool = fades.enumeratePool(c.inject);
    } catch (const common::FadesError& e) {
      if (e.kind() != common::ErrorKind::InjectionError) throw;
      rep.experiments = 0;
      return rep;
    }
  }

  // --- FADES campaign, one experiment at a time ----------------------------
  std::vector<campaign::ExperimentOutcome> fOut;
  fOut.reserve(c.inject.experiments);
  for (unsigned e = 0; e < c.inject.experiments; ++e) {
    fOut.push_back(fades.runExperimentAt(c.inject, fPool, e, 0));
  }
  const double expectedWorkload =
      static_cast<double>(c.runCycles) / fOpt.fpgaClockHz;
  for (const auto& x : fOut) {
    const auto tag = " (experiment " + std::to_string(x.index) + ")";
    if (x.quarantined) {
      fail("tally.consistent",
           "experiment quarantined on a fault-free link: " + x.failureMessage +
               tag);
      continue;
    }
    switch (x.outcome) {
      case campaign::Outcome::Failure: ++rep.fadesFailures; break;
      case campaign::Outcome::Latent: ++rep.fadesLatents; break;
      case campaign::Outcome::Silent: ++rep.fadesSilents; break;
    }
    rep.fadesModeledSeconds += x.modeledSeconds;
    if (x.modeledSeconds !=
        x.configSeconds + x.workloadSeconds + x.hostSeconds) {
      fail("cost.decomposition",
           "modeledSeconds " + num(x.modeledSeconds) + " != config " +
               num(x.configSeconds) + " + workload " + num(x.workloadSeconds) +
               " + host " + num(x.hostSeconds) + tag);
    }
    if (x.configSeconds < 0 || x.workloadSeconds < 0 || x.hostSeconds < 0 ||
        x.modeledSeconds <= 0) {
      fail("cost.decomposition", "negative cost component" + tag);
    }
    if (x.workloadSeconds != expectedWorkload) {
      fail("cost.workload", "workloadSeconds " + num(x.workloadSeconds) +
                                " != runCycles/clock " +
                                num(expectedWorkload) + tag);
    }
    if (x.hostSeconds != fOpt.hostPerExperimentSeconds) {
      fail("cost.workload",
           "hostSeconds " + num(x.hostSeconds) + " != fixed per-experiment " +
               num(fOpt.hostPerExperimentSeconds) + tag);
    }
    if (x.bytesFromDevice == 0 || x.sessions == 0) {
      fail("cost.decomposition",
           "experiment read nothing back from the device" + tag);
    }
  }

  // --- VFIT campaign -------------------------------------------------------
  campaign::CampaignResult vres;
  if (vfitSupported) {
    campaign::CampaignSpec vSpec = c.inject;
    if (exact && aligned.ok) vSpec.targetPool = aligned.vfit;
    bool ran = true;
    try {
      vres = campaign::runCampaign(vSpec, {&vfit});
    } catch (const common::FadesError& err) {
      // "No VFIT targets" is a tool limitation (the HDL view may simply have
      // no named signal of the requested class), not a disagreement.
      if (err.kind() == common::ErrorKind::InjectionError) {
        ran = false;
      } else {
        throw;
      }
    }
    if (ran) {
      rep.vfitRan = true;
      rep.vfitFailures = vres.failures;
      rep.vfitLatents = vres.latents;
      rep.vfitSilents = vres.silents;
      if (vres.total() != c.inject.experiments) {
        fail("tally.consistent",
             "VFIT tally " + std::to_string(vres.total()) + " != " +
                 std::to_string(c.inject.experiments) + " experiments");
      }
    }
  }

  // --- exact per-experiment agreement (bit-flips over aligned pools) -------
  if (exact && aligned.ok && rep.vfitRan &&
      vres.records.size() == fOut.size()) {
    for (std::size_t e = 0; e < fOut.size(); ++e) {
      if (fOut[e].quarantined || !fOut[e].hasRecord) continue;
      const auto& fr = fOut[e].record;
      const auto& vr = vres.records[e];
      const auto tag = " (experiment " + std::to_string(e) + ")";
      if (fr.injectCycle != vr.injectCycle ||
          fr.durationCycles != vr.durationCycles) {
        fail("draw.agree", "campaign draws diverge: FADES cycle " +
                               std::to_string(fr.injectCycle) + " dur " +
                               num(fr.durationCycles) + " vs VFIT cycle " +
                               std::to_string(vr.injectCycle) + " dur " +
                               num(vr.durationCycles) + tag);
        continue;
      }
      if (fr.outcome != vr.outcome) {
        fail("outcome.bitflip-agree",
             std::string("identical bit-flip classified FADES=") +
                 campaign::toString(fr.outcome) + " vs VFIT=" +
                 campaign::toString(vr.outcome) + " target " + fr.targetName +
                 " cycle " + std::to_string(fr.injectCycle) + tag);
      }
    }
  }

  // --- autonomous campaign: same fault semantics, its own meters -----------
  // The backend shares VFIT's semantic engine, so every experiment - not
  // just exact bit-flips - must reproduce VFIT's draw, target and
  // classification; only the cost fields differ, and those must obey the
  // autonomous cost model: exact config+workload+host sum, workload at the
  // emulator clock, and zero configuration bytes moved.
  if (autonomous != nullptr && autonomous->supports(c.inject.model)) {
    campaign::CampaignSpec aSpec = c.inject;
    if (exact && aligned.ok) aSpec.targetPool = aligned.vfit;
    std::vector<std::uint32_t> aPool;
    bool ran = true;
    try {
      aPool = autonomous->enumeratePool(aSpec);
    } catch (const common::FadesError& err) {
      if (err.kind() != common::ErrorKind::InjectionError) throw;
      ran = false;
    }
    if (ran) {
      rep.autonomousRan = true;
      std::vector<campaign::ExperimentOutcome> aOut;
      aOut.reserve(c.inject.experiments);
      for (unsigned e = 0; e < c.inject.experiments; ++e) {
        aOut.push_back(autonomous->runExperimentAt(aSpec, aPool, e, 0));
      }
      const double aWorkload =
          static_cast<double>(c.runCycles) / aOpt.fpgaClockHz;
      for (const auto& x : aOut) {
        const auto tag = " (experiment " + std::to_string(x.index) + ")";
        switch (x.outcome) {
          case campaign::Outcome::Failure: ++rep.autonomousFailures; break;
          case campaign::Outcome::Latent: ++rep.autonomousLatents; break;
          case campaign::Outcome::Silent: ++rep.autonomousSilents; break;
        }
        rep.autonomousModeledSeconds += x.modeledSeconds;
        if (x.modeledSeconds !=
            x.configSeconds + x.workloadSeconds + x.hostSeconds) {
          fail("cost.autonomous-decomposition",
               "modeledSeconds " + num(x.modeledSeconds) + " != config " +
                   num(x.configSeconds) + " + workload " +
                   num(x.workloadSeconds) + " + host " + num(x.hostSeconds) +
                   tag);
        }
        if (x.configSeconds <= 0 || x.workloadSeconds != aWorkload ||
            x.hostSeconds != aOpt.hostPerInjectionSeconds) {
          fail("cost.autonomous-decomposition",
               "autonomous meters off the cost model: config " +
                   num(x.configSeconds) + " workload " +
                   num(x.workloadSeconds) + " host " + num(x.hostSeconds) +
                   tag);
        }
        if (x.bytesToDevice != 0 || x.bytesFromDevice != 0 ||
            x.sessions != 0) {
          fail("cost.autonomous-decomposition",
               "autonomous injection moved configuration bytes" + tag);
        }
      }
      if (rep.vfitRan && vres.records.size() == aOut.size()) {
        for (std::size_t e = 0; e < aOut.size(); ++e) {
          if (!aOut[e].hasRecord) continue;
          const auto& ar = aOut[e].record;
          const auto& vr = vres.records[e];
          const auto tag = " (experiment " + std::to_string(e) + ")";
          if (ar.targetName != vr.targetName ||
              ar.injectCycle != vr.injectCycle ||
              ar.durationCycles != vr.durationCycles ||
              ar.outcome != vr.outcome) {
            fail("outcome.autonomous-agree",
                 "autonomous target " + ar.targetName + " cycle " +
                     std::to_string(ar.injectCycle) + " outcome " +
                     campaign::toString(ar.outcome) + " vs VFIT target " +
                     vr.targetName + " cycle " +
                     std::to_string(vr.injectCycle) + " outcome " +
                     campaign::toString(vr.outcome) + tag);
          }
        }
      }
      if (opt.checkDeterminism && !aOut.empty()) {
        const auto again = autonomous->runExperimentAt(aSpec, aPool, 0, 0);
        if (!sameOutcome(aOut[0], again)) {
          fail("run.deterministic",
               "autonomous experiment 0 re-run diverged: outcome " +
                   std::string(campaign::toString(aOut[0].outcome)) + "/" +
                   num(aOut[0].modeledSeconds) + " then " +
                   campaign::toString(again.outcome) + "/" +
                   num(again.modeledSeconds));
        }
      }
    }
  }

  // --- determinism: replaying an experiment is bit-identical ---------------
  if (opt.checkDeterminism && !fOut.empty()) {
    const auto again = fades.runExperimentAt(c.inject, fPool, 0, 0);
    if (!sameOutcome(fOut[0], again)) {
      fail("run.deterministic",
           "experiment 0 re-run diverged: outcome " +
               std::string(campaign::toString(fOut[0].outcome)) + "/" +
               num(fOut[0].modeledSeconds) + " then " +
               campaign::toString(again.outcome) + "/" +
               num(again.modeledSeconds));
    }
  }

  // --- retry exclusion: a flaky link must never leak into results ----------
  // A second tool instance (fresh device, same implementation) faces a
  // deliberately unreliable board link; outcomes, modeled cost and metered
  // payload traffic must be bit-identical to the quiet-link run because all
  // retry work is charged to retry-only meter fields.
  if (opt.checkRetryExclusion && c.kind == DesignKind::Rtl && !fOut.empty()) {
    fpga::Device noisyDevice(impl.spec);
    core::FadesOptions nOpt = fOpt;
    nOpt.linkFaults.readCrcRate = 0.01;
    nOpt.linkFaults.writeFailRate = 0.01;
    core::FadesTool noisy(noisyDevice, impl, c.runCycles, nOpt);
    const auto faulted = noisy.runExperimentAt(c.inject, fPool, 0, 0);
    if (!faulted.quarantined && !sameOutcome(fOut[0], faulted)) {
      fail("retry.exclusion",
           "link faults changed experiment 0: outcome " +
               std::string(campaign::toString(fOut[0].outcome)) + " cost " +
               num(fOut[0].modeledSeconds) + " -> " +
               campaign::toString(faulted.outcome) + " cost " +
               num(faulted.modeledSeconds));
    }
  }

  reg.counter("diffcheck.experiments").add(c.inject.experiments);
  if (!rep.ok()) {
    reg.counter("diffcheck.violations").add(rep.violations.size());
    reg.counter("diffcheck.cases_failed").inc();
  }
  return rep;
}

}  // namespace fades::diffcheck
