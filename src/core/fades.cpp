#include "core/fades.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/lut_circuit.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "synth/fabric.hpp"

namespace fades::core {

using common::ErrorKind;
using common::raise;
using common::require;
using common::Rng;
using fpga::CbCoord;
using fpga::CbField;

FadesTool::FadesTool(fpga::Device& device, const synth::Implementation& impl,
                     std::uint64_t runCycles, FadesOptions options)
    : dev_(device),
      impl_(impl),
      runCycles_(runCycles),
      opt_(std::move(options)),
      port_(device),
      ctrFailures_(obs::Registry::global().counter(
          "campaign.experiments{outcome=failure}")),
      ctrLatents_(obs::Registry::global().counter(
          "campaign.experiments{outcome=latent}")),
      ctrSilents_(obs::Registry::global().counter(
          "campaign.experiments{outcome=silent}")),
      modeledSecondsHist_(obs::Registry::global().histogram(
          "experiment.modeled_seconds",
          {0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0})),
      ctrSettles_(obs::Registry::global().counter("fpga.settles")),
      ctrAuditFailures_(obs::Registry::global().counter(
          "fades.config_audit_failures")) {
  obs::Span setupSpan{"setup", {{"device", dev_.spec().name}}};
  settlesFlushed_ = dev_.settles();
  // One-time download of the configuration file (Figure 1).
  port_.writeFullBitstream(impl_.bitstream);
  setupSeconds_ = kLink.seconds(port_.meter());
  port_.resetMeter();

  // Location-map derived indexes.
  {
    std::vector<std::uint8_t> colUsed(dev_.spec().cols, 0);
    for (const auto& f : impl_.flops) colUsed[f.cb.x] = 1;
    for (unsigned c = 0; c < dev_.spec().cols; ++c) {
      if (colUsed[c]) usedCaptureCols_.push_back(c);
    }
    std::vector<std::uint8_t> blockUsed(dev_.spec().memBlocks, 0);
    for (const auto& r : impl_.rams) {
      for (const auto& s : r.slices) blockUsed[s.block] = 1;
    }
    for (unsigned b = 0; b < dev_.spec().memBlocks; ++b) {
      if (blockUsed[b]) usedBramBlocks_.push_back(b);
    }
    usedNodes_.assign(dev_.nodes().count(), false);
    for (const auto& r : impl_.routes) {
      usedNodes_[r.sourceNode] = true;
      for (const std::uint32_t n : r.sinkNodes) usedNodes_[n] = true;
      for (const std::uint32_t n : r.wireNodes) usedNodes_[n] = true;
    }
    fullStateReadBytes_ =
        usedCaptureCols_.size() * dev_.spec().frameBytes +
        std::uint64_t{usedBramBlocks_.size()} *
            dev_.layout().bramFramesPerBlock() * dev_.spec().frameBytes;
    for (std::size_t k = 0; k < opt_.observedOutputs.size(); ++k) {
      const std::string& port = opt_.observedOutputs[k];
      bool any = false;
      for (const auto& p : impl_.pads) {
        if (p.port != port || p.isInput) continue;
        any = true;
        observedPads_.emplace_back(p.pad,
                                   campaign::observedBit(port, k, p.bitIndex));
      }
      require(any, ErrorKind::InvalidArgument,
              "no output port '" + port + "'");
    }
  }

  // Golden run: output trace, golden trace, final state.
  mirror_ = dev_.captureState();
  trace_.memory0 = mirror_.bramContent;
  golden_.outputs.reserve(runCycles_);
  trace_.writeStart.reserve(runCycles_ + 1);
  for (std::uint64_t c = 0; c < runCycles_; ++c) {
    golden_.outputs.push_back(outputWord());
    dev_.appendPackedState(trace_.rows);
    if (c == 0) trace_.rowWords = trace_.rows.size();
    trace_.writeStart.push_back(trace_.writes.size());
    dev_.step();
    for (const std::uint32_t w : dev_.changedBramWords()) {
      trace_.writes.push_back({w, dev_.bramStorageWord(w)});
    }
    dev_.clearChangedBramWords();
  }
  trace_.writeStart.push_back(trace_.writes.size());
  captureFinalStateViaPort(golden_);
  port_.resetMeter();
  flushSettles();

  // The unreliable-link model arms only now: setup (bitstream download +
  // golden run) happens on a quiet link, so replica construction never
  // raises LinkError and every fault lands inside a retryable experiment.
  port_.setRetryPolicy(opt_.linkRetry);
  port_.setLinkFaults(opt_.linkFaults);
}

void FadesTool::recover() {
  // A link fault can abandon a reconfiguration session mid-write, and a
  // failed configuration audit found a plane off the downloaded one: either
  // way the configuration needs repair, which locate() cannot give (the
  // golden trace holds dynamic state, not configuration). Re-download the
  // configuration file. The recovery transfer runs with the fault model
  // suspended (the modeled operator re-initializes a quiet board) and the
  // meter is reset afterwards, so recovery cost never leaks into the next
  // experiment's modeled seconds.
  const bits::LinkFaultOptions faults = port_.linkFaults();
  port_.setLinkFaults({});
  port_.writeFullBitstream(impl_.bitstream);
  port_.setLinkFaults(faults);
  port_.resetMeter();
}

std::uint64_t FadesTool::outputWord() const {
  std::uint64_t w = 0;
  for (const auto& [pad, bit] : observedPads_) {
    if (dev_.padValue(pad)) w |= std::uint64_t{1} << bit;
  }
  return w;
}

void FadesTool::captureFinalStateViaPort(Observation& obs) {
  // One batched read-back of the capture plane plus the content plane; the
  // meter charges it as a single capture operation of the combined size.
  obs.finalFlops.clear();
  obs.finalFlops.reserve(impl_.flops.size());
  std::map<unsigned, std::vector<std::uint8_t>> captureByCol;
  for (unsigned col : usedCaptureCols_) {
    captureByCol[col] = dev_.readCaptureFrame(col);  // content; cost below
  }
  for (const auto& f : impl_.flops) {
    const auto& bytes = captureByCol[f.cb.x];
    obs.finalFlops.push_back((bytes[f.cb.y >> 3] >> (f.cb.y & 7)) & 1u);
  }
  obs.finalMemory.clear();
  for (unsigned block : usedBramBlocks_) {
    for (unsigned m = 0; m < dev_.layout().bramFramesPerBlock(); ++m) {
      const auto bytes = dev_.readBramFrame(block, m);
      for (std::size_t k = 0; k + 7 < bytes.size(); k += 8) {
        std::uint64_t w = 0;
        for (unsigned j = 0; j < 8; ++j) {
          w |= static_cast<std::uint64_t>(bytes[k + j]) << (8 * j);
        }
        obs.finalMemory.push_back(w);
      }
    }
  }
  port_.chargeCapture(fullStateReadBytes_);
}

void FadesTool::beginExperiment() {
  port_.resetMeter();
  // Reset to the initial state (Figure 1 "new experiment"): GSR pulse plus
  // re-initialisation of the memory-block contents, which faults and the
  // workload itself may have dirtied (Section 4.1: memory bit-flips persist
  // until rewritten).
  port_.chargeCommand();  // GSR
  port_.chargeWrite(std::uint64_t{usedBramBlocks_.size()} *
                    dev_.layout().bramFramesPerBlock() *
                    dev_.spec().frameBytes);
  // Output-trace upload from the on-board capture buffer (2 bytes/cycle).
  port_.chargeRead(runCycles_ * 2);
}

void FadesTool::flushSettles() {
  ctrSettles_.add(dev_.settles() - settlesFlushed_);
  settlesFlushed_ = dev_.settles();
}

void FadesTool::auditConfiguration(const char* when) {
  if (dev_.configIsDownloaded()) return;
  ctrAuditFailures_.inc();
  raise(ErrorKind::LinkError,
        std::string("configuration audit: logic plane differs from the "
                    "downloaded bitstream ") +
            when);
}

void FadesTool::locate(std::uint64_t cycle) {
  require(cycle < runCycles_, ErrorKind::InvalidArgument,
          "locate beyond workload");
  auditConfiguration("before locating");
  // Host-side load of the golden state (the modeled flow runs the workload
  // from reset; finishExperiment charges its duration): cycle 0's memory
  // plus the golden writes before `cycle`, then the trace row.
  mirror_.bramContent = trace_.memory0;
  for (std::size_t k = 0; k < trace_.writeStart[cycle]; ++k) {
    const GoldenWrite& gw = trace_.writes[k];
    fpga::setStorageWord(mirror_.bramContent, gw.word, gw.value);
  }
  mirror_.cycle = cycle;
  dev_.restoreState(mirror_, std::span(trace_.rows).subspan(
                                 cycle * trace_.rowWords, trace_.rowWords));
  memorySuspects_.clear();
}

void FadesTool::recheckMemoryWord(std::uint32_t w) {
  const bool differs =
      dev_.bramStorageWord(w) != fpga::storageWord(mirror_.bramContent, w);
  const auto it = std::find(memorySuspects_.begin(), memorySuspects_.end(), w);
  if (differs == (it != memorySuspects_.end())) return;
  if (differs) {
    memorySuspects_.push_back(w);
  } else {
    *it = memorySuspects_.back();
    memorySuspects_.pop_back();
  }
}

void FadesTool::stepObserved(std::int64_t& detectCycle) {
  const std::uint64_t c = dev_.cycle();
  if (detectCycle < 0 && outputWord() != golden_.outputs[c]) {
    detectCycle = static_cast<std::int64_t>(c);
  }
  dev_.step();
}

bool FadesTool::rejoinedGoldenRun() {
  if (!dev_.configIsDownloaded()) return false;
  // Bring the golden mirror to the device's cycle, then re-decide every
  // word either run wrote since the last call: each word is re-decided
  // after its last write, so the suspects are exactly the differing words.
  const std::uint64_t c = dev_.cycle();
  for (std::size_t k = trace_.writeStart[mirror_.cycle];
       k < trace_.writeStart[c]; ++k) {
    const GoldenWrite& gw = trace_.writes[k];
    fpga::setStorageWord(mirror_.bramContent, gw.word, gw.value);
    recheckMemoryWord(gw.word);
  }
  mirror_.cycle = c;
  for (const std::uint32_t w : dev_.changedBramWords()) recheckMemoryWord(w);
  dev_.clearChangedBramWords();
  if (!memorySuspects_.empty()) return false;
  return dev_.packedStateMatches(
      std::span(trace_.rows).subspan(c * trace_.rowWords, trace_.rowWords));
}

Outcome FadesTool::observeToEnd(std::int64_t& detectCycle) {
  while (detectCycle < 0 && dev_.cycle() < runCycles_) {
    if (rejoinedGoldenRun()) {
      // Both runs are identical from here on: Silent, charged the final
      // state read-back the full run makes.
      port_.chargeCapture(fullStateReadBytes_);
      return Outcome::Silent;
    }
    stepObserved(detectCycle);
  }
  if (detectCycle >= 0) {
    port_.chargeCapture(fullStateReadBytes_);
    return Outcome::Failure;
  }
  // The outputs matched the golden trace to the end, so the final state
  // alone separates Latent from Silent.
  Observation faulty;
  captureFinalStateViaPort(faulty);
  return faulty.finalFlops == golden_.finalFlops &&
                 faulty.finalMemory == golden_.finalMemory
             ? Outcome::Silent
             : Outcome::Latent;
}

double FadesTool::finishExperiment(Outcome outcome) {
  const double seconds = kLink.seconds(port_.meter()) +
                         static_cast<double>(runCycles_) / kFpgaClockHz +
                         kHostPerExperimentSeconds;
  modeledSecondsHist_.observe(seconds);
  switch (outcome) {
    case Outcome::Failure: ctrFailures_.inc(); break;
    case Outcome::Latent: ctrLatents_.inc(); break;
    case Outcome::Silent: ctrSilents_.inc(); break;
  }
  flushSettles();
  return seconds;
}

// ---------------------------------------------------------------------------
// Target enumeration (the fault-location process, Section 2)
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> targets(const synth::Implementation& impl,
                                   FaultModel model, TargetClass cls,
                                   Unit unit) {
  std::vector<std::uint32_t> out;
  switch (cls) {
    case TargetClass::SequentialFF:
      out = impl.flopsInUnit(unit);
      break;
    case TargetClass::MemoryBlockBit: {
      for (const auto& r : impl.rams) {
        if (r.isRom) continue;  // the paper targets RAM, not program store
        if (unit != Unit::None && r.unit != unit) continue;
        for (const auto& s : r.slices) {
          const unsigned rows = 1u << r.addrBits;
          for (unsigned bit = 0; bit < rows * s.width; ++bit) {
            out.push_back((s.block << 16) | bit);
          }
        }
      }
      break;
    }
    case TargetClass::CombinationalLut:
      for (auto i : impl.lutsInUnit(unit)) {
        if (impl.luts[i].out.valid()) out.push_back(i);  // skip const LUTs
      }
      break;
    case TargetClass::CbInputLine:
      for (auto i : impl.flopsInUnit(unit)) {
        if (impl.flops[i].bypassInput) out.push_back(i);
      }
      break;
    case TargetClass::SequentialLine:
    case TargetClass::CombinationalLine: {
      const bool seq = (cls == TargetClass::SequentialLine);
      for (auto i : impl.routesInUnit(unit, seq)) {
        if (!impl.routes[i].wireNodes.empty()) out.push_back(i);
      }
      break;
    }
  }
  require(!out.empty(), ErrorKind::InjectionError,
          std::string("no FADES targets: ") + toString(model) + " on " +
              toString(cls));
  return out;
}

std::string targetName(const synth::Implementation& impl, TargetClass cls,
                       std::uint32_t target) {
  switch (cls) {
    case TargetClass::SequentialFF:
      return impl.flops[target].name;
    case TargetClass::MemoryBlockBit:
      return "bram" + std::to_string(target >> 16) + ".bit" +
             std::to_string(target & 0xFFFF);
    case TargetClass::CombinationalLut:
      return "lut:" + impl.luts[target].signalName;
    case TargetClass::CbInputLine:
      return "byp:" + impl.flops[target].name;
    case TargetClass::SequentialLine:
    case TargetClass::CombinationalLine:
      return "net:" + impl.routes[target].signalName;
  }
  return "?";
}

std::vector<std::uint32_t> targetPool(const synth::Implementation& impl,
                                      const CampaignSpec& spec) {
  return spec.targetPool.empty()
             ? targets(impl, spec.model, spec.targets,
                       static_cast<Unit>(spec.unit))
             : spec.targetPool;
}

Unit FadesTool::targetUnit(TargetClass cls, std::uint32_t target) const {
  switch (cls) {
    case TargetClass::SequentialFF:
    case TargetClass::CbInputLine:
      return impl_.flops[target].unit;
    case TargetClass::MemoryBlockBit: {
      const unsigned block = target >> 16;
      for (const auto& r : impl_.rams) {
        for (const auto& s : r.slices) {
          if (s.block == block) return r.unit;
        }
      }
      return Unit::None;
    }
    case TargetClass::CombinationalLut:
      return impl_.luts[target].unit;
    case TargetClass::SequentialLine:
    case TargetClass::CombinationalLine:
      return impl_.routes[target].unit;
  }
  return Unit::None;
}

// ---------------------------------------------------------------------------
// Injection mechanisms (Section 4 / Table 1)
// ---------------------------------------------------------------------------

void FadesTool::flipViaGsr(std::span<const std::uint32_t> targets) {
  std::map<unsigned, std::vector<std::uint8_t>> capture;
  for (unsigned col : usedCaptureCols_) {
    capture[col] = port_.readCaptureFrame(col);
  }
  std::vector<std::pair<std::size_t, bool>> setBits, restoreBits;
  for (std::uint32_t i = 0; i < impl_.flops.size(); ++i) {
    const auto& site = impl_.flops[i];
    const auto& bytes = capture[site.cb.x];
    bool state = (bytes[site.cb.y >> 3] >> (site.cb.y & 7)) & 1u;
    for (const std::uint32_t t : targets) {
      if (t == i) state = !state;
    }
    const std::size_t bit = dev_.layout().cbFieldBit(site.cb, CbField::SrMode);
    setBits.emplace_back(bit, state);
    restoreBits.emplace_back(bit, site.init);
  }
  port_.setLogicBits(setBits);
  port_.pulseGsr();
  port_.setLogicBitsBlind(restoreBits);
  dev_.settle();
}

std::vector<std::pair<std::size_t, std::uint32_t>> FadesTool::detour(
    std::uint32_t from, std::uint32_t to, std::size_t forbiddenBit,
    std::span<const std::pair<std::size_t, std::uint32_t>> avoid) const {
  const auto& nodes = dev_.nodes();
  // Predecessor (node, bit) of each node reached. The nodes of `avoid` are
  // entered as reached, so the search never enters them (nor reaches `to`
  // through them); `to` itself stays reachable.
  std::unordered_map<std::uint32_t, std::pair<std::uint32_t, std::size_t>>
      prev;
  std::vector<std::uint32_t> queue{from};
  prev[from] = {from, 0};
  for (const auto& [bit, n] : avoid) {
    if (n != to) prev.try_emplace(n, n, 0);
  }
  bool found = false;
  for (std::size_t h = 0; h < queue.size() && !found; ++h) {
    const std::uint32_t n = queue[h];
    synth::forEachNeighbor(
        dev_.layout(), nodes, n, [&](std::uint32_t nb, std::size_t bit) {
          if (found || bit == forbiddenBit || prev.count(nb)) return;
          if (nb == to) {
            prev[nb] = {n, bit};
            found = true;
            return;
          }
          if (!nodes.isSegment(nb) || usedNodes_[nb] || queue.size() > 6000) {
            return;
          }
          prev[nb] = {n, bit};
          queue.push_back(nb);
        });
  }
  std::vector<std::pair<std::size_t, std::uint32_t>> path;
  if (!found) return path;
  for (std::uint32_t n = to; n != from;) {
    const auto [p, bit] = prev.at(n);
    path.emplace_back(bit, n);
    n = p;
  }
  return path;
}

void FadesTool::inject(ActiveFault& fault, Rng& rng) {
  switch (fault.model) {
    case FaultModel::BitFlip: {
      if (fault.cls == TargetClass::SequentialFF) {
        fault.cb = impl_.flops[fault.target].cb;
        port_.beginSession();
        if (opt_.bitFlipVia == BitFlipVia::Lsr) {
          // Fast path (Section 4.1): read the FF state, select the opposite
          // level on PRMux/CLRMux, pulse the local set/reset by toggling
          // InvertLSRMux.
          const bool state = port_.readFfState(fault.cb);
          const std::pair<CbField, bool> set[] = {{CbField::SrMode, !state},
                                                  {CbField::InvLsr, true}};
          port_.updateCbFields(fault.cb, set);
          dev_.settle();
          // Deassert the LSR and put SrMode back in one pass.
          const std::pair<CbField, bool> clr[] = {
              {CbField::InvLsr, false},
              {CbField::SrMode, impl_.flops[fault.target].init}};
          port_.updateCbFieldsBlind(fault.cb, clr);
        } else {
          // GSR path: the high-traffic approach the paper advises against.
          const std::uint32_t target[] = {fault.target};
          flipViaGsr(target);
        }
        fault.needsRemoval = false;  // bit-flips persist until rewritten
      } else {
        // Memory-block bit-flip (Section 4.1, Figure 4): read the stored
        // bit from the configuration memory and write it back inverted.
        const unsigned block = fault.target >> 16;
        const unsigned bit = fault.target & 0xFFFF;
        port_.beginSession();
        const bool v = port_.getBramBit(block, bit);
        port_.setBramBit(block, bit, !v);
        fault.needsRemoval = false;
      }
      break;
    }
    case FaultModel::Pulse: {
      if (fault.cls == TargetClass::CombinationalLut) {
        fault.cb = impl_.luts[fault.target].cb;
        port_.beginSession();
        // Section 4.2 / Figure 5: read the table, extract the circuit,
        // invert one line (output, input or internal), download.
        fault.originalTable = port_.getLutTable(fault.cb);
        const ExtractedCircuit circuit(fault.originalTable);
        const unsigned line =
            static_cast<unsigned>(rng.below(circuit.candidateLineCount()));
        port_.setLutTable(fault.cb, circuit.tableWithFaultedLine(line));
        dev_.settle();
        fault.needsRemoval = true;
      } else {
        // CB input through its inverter multiplexer (Figure 6).
        fault.cb = impl_.flops[fault.target].cb;
        port_.beginSession();
        const std::pair<CbField, bool> set[] = {{CbField::InvByp, true}};
        port_.updateCbFields(fault.cb, set);
        dev_.settle();
        fault.needsRemoval = true;
      }
      break;
    }
    case FaultModel::Delay: {
      const auto& route = impl_.routes[fault.target];
      const auto& nodes = dev_.nodes();
      const auto& layout = dev_.layout();
      std::vector<std::pair<std::size_t, bool>> changes;  // (bit, newValue)

      if (opt_.delayVia == DelayVia::ShiftRegister) {
        // Figure 7: break the line at its driver and re-route it through an
        // unused CB whose flip-flop acts as a shift-register stage - the
        // signal arrives whole clock cycles late while the fault is active.
        // The source pin must hang off the tree through exactly one edge.
        std::size_t srcEdge = route.edgeNodes.size();
        unsigned srcEdgeCount = 0;
        for (std::size_t ei = 0; ei < route.edgeNodes.size(); ++ei) {
          if (route.edgeNodes[ei].first == route.sourceNode ||
              route.edgeNodes[ei].second == route.sourceNode) {
            srcEdge = ei;
            ++srcEdgeCount;
          }
        }
        if (srcEdgeCount == 1) {
          const auto [ea, eb] = route.edgeNodes[srcEdge];
          const std::uint32_t s0 = (ea == route.sourceNode) ? eb : ea;
          const std::size_t directBit = route.transistorBits[srcEdge];

          // Find a fully unused CB near the first segment.
          double sx, sy;
          nodes.position(s0, sx, sy);
          fpga::CbCoord spare{};
          bool haveSpare = false;
          for (int radius = 1; radius <= 6 && !haveSpare; ++radius) {
            for (int dy = -radius; dy <= radius && !haveSpare; ++dy) {
              for (int dx = -radius; dx <= radius && !haveSpare; ++dx) {
                const int x = static_cast<int>(sx) + dx;
                const int y = static_cast<int>(sy) + dy;
                if (x < 0 || y < 0 || x >= int(dev_.spec().cols) ||
                    y >= int(dev_.spec().rows)) {
                  continue;
                }
                const fpga::CbCoord cb{static_cast<std::uint16_t>(x),
                                       static_cast<std::uint16_t>(y)};
                if (dev_.logicBit(layout.cbFieldBit(cb, CbField::FfUsed)) ||
                    dev_.logicBit(layout.cbFieldBit(cb, CbField::LutUsed))) {
                  continue;
                }
                spare = cb;
                haveSpare = true;
              }
            }
          }
          if (haveSpare) {
            const auto bypPin = nodes.cbIn(spare, fpga::CbInPin::Byp);
            const auto ffPin = nodes.cbOut(spare, fpga::CbOutPin::Ff);
            const auto leg1 = detour(route.sourceNode, bypPin, directBit, {});
            const auto leg2 = detour(ffPin, s0, directBit, leg1);
            if (!leg1.empty() && !leg2.empty()) {
              changes.emplace_back(directBit, false);
              for (const auto& [bit, n] : leg1) changes.emplace_back(bit, true);
              for (const auto& [bit, n] : leg2) changes.emplace_back(bit, true);
              changes.emplace_back(layout.cbFieldBit(spare, CbField::FfUsed),
                                   true);
              changes.emplace_back(
                  layout.cbFieldBit(spare, CbField::FfInSrc), true);
            }
          }
        }
      } else if (opt_.delayVia == DelayVia::Reroute) {
        // Open one wire-to-wire hop of the route and close a longer detour
        // through unused fabric (Table 1: "increase routing path"). The
        // detour passes through a random via waypoint several tiles away,
        // so the added wire length - and therefore the injected delay -
        // varies from fault to fault, like a physical delay distribution.
        std::vector<std::size_t> edgeOrder(route.edgeNodes.size());
        for (std::size_t i = 0; i < edgeOrder.size(); ++i) edgeOrder[i] = i;
        for (std::size_t i = edgeOrder.size(); i > 1; --i) {
          std::swap(edgeOrder[i - 1], edgeOrder[rng.below(i)]);
        }
        for (std::size_t ei : edgeOrder) {
          const auto [a, b] = route.edgeNodes[ei];
          if (!nodes.isSegment(a) || !nodes.isSegment(b)) continue;
          const std::size_t directBit = route.transistorBits[ei];

          double ax, ay;
          nodes.position(a, ax, ay);
          const auto& spec = dev_.spec();
          const int radius = 2 + static_cast<int>(rng.below(11));
          bool done = false;
          for (int attempt = 0; attempt < 16 && !done; ++attempt) {
            const int vx = std::clamp<int>(
                static_cast<int>(ax) + static_cast<int>(rng.below(2u * radius + 1)) - radius,
                0, static_cast<int>(spec.cols) - 1);
            const int vy = std::clamp<int>(
                static_cast<int>(ay) + static_cast<int>(rng.below(2u * radius + 1)) - radius,
                0, static_cast<int>(spec.rows) - 1);
            const unsigned t = static_cast<unsigned>(rng.below(spec.tracks));
            const std::uint32_t via =
                rng.coin() ? nodes.hseg(static_cast<unsigned>(vx),
                                        static_cast<unsigned>(vy), t)
                           : nodes.vseg(static_cast<unsigned>(vx),
                                        static_cast<unsigned>(vy), t);
            if (usedNodes_[via] || via == a || via == b) continue;

            const auto leg1 = detour(a, via, directBit, {});
            if (leg1.empty()) continue;
            const auto leg2 = detour(via, b, directBit, leg1);
            if (leg2.empty()) continue;

            changes.emplace_back(directBit, false);
            for (const auto& [bit, n] : leg1) changes.emplace_back(bit, true);
            for (const auto& [bit, n] : leg2) changes.emplace_back(bit, true);
            done = true;
          }
          if (done) break;
        }
      }
      if (changes.empty()) {
        // Fan-out increase (Figure 8): switch ON an unused pass transistor
        // touching the line; fallback when no detour exists.
        std::vector<std::uint32_t> wireOrder = route.wireNodes;
        for (std::size_t i = wireOrder.size(); i > 1; --i) {
          std::swap(wireOrder[i - 1], wireOrder[rng.below(i)]);
        }
        for (std::uint32_t w : wireOrder) {
          bool done = false;
          synth::forEachNeighbor(dev_.layout(), nodes, w,
                                 [&](std::uint32_t nb, std::size_t bit) {
                                   if (done || !nodes.isSegment(nb)) return;
                                   if (usedNodes_[nb]) return;
                                   if (dev_.logicBit(bit)) return;
                                   changes.emplace_back(bit, true);
                                   done = true;
                                 });
          if (done) break;
        }
      }
      require(!changes.empty(), ErrorKind::InjectionError,
              "no delay-fault site available on net " + route.signalName);

      port_.beginSession();
      if (opt_.fullDownloadForDelay) {
        // Replicates the paper's JBits/driver limitation: the whole
        // configuration file is transferred even for a handful of bits.
        for (const auto& [bit, v] : changes) dev_.setLogicBit(bit, v);
        port_.chargeFullImage();
      } else {
        std::vector<std::pair<std::size_t, bool>> updates(changes.begin(),
                                                          changes.end());
        port_.setLogicBits(updates);
      }
      dev_.settle();
      for (const auto& [bit, v] : changes) {
        fault.restoreBits.emplace_back(bit, !v);
      }
      fault.needsRemoval = true;
      break;
    }
    case FaultModel::Indetermination: {
      fault.indetValue = rng.coin();
      if (fault.cls == TargetClass::SequentialFF) {
        // Section 4.4: the undetermined level resolves to a random final
        // logic value; the FF's local set/reset holds it for the duration.
        fault.cb = impl_.flops[fault.target].cb;
        port_.beginSession();
        const std::pair<CbField, bool> set[] = {
            {CbField::SrMode, fault.indetValue}, {CbField::InvLsr, true}};
        port_.updateCbFieldsBlind(fault.cb, set);
        dev_.settle();
        fault.needsRemoval = true;
      } else {
        fault.cb = impl_.luts[fault.target].cb;
        fault.originalTable = impl_.luts[fault.target].table;  // host mirror
        port_.beginSession();
        port_.setLutTableBlind(
            fault.cb, static_cast<std::uint16_t>(rng.below(0x10000)));
        dev_.settle();
        fault.needsRemoval = true;
      }
      break;
    }
  }
}

void FadesTool::oscillate(ActiveFault& fault, Rng& rng) {
  if (fault.model != FaultModel::Indetermination) return;
  // Re-randomizing mid-fault is a fresh reconfiguration pass each cycle -
  // the mechanism behind the paper's ~4605 s oscillating campaigns.
  port_.beginSession();
  if (fault.cls == TargetClass::SequentialFF) {
    const std::pair<CbField, bool> set[] = {{CbField::SrMode, rng.coin()}};
    port_.updateCbFieldsBlind(fault.cb, set);
  } else {
    port_.setLutTableBlind(fault.cb,
                           static_cast<std::uint16_t>(rng.below(0x10000)));
  }
  dev_.settle();
}

void FadesTool::remove(ActiveFault& fault) {
  if (!fault.needsRemoval) return;
  switch (fault.model) {
    case FaultModel::Pulse:
      // Pulses spanning whole cycles need a second reconfiguration pass;
      // sub-cycle ones were injected and removed within one (Section 6.2).
      if (!fault.subCycle) port_.beginSession();
      if (fault.cls == TargetClass::CombinationalLut) {
        if (!fault.subCycle) {
          // Separate pass: the tool re-reads the (faulted) table to verify
          // the injection before writing the original back.
          (void)port_.getLutTable(fault.cb);
        }
        port_.setLutTable(fault.cb, fault.originalTable);
      } else {
        const std::pair<CbField, bool> clr[] = {{CbField::InvByp, false}};
        port_.updateCbFields(fault.cb, clr);
      }
      break;
    case FaultModel::Delay:
      port_.beginSession();
      if (opt_.fullDownloadForDelay) {
        for (const auto& [bit, v] : fault.restoreBits) {
          dev_.setLogicBit(bit, v);
        }
        port_.chargeFullImage();
      } else {
        port_.setLogicBits(fault.restoreBits);
      }
      break;
    case FaultModel::Indetermination:
      if (fault.cls == TargetClass::SequentialFF) {
        // The LSR line holds the random level for the whole duration, so
        // releasing it is a fresh driver round-trip at expiry.
        if (!fault.subCycle) port_.beginSession();
        const std::pair<CbField, bool> clr[] = {
            {CbField::InvLsr, false},
            {CbField::SrMode, impl_.flops[fault.target].init}};
        port_.updateCbFieldsBlind(fault.cb, clr);
      } else {
        // LUT restore needs no fresh device data (the randomizer works
        // from the host mirror), so it rides the open session.
        port_.setLutTableBlind(fault.cb, fault.originalTable);
      }
      break;
    case FaultModel::BitFlip:
      break;  // persists until rewritten
  }
  dev_.settle();
  fault.needsRemoval = false;
}

// ---------------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------------

Outcome FadesTool::runExperiment(FaultModel model, TargetClass cls,
                                 std::uint32_t target,
                                 std::uint64_t injectCycle,
                                 double durationCycles, Rng& rng,
                                 double* modeledSeconds,
                                 bits::TransferMeter* meterOut,
                                 std::int64_t* detectCycleOut) {
  require(injectCycle < runCycles_, ErrorKind::InvalidArgument,
          "injection instant beyond workload");
  // Fan-out and detour delays work through the timing model (they make
  // paths miss setup); the shift-register mechanism is functional and needs
  // no timing analysis.
  if (model == FaultModel::Delay &&
      opt_.delayVia != DelayVia::ShiftRegister && !dev_.timingEnabled()) {
    dev_.setTimingEnabled(true);
    dev_.settle();
    require(dev_.timingReport().lateFfCount == 0, ErrorKind::ConfigError,
            "fault-free design misses timing; increase clockPeriodNs");
  }

  beginExperiment();
  {
    obs::Span locateSpan{"locate", {{"target", std::to_string(target)}}};
    locate(injectCycle);
  }

  const std::uint64_t effectiveCycles =
      campaign::activeCycles(durationCycles, rng);

  ActiveFault fault;
  fault.model = model;
  fault.cls = cls;
  fault.target = target;
  fault.subCycle = durationCycles < 1.0;
  {
    obs::Span injectSpan{"inject", {{"model", campaign::toString(model)}}};
    inject(fault, rng);
  }

  std::int64_t detectCycle = -1;
  if (model == FaultModel::BitFlip) {
    // Transient in cause, persistent in effect: nothing to remove.
  } else if (effectiveCycles == 0) {
    // Sub-cycle fault missing every edge: inject + remove back-to-back
    // within the same reconfiguration pass where the mechanism allows.
    obs::Span removeSpan{"remove"};
    remove(fault);
  } else {
    {
      obs::Span emulateSpan{
          "emulate", {{"cycles", std::to_string(effectiveCycles)}}};
      for (std::uint64_t k = 0;
           k < effectiveCycles && dev_.cycle() < runCycles_; ++k) {
        if (k > 0 && opt_.oscillatingIndetermination) oscillate(fault, rng);
        stepObserved(detectCycle);
      }
    }
    obs::Span removeSpan{"remove"};
    remove(fault);
  }
  auditConfiguration(model == FaultModel::BitFlip ? "after the bit-flip"
                                                  : "after removal");

  Outcome outcome;
  {
    obs::Span observeSpan{"observe"};
    outcome = observeToEnd(detectCycle);
  }
  const double seconds = finishExperiment(outcome);
  if (modeledSeconds != nullptr) *modeledSeconds = seconds;
  if (meterOut != nullptr) *meterOut = port_.meter();
  if (detectCycleOut != nullptr) *detectCycleOut = detectCycle;
  return outcome;
}

// ---------------------------------------------------------------------------
// campaign::CampaignEngine
// ---------------------------------------------------------------------------

campaign::ExperimentOutcome FadesTool::runExperimentAt(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, unsigned rerun) {
  // The link fault stream is keyed by (campaign seed, index, rerun) with a
  // salt separating it from the experiment streams below: faults are a pure
  // function of the spec (same pattern at any --jobs, because the logical
  // operation sequence never varies), yet a rerun after a transient failure
  // draws fresh faults and can succeed - which is what keeps a faulted
  // campaign's artifacts identical to a fault-free run.
  port_.seedLinkStream(common::streamSeed(
      spec.seed ^ 0x6c696e6b5f726e67ULL,  // "link_rng"
      std::uint64_t{index} * 131 + rerun));
  // A handful of sites cannot host certain faults (e.g. a net with no free
  // fabric around it for a delay detour); redraw like the paper's tool
  // would skip an unusable location. Each attempt is its own
  // campaign::drawExperiment, so redraws never perturb any other
  // experiment - the invariant sharded execution relies on (attempts cap
  // at 20, far below its stride of 131).
  for (unsigned attempt = 0;; ++attempt) {
    campaign::ExperimentDraw draw =
        campaign::drawExperiment(spec, pool, runCycles_, index, attempt);
    campaign::ExperimentOutcome out;
    bits::TransferMeter meter;
    std::int64_t detectCycle = -1;
    try {
      out.outcome = runExperiment(spec.model, spec.targets, draw.target,
                                  draw.injectCycle, draw.duration, draw.rng,
                                  &out.modeledSeconds, &meter, &detectCycle);
    } catch (const common::FadesError& err) {
      if (err.kind() != common::ErrorKind::InjectionError || attempt >= 20) {
        throw;
      }
      continue;
    }
    out.index = index;
    out.configSeconds = kLink.seconds(meter);
    out.workloadSeconds = static_cast<double>(runCycles_) / kFpgaClockHz;
    out.hostSeconds = kHostPerExperimentSeconds;
    out.bytesToDevice = meter.bytesToDevice;
    out.bytesFromDevice = meter.bytesFromDevice;
    out.sessions = meter.sessions;
    if (opt_.keepRecords) {
      out.hasRecord = true;
      out.record = campaign::makeRecord(
          draw, out.outcome, out.modeledSeconds,
          targetName(spec.targets, draw.target),
          netlist::toString(targetUnit(spec.targets, draw.target)),
          detectCycle, opt_.instructionTrace.get());
    }
    return out;
  }
}

campaign::ExperimentOutcome FadesTool::synthesizeOutcome(
    const CampaignSpec& spec, std::span<const std::uint32_t> pool,
    unsigned index, const campaign::ExperimentOutcome& representative) {
  // This experiment's own draw gives the planned fields. Prunable target
  // kinds (FF state, BRAM content, LUT outputs, dead nets) never raise
  // InjectionError, so attempt 0 is the experiment.
  const campaign::ExperimentDraw draw =
      campaign::drawExperiment(spec, pool, runCycles_, index);

  // The measured half - behavior and reconfiguration traffic - is exactly
  // the representative's (that equivalence is what the plan proved; traffic
  // is value-independent, so it matches even when instants differ).
  campaign::ExperimentOutcome out = representative;
  out.index = index;
  out.attempts = 0;
  out.hasRecord = false;
  out.record = campaign::ExperimentRecord{};
  if (opt_.keepRecords) {
    out.hasRecord = true;
    out.record = campaign::makeRecord(
        draw, out.outcome, out.modeledSeconds,
        targetName(spec.targets, draw.target),
        netlist::toString(targetUnit(spec.targets, draw.target)),
        representative.hasRecord ? representative.record.detectCycle : -1,
        opt_.instructionTrace.get());
    out.record.prunedFrom = static_cast<std::int64_t>(representative.index);
  }
  return out;
}

namespace {

// Ahead of FadesTool in FadesReplica's bases, so the device is built before
// the tool configures it.
struct OwnedDevice {
  explicit OwnedDevice(const fpga::DeviceSpec& spec) : ownedDevice(spec) {}
  fpga::Device ownedDevice;
};

/// One worker's FADES replica: a FadesTool over a private device.
class FadesReplica final : private OwnedDevice, public FadesTool {
 public:
  FadesReplica(const synth::Implementation& impl, std::uint64_t runCycles,
               FadesOptions options, const fpga::DeviceSpec& deviceSpec)
      : OwnedDevice(deviceSpec),
        FadesTool(ownedDevice, impl, runCycles, std::move(options)) {}
};

}  // namespace

campaign::EngineFactory fadesEngineFactory(
    const synth::Implementation& impl, std::uint64_t runCycles,
    FadesOptions options, std::optional<fpga::DeviceSpec> deviceSpec) {
  return [&impl, runCycles, options = std::move(options),
          deviceSpec = std::move(deviceSpec)] {
    return std::make_unique<FadesReplica>(
        impl, runCycles, options, deviceSpec ? *deviceSpec : impl.spec);
  };
}

// ---------------------------------------------------------------------------
// Multiple bit-flips (extension)
// ---------------------------------------------------------------------------

Outcome FadesTool::runMultipleBitFlipExperiment(
    std::span<const std::uint32_t> flopTargets, std::uint64_t injectCycle,
    double* modeledSeconds) {
  require(!flopTargets.empty(), ErrorKind::InvalidArgument,
          "empty MBU target set");
  require(injectCycle < runCycles_, ErrorKind::InvalidArgument,
          "injection instant beyond workload");

  beginExperiment();
  locate(injectCycle);
  port_.beginSession();
  flipViaGsr(flopTargets);
  auditConfiguration("after the bit-flips");
  std::int64_t detectCycle = -1;
  const Outcome outcome = observeToEnd(detectCycle);
  const double seconds = finishExperiment(outcome);
  if (modeledSeconds != nullptr) *modeledSeconds = seconds;
  return outcome;
}

// ---------------------------------------------------------------------------
// Table 4 probe
// ---------------------------------------------------------------------------

std::vector<RegisterEffect> FadesTool::multiBitFlipProbe(
    std::uint32_t lutIndex, std::uint64_t cycle) {
  require(lutIndex < impl_.luts.size(), ErrorKind::InvalidArgument,
          "lut index out of range");

  auto registerValues = [&] {
    // Group flip-flop states into registers by HDL name ("acc[3]" -> acc).
    std::map<std::string, std::uint64_t> regs;
    for (const auto& f : impl_.flops) {
      std::string reg = f.name;
      unsigned bit = 0;
      if (const auto p = reg.find('['); p != std::string::npos) {
        bit = static_cast<unsigned>(std::stoul(reg.substr(p + 1)));
        reg = reg.substr(0, p);
      }
      auto& value = regs[reg];
      if (dev_.ffState(f.cb)) value |= 1ULL << bit;
    }
    return regs;
  };

  // Golden next-state.
  locate(cycle);
  const fpga::DeviceState atCycle = dev_.captureState();
  dev_.step();
  const auto goldenRegs = registerValues();

  // Faulty next-state: invert the LUT output for exactly one edge.
  dev_.restoreState(atCycle);
  const CbCoord cb = impl_.luts[lutIndex].cb;
  const std::uint16_t original = impl_.luts[lutIndex].table;
  port_.setLutTable(cb, ExtractedCircuit::tableWithInvertedOutput(original));
  dev_.settle();
  dev_.step();
  const auto faultyRegs = registerValues();
  port_.setLutTable(cb, original);
  dev_.settle();
  flushSettles();

  std::vector<RegisterEffect> out;
  for (const auto& [name, gv] : goldenRegs) {
    const auto it = faultyRegs.find(name);
    if (it != faultyRegs.end() && it->second != gv) {
      out.push_back(RegisterEffect{name, gv, it->second});
    }
  }
  return out;
}

}  // namespace fades::core
