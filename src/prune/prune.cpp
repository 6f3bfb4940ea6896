#include "prune/prune.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "common/error.hpp"

namespace fades::prune {

using campaign::CampaignSpec;
using campaign::FaultModel;
using campaign::PruneClass;
using campaign::PrunePlan;
using campaign::PruneReason;
using campaign::TargetClass;
using common::ErrorKind;
using common::require;
using netlist::FlopId;
using netlist::NetId;
using netlist::Netlist;
using netlist::RamId;

// ---------------------------------------------------------------------------
// Target decoders
// ---------------------------------------------------------------------------

TargetDecoder fadesDecoder(const synth::Implementation& impl,
                           TargetClass cls) {
  switch (cls) {
    case TargetClass::SequentialFF:
      return [&impl](std::uint32_t handle) {
        TargetSite s;
        s.kind = TargetSite::Kind::Flop;
        s.flop = impl.flops[handle].flop;
        return s;
      };
    case TargetClass::MemoryBlockBit:
      // Handle layout from FadesTool::targets: (block << 16) | contentBit,
      // where contentBit walks row-major over one slice's rows * width.
      return [&impl](std::uint32_t handle) {
        const unsigned block = handle >> 16;
        const unsigned contentBit = handle & 0xFFFFu;
        for (const auto& r : impl.rams) {
          for (const auto& sl : r.slices) {
            if (sl.block != block) continue;
            TargetSite s;
            s.kind = TargetSite::Kind::RamBit;
            s.ram = r.ram;
            s.row = contentBit / sl.width;
            s.bit = sl.bitLo + contentBit % sl.width;
            return s;
          }
        }
        return TargetSite{};
      };
    case TargetClass::CombinationalLut:
      return [&impl](std::uint32_t handle) {
        TargetSite s;
        if (impl.luts[handle].out.valid()) {
          s.kind = TargetSite::Kind::Net;
          s.net = impl.luts[handle].out;
        }
        return s;
      };
    default:
      // CB input lines rewire a flop's data path and routed-line targets are
      // delay mechanisms; neither reduces to a state bit or a net value.
      return [](std::uint32_t) { return TargetSite{}; };
  }
}

TargetDecoder vfitDecoder(const Netlist& netlist, TargetClass cls) {
  switch (cls) {
    case TargetClass::SequentialFF:
      return [](std::uint32_t handle) {
        TargetSite s;
        s.kind = TargetSite::Kind::Flop;
        s.flop = FlopId{handle};
        return s;
      };
    case TargetClass::MemoryBlockBit:
      // Handle layout from VfitTool::enumeratePool: (ram << 24) | (row << 8)
      // | bit.
      return [](std::uint32_t handle) {
        TargetSite s;
        s.kind = TargetSite::Kind::RamBit;
        s.ram = RamId{handle >> 24};
        s.row = (handle >> 8) & 0xFFFFu;
        s.bit = handle & 0xFFu;
        return s;
      };
    case TargetClass::CombinationalLut:
    case TargetClass::CbInputLine:
    case TargetClass::CombinationalLine:
    case TargetClass::SequentialLine:
      // All VFIT line-like targets are HDL signals faulted by value.
      return [&netlist](std::uint32_t handle) {
        TargetSite s;
        if (handle < netlist.netCount()) {
          s.kind = TargetSite::Kind::Net;
          s.net = NetId{handle};
        }
        return s;
      };
  }
  return [](std::uint32_t) { return TargetSite{}; };
}

namespace {

// ---------------------------------------------------------------------------
// Golden-trajectory analyzer
// ---------------------------------------------------------------------------

/// Per-cycle fate of "flop f holds the wrong value at cycle c":
///  Silent  - the flip is overwritten before anything reads it;
///  Exposed - the flip first influences something beyond f's own state bit
///            at a fixed golden cycle (all instants sharing that exposure
///            cycle reach it with the identical machine state);
///  Latent  - the flip survives untouched into the final state capture.
enum class Fate : std::uint8_t { Silent, Exposed, Latent };

struct FlopFates {
  bool deadQ = false;  // q reaches nothing observable, statically
  std::vector<Fate> fate;                  // per injection cycle
  std::vector<std::uint32_t> exposeCycle;  // valid where fate == Exposed
};

class Analyzer {
 public:
  Analyzer(const Netlist& nl, const sim::GoldenTrace& trace,
           std::uint64_t runCycles,
           const std::vector<std::string>& observedOutputs)
      : nl_(nl),
        trace_(trace),
        runCycles_(runCycles),
        fanout_(netlist::buildFanout(nl)) {
    const std::size_t nets = nl.netCount();
    observed_.assign(nets, 0);
    ramInput_.assign(nets, 0);
    flopDOffsets_.assign(nets + 1, 0);

    for (const auto& name : observedOutputs) {
      const netlist::Port* port = nl.findOutput(name);
      require(port != nullptr, ErrorKind::InvalidArgument,
              "prune analysis: observed output port not found: " + name);
      for (const NetId n : port->nets) observed_[n.value] = 1;
    }
    for (const auto& ram : nl.rams()) {
      for (const NetId n : ram.addr) ramInput_[n.value] = 1;
      for (const NetId n : ram.dataIn) ramInput_[n.value] = 1;
      if (ram.writeEnable.valid()) ramInput_[ram.writeEnable.value] = 1;
    }

    // CSR of flop data inputs per net (which flops read this net as d).
    for (const auto& f : nl.flops()) ++flopDOffsets_[f.d.value + 1];
    for (std::size_t n = 0; n < nets; ++n) {
      flopDOffsets_[n + 1] += flopDOffsets_[n];
    }
    flopDs_.resize(nl.flops().size());
    {
      std::vector<std::uint32_t> cursor(flopDOffsets_.begin(),
                                        flopDOffsets_.end() - 1);
      for (std::uint32_t i = 0; i < nl.flops().size(); ++i) {
        flopDs_[cursor[nl.flops()[i].d.value]++] = i;
      }
    }

    // Topological position of every gate (sparse propagation pops gates in
    // this order so each gate is evaluated once per injection).
    const auto& gates = nl.gates();
    topoPos_.assign(gates.size(), 0);
    const auto order = nl.topoOrder();
    gateAtPos_.resize(order.size());
    for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
      topoPos_[order[pos].value] = pos;
      gateAtPos_[pos] = order[pos].value;
    }

    // Static liveness: a net is live when its forward cone reaches a flop
    // data input, a memory input or an observed output. One reverse-topo
    // pass over the gates.
    live_.assign(nets, 0);
    for (std::size_t n = 0; n < nets; ++n) {
      if (observed_[n] || ramInput_[n] ||
          flopDOffsets_[n + 1] != flopDOffsets_[n]) {
        live_[n] = 1;
      }
    }
    for (std::size_t i = order.size(); i-- > 0;) {
      const auto& g = gates[order[i].value];
      if (!live_[g.out.value]) continue;
      for (unsigned pin = 0; pin < netlist::arity(g.op); ++pin) {
        live_[g.in[pin].value] = 1;
      }
    }

    faultyStamp_.assign(nets, 0);
    faultyVal_.assign(nets, 0);
    pushedStamp_.assign(gates.size(), 0);
  }

  bool netLive(NetId n) const { return live_[n.value] != 0; }
  bool flopDeadQ(std::uint32_t flopIndex) const {
    return !netLive(nl_.flops()[flopIndex].q);
  }

  const FlopFates& flopFates(std::uint32_t flopIndex) {
    auto it = flopCache_.find(flopIndex);
    if (it != flopCache_.end()) return it->second;
    FlopFates fates;
    fates.deadQ = flopDeadQ(flopIndex);
    fates.fate.resize(runCycles_);
    fates.exposeCycle.assign(runCycles_, 0);
    if (fates.deadQ) {
      // Nothing ever reads q: every injection instant is provably Silent
      // (the next clock edge reloads d, whose cone excludes q).
      std::fill(fates.fate.begin(), fates.fate.end(), Fate::Silent);
    } else {
      for (std::uint64_t c = runCycles_; c-- > 0;) {
        std::uint64_t exposedAt = 0;
        switch (stepClass(flopIndex, c, exposedAt)) {
          case Step::Escape:
            fates.fate[c] = Fate::Exposed;
            fates.exposeCycle[c] = static_cast<std::uint32_t>(c);
            break;
          case Step::Vanish:
            fates.fate[c] = Fate::Silent;
            break;
          case Step::Persist:
            // The machine reaches cycle c+1 as "golden except f flipped":
            // the fate is whatever injecting at c+1 would meet; persisting
            // through the last edge lands the flip in the final capture.
            if (c + 1 == runCycles_) {
              fates.fate[c] = Fate::Latent;
            } else {
              fates.fate[c] = fates.fate[c + 1];
              fates.exposeCycle[c] = fates.exposeCycle[c + 1];
            }
            break;
        }
      }
    }
    return flopCache_.emplace(flopIndex, std::move(fates)).first->second;
  }

  /// First golden cycle >= `cycle` at which the ram presents `row` on its
  /// address bus (every such cycle both exposes a stored flip through the
  /// registered read port and, when writing, erases it); runCycles when the
  /// row is never addressed again.
  std::uint64_t nextAddressEvent(RamId ram, std::uint32_t row,
                                 std::uint64_t cycle) {
    const auto& events = ramEvents(ram);
    const auto& rowEvents = events[row];
    const auto it =
        std::lower_bound(rowEvents.begin(), rowEvents.end(),
                         static_cast<std::uint32_t>(cycle));
    return it == rowEvents.end() ? runCycles_ : *it;
  }

 private:
  enum class Step : std::uint8_t { Escape, Vanish, Persist };

  /// One-cycle consequence of "flop f flipped at cycle c": propagate the
  /// flip through the combinational cone against the golden values of cycle
  /// c. Escape = something beyond f's own next state changed (observed
  /// output, memory input, or another flop's d); Persist = only f's own d
  /// picked it up (state stays "golden except f" after the edge); Vanish =
  /// nothing picked it up (the edge reloads the golden value).
  Step stepClass(std::uint32_t f, std::uint64_t c, std::uint64_t& exposedAt) {
    ++epoch_;
    bool escape = false;
    bool dChanged = false;

    // Min-heap of dirty gates by topological position: every gate pops
    // after all of its (possibly faulty) input drivers.
    std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                        std::greater<std::uint32_t>>& heap = heap_;
    while (!heap.empty()) heap.pop();

    auto markChanged = [&](NetId n, bool faulty) {
      faultyStamp_[n.value] = epoch_;
      faultyVal_[n.value] = faulty ? 1 : 0;
      if (observed_[n.value] || ramInput_[n.value]) escape = true;
      for (std::uint32_t k = flopDOffsets_[n.value];
           k < flopDOffsets_[n.value + 1]; ++k) {
        if (flopDs_[k] == f) {
          dChanged = true;
        } else {
          escape = true;
        }
      }
      for (const std::uint32_t gi : fanout_.readers(n)) {
        if (pushedStamp_[gi] == epoch_) continue;
        pushedStamp_[gi] = epoch_;
        heap.push(topoPos_[gi]);
      }
    };
    auto valueAt = [&](NetId n) {
      return faultyStamp_[n.value] == epoch_ ? faultyVal_[n.value] != 0
                                             : trace_.netAt(c, n);
    };

    const NetId q = nl_.flops()[f].q;
    markChanged(q, !trace_.netAt(c, q));

    while (!escape && !heap.empty()) {
      const auto& g = nl_.gates()[gateAtPos_[heap.top()]];
      heap.pop();
      const unsigned n = netlist::arity(g.op);
      const bool out = netlist::evalGate(
          g.op, n > 0 && valueAt(g.in[0]), n > 1 && valueAt(g.in[1]),
          n > 2 && valueAt(g.in[2]));
      if (out != trace_.netAt(c, g.out)) markChanged(g.out, out);
    }

    if (escape) {
      exposedAt = c;
      return Step::Escape;
    }
    return dChanged ? Step::Persist : Step::Vanish;
  }

  const std::vector<std::vector<std::uint32_t>>& ramEvents(RamId ram) {
    auto it = ramCache_.find(ram.value);
    if (it != ramCache_.end()) return it->second;
    const auto& r = nl_.ram(ram);
    std::vector<std::vector<std::uint32_t>> events(r.depth());
    for (std::uint64_t c = 0; c < runCycles_; ++c) {
      events[trace_.busAt(c, r.addr)].push_back(static_cast<std::uint32_t>(c));
    }
    return ramCache_.emplace(ram.value, std::move(events)).first->second;
  }

  const Netlist& nl_;
  const sim::GoldenTrace& trace_;
  std::uint64_t runCycles_;
  const netlist::Fanout fanout_;

  std::vector<std::uint8_t> observed_;   // per net
  std::vector<std::uint8_t> ramInput_;   // per net
  std::vector<std::uint8_t> live_;       // per net
  std::vector<std::uint32_t> flopDOffsets_;  // per net, CSR into flopDs_
  std::vector<std::uint32_t> flopDs_;
  std::vector<std::uint32_t> topoPos_;    // per gate
  std::vector<std::uint32_t> gateAtPos_;  // inverse of topoPos_

  // Epoch-stamped scratch state (one stepClass call per epoch).
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> faultyStamp_;  // per net
  std::vector<std::uint8_t> faultyVal_;     // per net
  std::vector<std::uint64_t> pushedStamp_;  // per gate
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<std::uint32_t>>
      heap_;

  std::unordered_map<std::uint32_t, FlopFates> flopCache_;
  std::unordered_map<std::uint32_t, std::vector<std::vector<std::uint32_t>>>
      ramCache_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

PrunePlan buildPlan(const CampaignSpec& spec,
                    std::span<const std::uint32_t> pool,
                    const AnalysisInputs& in) {
  require(in.netlist != nullptr && in.trace != nullptr, ErrorKind::InvalidArgument,
          "prune analysis needs a netlist and a golden trace");
  require(static_cast<bool>(in.decode) && static_cast<bool>(in.name),
          ErrorKind::InvalidArgument,
          "prune analysis needs a target decoder and namer");
  require(in.runCycles > 0 && in.trace->cycles() >= in.runCycles,
          ErrorKind::InvalidArgument,
          "golden trace shorter than the workload");
  require(in.trace->netCount() == in.netlist->netCount(),
          ErrorKind::InvalidArgument,
          "golden trace recorded from a different netlist");
  require(!pool.empty(), ErrorKind::InvalidArgument,
          "prune analysis needs a non-empty target pool");

  PrunePlan plan;
  plan.spec = spec;
  plan.runCycles = in.runCycles;
  plan.poolSize = pool.size();

  const bool bitflip = spec.model == FaultModel::BitFlip;
  const bool windowed = spec.model == FaultModel::Pulse ||
                        spec.model == FaultModel::Indetermination;
  if (!bitflip && !windowed) return plan;  // delay faults: nothing provable

  Analyzer analyzer(*in.netlist, *in.trace, in.runCycles,
                    in.observedOutputs);

  // Group key: (handle, kind, param, costSig). `param` carries the exposure
  // cycle for window classes; `costSig` carries the (window, sub-cycle)
  // cost signature of dead-target classes so every member's modeled cost
  // matches the representative's exactly. Ordered map + representative-
  // order output keeps plan construction deterministic.
  enum Kind : std::uint8_t { kDead, kSilent, kExposed, kLatent };
  using Key = std::tuple<std::uint32_t, std::uint8_t, std::uint64_t,
                         std::uint64_t>;
  struct Group {
    std::vector<std::uint64_t> indices;  // ascending (iteration order)
    PruneReason reason = PruneReason::DeadTarget;
    std::uint32_t handle = 0;
    bool anyTarget = false;  // merged across targets (uniform-cost tools)
    std::uint64_t minCycle = 0;
    std::uint64_t maxCycle = 0;
  };
  std::map<Key, Group> groups;

  // With a target-independent cost model (VFIT), fates that pin down the
  // outcome no matter which element is faulted - provably Silent, provably
  // Latent, dead targets - share one class across the whole pool: the
  // synthesized members re-derive their own record fields (target name,
  // instant, duration) from their own draws, so only the shared measured
  // fields need to match. Keyed per target otherwise (FADES traffic is
  // metered per frame address).
  const bool uniform = in.uniformCostAcrossTargets;

  auto record = [&](Key key, PruneReason reason, std::uint32_t handle,
                    bool anyTarget, std::uint64_t index,
                    std::uint64_t injectCycle) {
    Group& g = groups[key];
    if (g.indices.empty()) {
      g.reason = reason;
      g.handle = handle;
      g.anyTarget = anyTarget;
      g.minCycle = g.maxCycle = injectCycle;
    } else {
      g.minCycle = std::min(g.minCycle, injectCycle);
      g.maxCycle = std::max(g.maxCycle, injectCycle);
    }
    g.indices.push_back(index);
  };

  for (unsigned i = 0; i < spec.experiments; ++i) {
    // The injectors' own draw and edge rule, so the plan classifies exactly
    // the faults the campaign will inject. Supported target kinds never
    // redraw, so attempt 0 is the experiment.
    campaign::ExperimentDraw draw =
        campaign::drawExperiment(spec, pool, in.runCycles, i);
    const std::uint32_t handle = draw.target;
    const std::uint64_t injectCycle = draw.injectCycle;
    const std::uint64_t window =
        std::min(campaign::activeCycles(draw.duration, draw.rng),
                 in.runCycles - injectCycle);
    const bool subCycle = draw.duration < 1.0;
    const std::uint64_t costSig =
        (window << 1) | static_cast<std::uint64_t>(subCycle);

    const TargetSite site = in.decode(handle);
    if (bitflip && site.kind == TargetSite::Kind::Flop) {
      // Duration never matters for a bit-flip (transient in cause,
      // persistent in effect), so the fate alone is the class key.
      if (analyzer.flopDeadQ(site.flop.value)) {
        record({uniform ? 0 : handle, kDead, 0, 0}, PruneReason::DeadTarget,
               handle, uniform, i, injectCycle);
        continue;
      }
      const FlopFates& fates = analyzer.flopFates(site.flop.value);
      switch (fates.fate[injectCycle]) {
        case Fate::Silent:
          record({uniform ? 0 : handle, kSilent, 0, 0},
                 PruneReason::OverwriteBeforeRead, handle, uniform, i,
                 injectCycle);
          break;
        case Fate::Exposed:
          // The exposure cycle fixes the machine state the flip meets, but
          // WHAT happens from there depends on the flop - never merged
          // across targets.
          record({handle, kExposed, fates.exposeCycle[injectCycle], 0},
                 PruneReason::QuiescentUntilRead, handle, false, i,
                 injectCycle);
          break;
        case Fate::Latent:
          record({uniform ? 0 : handle, kLatent, 0, 0},
                 PruneReason::OutOfWindow, handle, uniform, i, injectCycle);
          break;
      }
    } else if (bitflip && site.kind == TargetSite::Kind::RamBit) {
      const std::uint64_t event =
          analyzer.nextAddressEvent(site.ram, site.row, injectCycle);
      if (event < in.runCycles) {
        record({handle, kExposed, event, 0},
               PruneReason::QuiescentUntilRead, handle, false, i,
               injectCycle);
      } else {
        record({uniform ? 0 : handle, kLatent, 0, 0},
               PruneReason::OutOfWindow, handle, uniform, i, injectCycle);
      }
    } else if (windowed && site.kind == TargetSite::Kind::Net) {
      // Forcing a dead net can never reach a state element or an output,
      // and forces leave no state behind - Silent at any instant. Cost
      // depends on the active window, hence the cost signature in the key.
      if (!analyzer.netLive(site.net)) {
        record({uniform ? 0 : handle, kDead, 0, costSig},
               PruneReason::DeadTarget, handle, uniform, i, injectCycle);
      }
    } else if (spec.model == FaultModel::Indetermination &&
               site.kind == TargetSite::Kind::Flop) {
      // A dead-q flop held at a random level recovers its golden value on
      // the first clock edge after the fault ends (d's cone excludes q) -
      // provided at least one edge remains before the final capture.
      if (analyzer.flopDeadQ(site.flop.value) &&
          injectCycle + window < in.runCycles) {
        record({uniform ? 0 : handle, kDead, 0, costSig},
               PruneReason::DeadTarget, handle, uniform, i, injectCycle);
      }
    }
    // Every other combination runs normally.
  }

  for (auto& [key, group] : groups) {
    if (group.indices.size() < 2) continue;  // nothing to collapse
    PruneClass c;
    c.representative = group.indices.front();
    c.members.assign(group.indices.begin() + 1, group.indices.end());
    c.reason = group.reason;
    c.target = group.anyTarget ? "*" : in.name(group.handle);
    c.windowBegin = static_cast<std::int64_t>(group.minCycle);
    c.windowEnd = static_cast<std::int64_t>(group.maxCycle);
    plan.classes.push_back(std::move(c));
  }
  std::sort(plan.classes.begin(), plan.classes.end(),
            [](const PruneClass& a, const PruneClass& b) {
              return a.representative < b.representative;
            });
  plan.validate();
  return plan;
}

}  // namespace fades::prune
