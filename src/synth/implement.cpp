#include "synth/implement.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/error.hpp"
#include "synth/fabric.hpp"
#include "synth/place.hpp"
#include "synth/route.hpp"

namespace fades::synth {

using common::ErrorKind;
using common::raise;
using common::require;
using fpga::CbCoord;
using fpga::CbField;
using fpga::CbInPin;
using fpga::CbOutPin;
using fpga::DeviceSpec;
using netlist::Netlist;

std::pair<unsigned, unsigned> RamSite::bitAddress(std::size_t row,
                                                  unsigned bit) const {
  for (const auto& s : slices) {
    if (bit >= s.bitLo && bit < s.bitLo + s.width) {
      return {s.block,
              static_cast<unsigned>(row * s.width + (bit - s.bitLo))};
    }
  }
  raise(ErrorKind::InvalidArgument, "ram bit out of range");
}

const FlopSite* Implementation::findFlop(const std::string& name) const {
  for (const auto& f : flops) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::vector<std::uint32_t> Implementation::flopsInUnit(Unit unit) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < flops.size(); ++i) {
    if (flops[i].unit == unit || unit == Unit::None) out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> Implementation::lutsInUnit(Unit unit) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < luts.size(); ++i) {
    if (luts[i].unit == unit || unit == Unit::None) out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> Implementation::routesInUnit(
    Unit unit, bool sequential) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < routes.size(); ++i) {
    if (routes[i].sequentialSource != sequential) continue;
    if (routes[i].unit == unit || unit == Unit::None) out.push_back(i);
  }
  return out;
}

const RamSite* Implementation::findRam(const std::string& name) const {
  for (const auto& r : rams) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

const PadBinding* Implementation::findPad(const std::string& port,
                                          unsigned bit) const {
  for (const auto& p : pads) {
    if (p.port == port && p.bitIndex == bit) return &p;
  }
  return nullptr;
}

std::optional<std::uint32_t> Implementation::routeOfNet(NetId source) const {
  for (std::uint32_t i = 0; i < routes.size(); ++i) {
    if (routes[i].sourceNet == source) return i;
  }
  return std::nullopt;
}

namespace {

/// Abstract endpoint references, concretized after placement.
struct SourceRef {
  enum class Kind : std::uint8_t { LutOut, FfOut, Pad, BramDout } kind;
  std::uint32_t index = 0;  // lut idx / flop site idx / pad / block
  unsigned sub = 0;         // BramDout: pin number
};
struct SinkRef {
  enum class Kind : std::uint8_t { LutLeaf, FfByp, OutPad, BramPin } kind;
  std::uint32_t index = 0;  // lut idx / flop site idx / pad / block
  unsigned sub = 0;         // leaf position or bram pin
};

struct PhysNet {
  NetId source{};  // invalid for synthetic const-1 nets
  SourceRef src{};
  std::vector<SinkRef> sinks;
  Unit unit = Unit::None;
  bool sequential = false;
  std::string name;
};

}  // namespace

Implementation implement(const Netlist& nl, const DeviceSpec& spec,
                         const SynthOptions& options) {
  nl.validate();
  MappedDesign mapped = techmap(nl);
  common::Rng rng(options.seed);

  Implementation impl;
  impl.spec = spec;

  // ------------------------------------------------------------- LUT sites
  // mapped.luts become LutSites 1:1 (plus an optional shared const-1 LUT).
  for (const auto& m : mapped.luts) {
    LutSite site;
    site.unit = m.unit;
    site.out = m.out;
    site.signalName = nl.netName(m.out);
    site.table = m.table;
    site.leafCount = m.leafCount;
    impl.luts.push_back(site);
  }
  std::int32_t constOneLut = -1;  // created on demand
  auto getConstOneLut = [&]() {
    if (constOneLut < 0) {
      LutSite site;
      site.unit = Unit::None;
      site.signalName = "<const1>";
      site.table = 0xFFFF;
      site.leafCount = 0;
      constOneLut = static_cast<std::int32_t>(impl.luts.size());
      impl.luts.push_back(site);
    }
    return static_cast<std::uint32_t>(constOneLut);
  };

  // ------------------------------------------------------------ flop sites
  for (std::uint32_t fi = 0; fi < nl.flopCount(); ++fi) {
    const auto& f = nl.flops()[fi];
    FlopSite site;
    site.unit = f.unit;
    site.name = f.name;
    site.flop = FlopId{fi};
    site.init = f.init;
    impl.flops.push_back(site);
  }

  // ------------------------------------------------------------- ram sites
  {
    // Allocate memory blocks nearest the horizontal centre first: placed
    // logic is centred, so this keeps memory routes short and spreads pin
    // congestion instead of funnelling everything to one device corner.
    std::vector<unsigned> blockOrder(spec.memBlocks);
    for (unsigned i = 0; i < spec.memBlocks; ++i) blockOrder[i] = i;
    const double mid = (spec.memBlocks - 1) / 2.0;
    std::sort(blockOrder.begin(), blockOrder.end(),
              [&](unsigned a, unsigned b) {
                return std::abs(a - mid) < std::abs(b - mid);
              });
    unsigned nextBlock = 0;
    for (std::uint32_t ri = 0; ri < nl.ramCount(); ++ri) {
      const auto& r = nl.rams()[ri];
      RamSite site;
      site.name = r.name;
      site.unit = r.unit;
      site.ram = RamId{ri};
      site.addrBits = r.addrBits;
      site.dataBits = r.dataBits;
      site.isRom = r.isRom();
      unsigned remaining = r.dataBits;
      unsigned bitLo = 0;
      while (remaining > 0) {
        unsigned w = spec.memMaxWidth;
        while (w > remaining) w >>= 1;
        require((std::size_t{1} << r.addrBits) * w <= spec.memBlockBits,
                ErrorKind::CapacityError,
                "memory '" + r.name + "' too deep for a memory block");
        require(nextBlock < spec.memBlocks, ErrorKind::CapacityError,
                "out of memory blocks for '" + r.name + "'");
        site.slices.push_back(RamSite::Slice{blockOrder[nextBlock++], bitLo, w});
        bitLo += w;
        remaining -= w;
      }
      impl.rams.push_back(std::move(site));
    }
  }

  // ------------------------------------------------------------- pad sites
  {
    // Inputs fill pads from the west edge upward, outputs from the east
    // edge downward; the two regions may spill into each other's side as
    // long as the total fits.
    unsigned nextIn = 0;
    unsigned nextOut = spec.padCount() - 1;
    for (const auto& p : nl.inputs()) {
      for (unsigned b = 0; b < p.nets.size(); ++b) {
        require(nextIn <= nextOut, ErrorKind::CapacityError, "out of pads");
        impl.pads.push_back(PadBinding{p.name, b, nextIn++, true});
      }
    }
    for (const auto& p : nl.outputs()) {
      for (unsigned b = 0; b < p.nets.size(); ++b) {
        require(nextOut >= nextIn && nextOut != 0u - 1u,
                ErrorKind::CapacityError, "out of pads");
        impl.pads.push_back(PadBinding{p.name, b, nextOut--, false});
      }
    }
  }
  auto padOfInputNet = [&](NetId canonical) -> std::uint32_t {
    // canonical is driven by an input port; find its binding.
    const auto d = nl.driverOf(canonical);
    const auto& port = nl.inputs()[d.index];
    for (unsigned b = 0; b < port.nets.size(); ++b) {
      if (port.nets[b] == canonical) {
        return impl.findPad(port.name, b)->pad;
      }
    }
    raise(ErrorKind::SynthesisError, "input net without pad binding");
  };

  // ----------------------------------------------------------- pack cells
  // Cell = one CB: a LUT, an FF, or an FF packed with the LUT computing its
  // D input (internal FFIN path, no routing needed).
  struct Cell {
    std::int32_t lut = -1;
    std::int32_t flop = -1;
  };
  std::vector<Cell> cells;
  std::vector<std::int32_t> cellOfLut(impl.luts.size(), -1);
  std::vector<std::int32_t> cellOfFlop(impl.flops.size(), -1);
  std::vector<std::uint8_t> flopInternal(impl.flops.size(), 0);
  std::vector<std::int32_t> lutClaimedBy(impl.luts.size(), -1);

  for (std::uint32_t fi = 0; fi < nl.flopCount(); ++fi) {
    const NetId s = mapped.resolve(nl.flops()[fi].d);
    const std::uint32_t li = mapped.lutOfNet[s.value];
    if (li != 0 && lutClaimedBy[li - 1] < 0) {
      lutClaimedBy[li - 1] = static_cast<std::int32_t>(fi);
      flopInternal[fi] = 1;
      Cell c;
      c.lut = static_cast<std::int32_t>(li - 1);
      c.flop = static_cast<std::int32_t>(fi);
      cellOfLut[li - 1] = static_cast<std::int32_t>(cells.size());
      cellOfFlop[fi] = static_cast<std::int32_t>(cells.size());
      cells.push_back(c);
    }
  }
  for (std::uint32_t li = 0; li < impl.luts.size(); ++li) {
    if (cellOfLut[li] < 0) {
      cellOfLut[li] = static_cast<std::int32_t>(cells.size());
      cells.push_back(Cell{static_cast<std::int32_t>(li), -1});
    }
  }
  for (std::uint32_t fi = 0; fi < impl.flops.size(); ++fi) {
    if (cellOfFlop[fi] < 0) {
      cellOfFlop[fi] = static_cast<std::int32_t>(cells.size());
      cells.push_back(Cell{-1, static_cast<std::int32_t>(fi)});
    }
  }

  // -------------------------------------------------------- physical nets
  std::unordered_map<std::uint32_t, std::uint32_t> netOfSource;  // net -> idx
  std::vector<PhysNet> phys;
  std::int32_t constOneNet = -1;

  auto sourceRefOf = [&](NetId canonical) -> SourceRef {
    const std::uint32_t li = mapped.lutOfNet[canonical.value];
    if (li != 0) return SourceRef{SourceRef::Kind::LutOut, li - 1, 0};
    const auto d = nl.driverOf(canonical);
    switch (d.kind) {
      case Netlist::DriverKind::Flop:
        return SourceRef{SourceRef::Kind::FfOut, d.index, 0};
      case Netlist::DriverKind::Input:
        return SourceRef{SourceRef::Kind::Pad, padOfInputNet(canonical), 0};
      case Netlist::DriverKind::Ram: {
        const auto& ram = nl.ram(RamId{d.index});
        for (unsigned b = 0; b < ram.dataBits; ++b) {
          if (ram.dataOut[b] == canonical) {
            const auto& site = impl.rams[d.index];
            for (const auto& sl : site.slices) {
              if (b >= sl.bitLo && b < sl.bitLo + sl.width) {
                return SourceRef{SourceRef::Kind::BramDout, sl.block,
                                 DeviceSpec::kBramAddrPins +
                                     DeviceSpec::kBramDataPins +
                                     (b - sl.bitLo)};
              }
            }
          }
        }
        raise(ErrorKind::SynthesisError, "ram output without slice");
      }
      default:
        raise(ErrorKind::SynthesisError,
              "net '" + nl.netName(canonical) + "' has no physical source");
    }
  };

  auto addSink = [&](NetId rawNet, SinkRef sink) -> bool {
    // Returns false if the sink stays unconnected (constant 0).
    const NetId canonical = mapped.resolve(rawNet);
    const std::int8_t cv = mapped.constVal[canonical.value];
    if (cv == 0) return false;  // floating fabric reads 0
    if (cv == 1) {
      // Route from the shared constant-1 LUT.
      const std::uint32_t li = getConstOneLut();
      if (constOneNet < 0) {
        constOneNet = static_cast<std::int32_t>(phys.size());
        PhysNet n;
        n.src = SourceRef{SourceRef::Kind::LutOut, li, 0};
        n.name = "<const1>";
        phys.push_back(n);
      }
      phys[static_cast<std::size_t>(constOneNet)].sinks.push_back(sink);
      return true;
    }
    auto [it, inserted] =
        netOfSource.try_emplace(canonical.value,
                                static_cast<std::uint32_t>(phys.size()));
    if (inserted) {
      PhysNet n;
      n.source = canonical;
      n.src = sourceRefOf(canonical);
      n.name = nl.netName(canonical);
      const auto d = nl.driverOf(canonical);
      n.sequential = (d.kind == Netlist::DriverKind::Flop);
      if (d.kind == Netlist::DriverKind::Gate) {
        n.unit = nl.gates()[d.index].unit;
      } else if (d.kind == Netlist::DriverKind::Flop) {
        n.unit = nl.flops()[d.index].unit;
      } else if (d.kind == Netlist::DriverKind::Ram) {
        n.unit = nl.rams()[d.index].unit;
      }
      phys.push_back(std::move(n));
    }
    phys[it->second].sinks.push_back(sink);
    return true;
  };

  // LUT leaves.
  for (std::uint32_t li = 0; li < mapped.luts.size(); ++li) {
    const auto& m = mapped.luts[li];
    for (unsigned k = 0; k < m.leafCount; ++k) {
      addSink(m.leaves[k], SinkRef{SinkRef::Kind::LutLeaf, li, k});
    }
  }
  // FF bypass inputs.
  for (std::uint32_t fi = 0; fi < nl.flopCount(); ++fi) {
    if (flopInternal[fi]) continue;
    addSink(nl.flops()[fi].d, SinkRef{SinkRef::Kind::FfByp, fi, 0});
  }
  // Output pads.
  for (const auto& p : nl.outputs()) {
    for (unsigned b = 0; b < p.nets.size(); ++b) {
      const auto* binding = impl.findPad(p.name, b);
      addSink(p.nets[b], SinkRef{SinkRef::Kind::OutPad, binding->pad, 0});
    }
  }
  // Memory-block pins.
  for (std::uint32_t ri = 0; ri < nl.ramCount(); ++ri) {
    const auto& r = nl.rams()[ri];
    for (const auto& sl : impl.rams[ri].slices) {
      for (unsigned a = 0; a < r.addrBits; ++a) {
        addSink(r.addr[a], SinkRef{SinkRef::Kind::BramPin, sl.block, a});
      }
      for (unsigned b = 0; b < sl.width; ++b) {
        if (!r.isRom()) {
          addSink(r.dataIn[sl.bitLo + b],
                  SinkRef{SinkRef::Kind::BramPin, sl.block,
                          DeviceSpec::kBramAddrPins + b});
        }
      }
      if (r.writeEnable.valid()) {
        addSink(r.writeEnable, SinkRef{SinkRef::Kind::BramPin, sl.block,
                                       DeviceSpec::kBramPins - 1});
      }
    }
  }

  // The shared constant-1 LUT may have been created during sink collection;
  // give it a cell like any other LUT.
  while (cellOfLut.size() < impl.luts.size()) {
    const auto li = static_cast<std::int32_t>(cellOfLut.size());
    cellOfLut.push_back(static_cast<std::int32_t>(cells.size()));
    cells.push_back(Cell{li, -1});
  }

  // ------------------------------------------------------------ placement
  const fpga::RoutingNodes nodes(spec);
  const fpga::ConfigLayout layout(spec);

  auto nodePos = [&](std::uint32_t n) {
    double x, y;
    nodes.position(n, x, y);
    return std::pair<double, double>{x, y};
  };

  std::vector<PlacerNet> placerNets;
  placerNets.reserve(phys.size());
  for (const auto& n : phys) {
    PlacerNet pn;
    auto addCellOrFixed = [&](std::int32_t cell, std::uint32_t fixedNode) {
      if (cell >= 0) {
        pn.cells.push_back(static_cast<std::uint32_t>(cell));
      } else {
        pn.fixed.push_back(nodePos(fixedNode));
      }
    };
    switch (n.src.kind) {
      case SourceRef::Kind::LutOut:
        addCellOrFixed(cellOfLut[n.src.index], 0);
        break;
      case SourceRef::Kind::FfOut:
        addCellOrFixed(cellOfFlop[n.src.index], 0);
        break;
      case SourceRef::Kind::Pad:
        addCellOrFixed(-1, nodes.pad(n.src.index));
        break;
      case SourceRef::Kind::BramDout:
        addCellOrFixed(-1, nodes.bramPin(n.src.index, n.src.sub));
        break;
    }
    for (const auto& s : n.sinks) {
      switch (s.kind) {
        case SinkRef::Kind::LutLeaf:
          addCellOrFixed(cellOfLut[s.index], 0);
          break;
        case SinkRef::Kind::FfByp:
          addCellOrFixed(cellOfFlop[s.index], 0);
          break;
        case SinkRef::Kind::OutPad:
          addCellOrFixed(-1, nodes.pad(s.index));
          break;
        case SinkRef::Kind::BramPin:
          addCellOrFixed(-1, nodes.bramPin(s.index, s.sub));
          break;
      }
    }
    placerNets.push_back(std::move(pn));
  }

  const PlacerResult placed =
      place(spec, static_cast<std::uint32_t>(cells.size()), placerNets, rng);

  for (std::uint32_t ci = 0; ci < cells.size(); ++ci) {
    if (cells[ci].lut >= 0) impl.luts[cells[ci].lut].cb = placed.cellSite[ci];
    if (cells[ci].flop >= 0) {
      impl.flops[cells[ci].flop].cb = placed.cellSite[ci];
    }
  }

  // -------------------------------------------------------------- routing
  auto concreteSource = [&](const SourceRef& s) -> std::uint32_t {
    switch (s.kind) {
      case SourceRef::Kind::LutOut:
        return nodes.cbOut(impl.luts[s.index].cb, CbOutPin::Lut);
      case SourceRef::Kind::FfOut:
        return nodes.cbOut(impl.flops[s.index].cb, CbOutPin::Ff);
      case SourceRef::Kind::Pad:
        return nodes.pad(s.index);
      case SourceRef::Kind::BramDout:
        return nodes.bramPin(s.index, s.sub);
    }
    raise(ErrorKind::SynthesisError, "bad source ref");
  };
  auto concreteSink = [&](const SinkRef& s) -> std::uint32_t {
    switch (s.kind) {
      case SinkRef::Kind::LutLeaf:
        return nodes.cbIn(impl.luts[s.index].cb,
                          static_cast<CbInPin>(s.sub));
      case SinkRef::Kind::FfByp:
        return nodes.cbIn(impl.flops[s.index].cb, CbInPin::Byp);
      case SinkRef::Kind::OutPad:
        return nodes.pad(s.index);
      case SinkRef::Kind::BramPin:
        return nodes.bramPin(s.index, s.sub);
    }
    raise(ErrorKind::SynthesisError, "bad sink ref");
  };

  std::vector<RouteRequest> requests;
  requests.reserve(phys.size());
  for (const auto& n : phys) {
    RouteRequest r;
    r.source = concreteSource(n.src);
    for (const auto& s : n.sinks) r.sinks.push_back(concreteSink(s));
    requests.push_back(std::move(r));
  }
  RouteStats rstats;
  const auto routed = routeAll(layout, nodes, requests, &rstats);

  // --------------------------------------------------------------- bitgen
  fpga::Bitstream bs{common::BitVector(layout.logicPlaneBits()),
                     common::BitVector(layout.bramPlaneBits())};

  for (std::uint32_t ci = 0; ci < cells.size(); ++ci) {
    const CbCoord cb = placed.cellSite[ci];
    if (cells[ci].lut >= 0) {
      const auto& site = impl.luts[cells[ci].lut];
      for (unsigned i = 0; i < 16; ++i) {
        bs.logic.set(layout.cbLutBit(cb, i), (site.table >> i) & 1u);
      }
      bs.logic.set(layout.cbFieldBit(cb, CbField::LutUsed), true);
    }
    if (cells[ci].flop >= 0) {
      const auto fi = static_cast<std::uint32_t>(cells[ci].flop);
      bs.logic.set(layout.cbFieldBit(cb, CbField::FfUsed), true);
      bs.logic.set(layout.cbFieldBit(cb, CbField::SrMode),
                   impl.flops[fi].init);
      bs.logic.set(layout.cbFieldBit(cb, CbField::FfInSrc),
                   !flopInternal[fi]);
      impl.flops[fi].bypassInput = !flopInternal[fi];
    }
  }
  for (const auto& p : impl.pads) {
    bs.logic.set(layout.padFieldBit(p.pad, fpga::PadField::Used), true);
    if (!p.isInput) {
      bs.logic.set(layout.padFieldBit(p.pad, fpga::PadField::IsOutput), true);
    }
  }
  for (std::uint32_t ri = 0; ri < impl.rams.size(); ++ri) {
    const auto& site = impl.rams[ri];
    const auto& r = nl.ram(site.ram);
    for (const auto& sl : site.slices) {
      bs.logic.set(layout.bramFieldBit(sl.block, fpga::BramField::Used), true);
      unsigned widthSel = 0;
      while ((1u << widthSel) < sl.width) ++widthSel;
      for (unsigned b = 0; b < 3; ++b) {
        bs.logic.set(
            layout.bramFieldBit(sl.block, fpga::BramField::WidthSelLo) + b,
            (widthSel >> b) & 1u);
      }
      for (std::size_t row = 0; row < r.depth(); ++row) {
        const std::uint64_t word = r.initWord(row);
        for (unsigned b = 0; b < sl.width; ++b) {
          bs.bram.set(layout.bramContentBit(sl.block, row * sl.width + b),
                      (word >> (sl.bitLo + b)) & 1u);
        }
      }
    }
  }

  // -------------------------------------------------- assemble the result
  impl.routes.reserve(phys.size());
  for (std::size_t i = 0; i < phys.size(); ++i) {
    NetRouteInfo info;
    info.signalName = phys[i].name;
    info.sourceNet = phys[i].source;
    info.unit = phys[i].unit;
    info.sequentialSource = phys[i].sequential;
    info.sourceNode = requests[i].source;
    info.sinkNodes = requests[i].sinks;
    for (auto n : routed[i].nodes) {
      if (nodes.isSegment(n)) info.wireNodes.push_back(n);
    }
    // Routing bits: each routed edge's pass transistor, derived once.
    for (const auto& [a, b] : routed[i].edges) {
      const auto bit = transistorBit(layout, nodes, a, b);
      require(bit.has_value(), ErrorKind::SynthesisError,
              "routed edge without a pass transistor");
      bs.logic.set(*bit, true);
      info.transistorBits.push_back(*bit);
    }
    info.edgeNodes = routed[i].edges;
    impl.routes.push_back(std::move(info));
  }
  impl.bitstream = std::move(bs);

  impl.stats.luts = static_cast<unsigned>(impl.luts.size());
  impl.stats.flops = static_cast<unsigned>(impl.flops.size());
  for (const auto& r : impl.rams) {
    impl.stats.memBlocks += static_cast<unsigned>(r.slices.size());
  }
  impl.stats.pads = static_cast<unsigned>(impl.pads.size());
  impl.stats.routedNets = static_cast<unsigned>(impl.routes.size());
  impl.stats.wireSegments = rstats.totalWireNodes;
  impl.stats.configBits = impl.bitstream.logic.popcount();
  impl.stats.routeIterations = rstats.iterations;
  return impl;
}

// ---------------------------------------------------------------------------

EmulatedSystem::EmulatedSystem(fpga::Device& device, const Implementation& impl)
    : dev_(device), impl_(impl) {}

void EmulatedSystem::setInput(const std::string& port, std::uint64_t value) {
  bool any = false;
  for (const auto& p : impl_.pads) {
    if (p.port == port && p.isInput) {
      dev_.setPadInput(p.pad, (value >> p.bitIndex) & 1u);
      any = true;
    }
  }
  require(any, ErrorKind::InvalidArgument, "no input port '" + port + "'");
}

std::uint64_t EmulatedSystem::portValue(const std::string& port) const {
  std::uint64_t v = 0;
  bool any = false;
  for (const auto& p : impl_.pads) {
    if (p.port == port && !p.isInput) {
      if (dev_.padValue(p.pad)) v |= 1ULL << p.bitIndex;
      any = true;
    }
  }
  require(any, ErrorKind::InvalidArgument, "no output port '" + port + "'");
  return v;
}

}  // namespace fades::synth
