#include "fpga/device.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace fades::fpga {

using common::ErrorKind;
using common::raise;
using common::require;

namespace {

unsigned storageWordBits(const common::BitVector& plane, std::uint32_t w) {
  return static_cast<unsigned>(
      std::min<std::size_t>(64, plane.size() - std::size_t{w} * 64));
}

}  // namespace

std::uint64_t storageWord(const common::BitVector& plane, std::uint32_t w) {
  return plane.getWord(std::size_t{w} * 64, storageWordBits(plane, w));
}

void setStorageWord(common::BitVector& plane, std::uint32_t w,
                    std::uint64_t value) {
  plane.setWord(std::size_t{w} * 64, storageWordBits(plane, w), value);
}

Device::Device(const DeviceSpec& spec)
    : spec_(spec),
      layout_(spec),
      nodes_(spec),
      logicCfg_(layout_.logicPlaneBits()),
      bramCfg_(layout_.bramPlaneBits()) {
  ffState_.assign(spec_.cbCount(), 0);
  bramLatch_.assign(spec_.memBlocks, 0);
  padInput_.assign(spec_.padCount(), 0);
  parent_.assign(nodes_.count(), 0);
  compSource_.assign(nodes_.count(), 0);
  bramWordChanged_.assign((bramCfg_.size() + 63) / 64, 0);
}

// ---------------------------------------------------------------------------
// Configuration access
// ---------------------------------------------------------------------------

void Device::setLogicBit(std::size_t addr, bool v) {
  if (logicCfg_.get(addr) == v) return;
  logicCfg_.set(addr, v);
  if (downloaded_ && toggledBits_.erase(addr) == 0) toggledBits_.insert(addr);
  settled_ = false;
  const auto d = layout_.decode(addr);
  if (d.region == ConfigLayout::Decoded::Region::Cb && d.bitInRecord < 16) {
    lutDirty_ = true;
  } else if (d.region == ConfigLayout::Decoded::Region::Cb &&
             d.bitInRecord < 24) {
    // Used-flags change the compiled structure; mux fields do not.
    const auto f = static_cast<CbField>(d.bitInRecord);
    if (f == CbField::FfUsed || f == CbField::LutUsed) {
      topoDirty_ = true;
    } else {
      miscDirty_ = true;
      if (f == CbField::FfInSrc) timingDirty_ = true;
    }
  } else {
    topoDirty_ = true;  // connection boxes, PMs, pads, memory-block setup
  }
}

void Device::setBramBit(std::size_t addr, bool v) {
  bramCfg_.set(addr, v);
  noteBramWrite(addr);
}

void Device::noteBramWrite(std::size_t addr) {
  const auto w = static_cast<std::uint32_t>(addr >> 6);
  if (bramWordChanged_[w] != 0) return;
  bramWordChanged_[w] = 1;
  changedBramWords_.push_back(w);
}

void Device::clearChangedBramWords() {
  for (const std::uint32_t w : changedBramWords_) bramWordChanged_[w] = 0;
  changedBramWords_.clear();
}

std::vector<std::uint8_t> Device::readLogicFrame(FrameAddr f) const {
  std::vector<std::uint8_t> bytes(spec_.frameBytes, 0);
  logicCfg_.exportBytesInto(layout_.logicFrameFirstBit(f),
                            layout_.logicFrameBitCount(f), bytes);
  return bytes;
}

void Device::writeLogicFrame(FrameAddr f, std::span<const std::uint8_t> bytes) {
  require(bytes.size() >= (layout_.logicFrameBitCount(f) + 7u) / 8u,
          ErrorKind::ConfigError, "short logic frame payload");
  const std::size_t first = layout_.logicFrameFirstBit(f);
  const unsigned n = layout_.logicFrameBitCount(f);
  for (unsigned k = 0; k < n; ++k) {
    const bool v = (bytes[k >> 3] >> (k & 7)) & 1u;
    setLogicBit(first + k, v);  // per-bit so dirtiness is classified
  }
}

std::vector<std::uint8_t> Device::readBramFrame(unsigned block,
                                                unsigned minor) const {
  require(block < spec_.memBlocks && minor < layout_.bramFramesPerBlock(),
          ErrorKind::ConfigError, "bad bram frame address");
  const std::size_t first = std::size_t{block} * spec_.memBlockBits +
                            std::size_t{minor} * layout_.frameBits();
  const std::size_t n =
      std::min<std::size_t>(layout_.frameBits(),
                            std::size_t{spec_.memBlockBits} -
                                std::size_t{minor} * layout_.frameBits());
  std::vector<std::uint8_t> bytes(spec_.frameBytes, 0);
  bramCfg_.exportBytesInto(first, n, bytes);
  return bytes;
}

void Device::writeBramFrame(unsigned block, unsigned minor,
                            std::span<const std::uint8_t> bytes) {
  require(block < spec_.memBlocks && minor < layout_.bramFramesPerBlock(),
          ErrorKind::ConfigError, "bad bram frame address");
  const std::size_t first = std::size_t{block} * spec_.memBlockBits +
                            std::size_t{minor} * layout_.frameBits();
  const std::size_t n =
      std::min<std::size_t>(layout_.frameBits(),
                            std::size_t{spec_.memBlockBits} -
                                std::size_t{minor} * layout_.frameBits());
  require(bytes.size() >= (n + 7) / 8, ErrorKind::ConfigError,
          "short bram frame payload");
  bramCfg_.importBytes(first, n, bytes);
  for (std::size_t bit = first; bit < first + n; bit += 64) noteBramWrite(bit);
  noteBramWrite(first + n - 1);
}

std::vector<std::uint8_t> Device::readCaptureFrame(unsigned col) const {
  require(col < spec_.cols, ErrorKind::ConfigError,
          "bad capture frame column");
  std::vector<std::uint8_t> bytes(spec_.frameBytes, 0);
  for (unsigned y = 0; y < spec_.rows; ++y) {
    if (ffState_[cbIndex(CbCoord{static_cast<std::uint16_t>(col),
                                 static_cast<std::uint16_t>(y)})]) {
      bytes[y >> 3] |= static_cast<std::uint8_t>(1u << (y & 7));
    }
  }
  return bytes;
}

void Device::writeFullBitstream(const Bitstream& bs) {
  require(bs.logic.size() == logicCfg_.size() &&
              bs.bram.size() == bramCfg_.size(),
          ErrorKind::ConfigError, "bitstream size mismatch");
  logicCfg_ = bs.logic;
  bramCfg_ = bs.bram;
  downloaded_ = true;
  toggledBits_.clear();
  clearChangedBramWords();
  topoDirty_ = true;
  settled_ = false;
  ensureCompiled();
  // Configuration asserts GSR: every FF starts at its SrMode value, memory
  // output latches clear, and no edge has sampled a D value yet.
  for (const auto& ff : compiled_.ffs) ffState_[ff.cbIdx] = ff.srMode ? 1 : 0;
  std::fill(prevD_.begin(), prevD_.end(), 0);
  std::fill(bramLatch_.begin(), bramLatch_.end(), 0);
  cycle_ = 0;
  settle();
}

Bitstream Device::readbackBitstream() const {
  return Bitstream{logicCfg_, bramCfg_};
}

void Device::pulseGsr() {
  // GSR touches flip-flops only: each assumes its PRMux/CLRMux-selected
  // value. Memory contents, output latches and the (host-side) cycle
  // counter are unaffected, which is exactly what the GSR-based bit-flip
  // mechanism relies on when pulsing the line in the middle of a run.
  ensureCompiled();
  for (const auto& ff : compiled_.ffs) ffState_[ff.cbIdx] = ff.srMode ? 1 : 0;
  settled_ = false;
  settle();
}

BitMeaning Device::decodeLogicBit(std::size_t addr) const {
  const auto d = layout_.decode(addr);
  BitMeaning m{};
  using Region = ConfigLayout::Decoded::Region;
  const unsigned tracks = spec_.tracks;
  switch (d.region) {
    case Region::Cb: {
      if (d.bitInRecord < 16) {
        m.kind = BitMeaning::Kind::LutTable;
        return m;
      }
      if (d.bitInRecord < 24) {
        m.kind = BitMeaning::Kind::CbField;
        return m;
      }
      unsigned rel = d.bitInRecord - 24;
      const unsigned inRegion = 2 * kCbInPins * tracks;
      if (rel < inRegion) {
        m.kind = BitMeaning::Kind::CbInConn;
        const bool vertical = rel >= kCbInPins * tracks;
        if (vertical) rel -= kCbInPins * tracks;
        const auto pin = static_cast<CbInPin>(rel / tracks);
        const unsigned t = rel % tracks;
        m.nodeA = nodes_.cbIn(d.cb, pin);
        m.nodeB = vertical ? nodes_.vseg(d.cb.x, d.cb.y, t)
                           : nodes_.hseg(d.cb.x, d.cb.y, t);
        m.isTransistor = true;
        return m;
      }
      rel -= inRegion;
      m.kind = BitMeaning::Kind::CbOutConn;
      const bool vertical = rel >= kCbOutPins * tracks;
      if (vertical) rel -= kCbOutPins * tracks;
      const auto pin = static_cast<CbOutPin>(rel / tracks);
      const unsigned t = rel % tracks;
      m.nodeA = nodes_.cbOut(d.cb, pin);
      m.nodeB = vertical ? nodes_.vseg(d.cb.x, d.cb.y, t)
                         : nodes_.hseg(d.cb.x, d.cb.y, t);
      m.isTransistor = true;
      return m;
    }
    case Region::Pm: {
      m.kind = BitMeaning::Kind::PmSwitch;
      const unsigned t = d.bitInRecord / kPmSwitches;
      const auto sw = static_cast<PmSwitch>(d.bitInRecord % kPmSwitches);
      const unsigned x = d.pm.x, y = d.pm.y;
      const bool hasW = x >= 1, hasE = x < spec_.cols;
      const bool hasS = y >= 1, hasN = y < spec_.rows;
      auto W = [&] { return nodes_.hseg(x - 1, y, t); };
      auto E = [&] { return nodes_.hseg(x, y, t); };
      auto S = [&] { return nodes_.vseg(x, y - 1, t); };
      auto N = [&] { return nodes_.vseg(x, y, t); };
      switch (sw) {
        case PmSwitch::WE:
          if (hasW && hasE) { m.nodeA = W(); m.nodeB = E(); m.isTransistor = true; }
          break;
        case PmSwitch::NS:
          if (hasN && hasS) { m.nodeA = N(); m.nodeB = S(); m.isTransistor = true; }
          break;
        case PmSwitch::WN:
          if (hasW && hasN) { m.nodeA = W(); m.nodeB = N(); m.isTransistor = true; }
          break;
        case PmSwitch::WS:
          if (hasW && hasS) { m.nodeA = W(); m.nodeB = S(); m.isTransistor = true; }
          break;
        case PmSwitch::EN:
          if (hasE && hasN) { m.nodeA = E(); m.nodeB = N(); m.isTransistor = true; }
          break;
        case PmSwitch::ES:
          if (hasE && hasS) { m.nodeA = E(); m.nodeB = S(); m.isTransistor = true; }
          break;
      }
      return m;
    }
    case Region::Pad: {
      if (d.bitInRecord < 8) {
        m.kind = BitMeaning::Kind::PadField;
        return m;
      }
      m.kind = BitMeaning::Kind::PadConn;
      unsigned rel = d.bitInRecord - 8;
      const bool vertical = rel >= tracks;
      if (vertical) rel -= tracks;
      const unsigned row = layout_.padRow(d.pad);
      m.nodeA = nodes_.pad(d.pad);
      if (layout_.padIsWest(d.pad)) {
        m.nodeB = vertical ? nodes_.vseg(0, row, rel)
                           : nodes_.hseg(0, row, rel);
      } else {
        m.nodeB = vertical ? nodes_.vseg(spec_.cols, row, rel)
                           : nodes_.hseg(spec_.cols - 1, row, rel);
      }
      m.isTransistor = true;
      return m;
    }
    case Region::Bram: {
      if (d.bitInRecord < 8) {
        m.kind = BitMeaning::Kind::BramField;
        return m;
      }
      m.kind = BitMeaning::Kind::BramPinConn;
      unsigned rel = d.bitInRecord - 8;
      const unsigned pin = rel / (2 * tracks);
      rel %= 2 * tracks;
      const bool vertical = rel >= tracks;
      if (vertical) rel -= tracks;
      const unsigned xb = layout_.bramPinColumn(d.block, pin);
      m.nodeA = nodes_.bramPin(d.block, pin);
      m.nodeB = vertical ? nodes_.vseg(xb, spec_.rows - 1, rel)
                         : nodes_.hseg(xb, spec_.rows, rel);
      m.isTransistor = true;
      return m;
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Connectivity + compilation
// ---------------------------------------------------------------------------

std::uint32_t Device::find(std::uint32_t node) const {
  std::uint32_t root = node;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[node] != root) {
    const std::uint32_t next = parent_[node];
    parent_[node] = root;
    node = next;
  }
  return root;
}

void Device::unite(std::uint32_t a, std::uint32_t b) {
  a = find(a);
  b = find(b);
  if (a != b) parent_[a] = b;
}

std::uint32_t Device::sourceOfComponent(std::uint32_t pinNode) {
  return compSource_[find(pinNode)];
}

void Device::ensureCompiled() {
  if (topoDirty_) {
    rebuildTopology();
    topoDirty_ = miscDirty_ = lutDirty_ = false;
    timingDirty_ = true;
  } else {
    if (lutDirty_) {
      refreshLutTables();
      lutDirty_ = false;
    }
    if (miscDirty_) {
      refreshMisc();
      miscDirty_ = false;
    }
  }
  if (timingEnabled_ && timingDirty_) {
    computeTiming();
    timingDirty_ = false;
  }
}

void Device::rebuildTopology() {
  // 1. Electrical connectivity: union all nodes joined by ON transistors.
  for (std::uint32_t n = 0; n < nodes_.count(); ++n) parent_[n] = n;
  edges_.clear();
  logicCfg_.forEachSetBit([&](std::size_t bit) {
    const BitMeaning m = decodeLogicBit(bit);
    if (m.isTransistor) {
      unite(m.nodeA, m.nodeB);
      edges_.emplace_back(m.nodeA, m.nodeB);
    }
  });

  // 2. Enumerate used resources and assign value indices.
  Compiled c;
  std::vector<std::uint32_t> lutOfCb(spec_.cbCount(), 0);  // entry index + 1
  c.padInVal.assign(spec_.padCount(), 0);
  c.padOutSrc.assign(spec_.padCount(), 0);
  std::uint32_t nextVal = 1;  // 0 = constant 0

  for (std::uint32_t cbIdx = 0; cbIdx < spec_.cbCount(); ++cbIdx) {
    const CbCoord cb = cbFromIndex(cbIdx);
    if (cbField(cb, CbField::LutUsed)) {
      LutEntry e;
      e.cbIdx = cbIdx;
      e.val = nextVal++;
      e.table = static_cast<std::uint16_t>(
          logicCfg_.getWord(layout_.cbLutBit(cb, 0), 16));
      lutOfCb[cbIdx] = static_cast<std::uint32_t>(c.luts.size()) + 1;
      c.luts.push_back(e);
    }
    if (cbField(cb, CbField::FfUsed)) {
      FfEntry e;
      e.cbIdx = cbIdx;
      e.val = nextVal++;
      c.ffs.push_back(e);
    }
  }
  for (unsigned p = 0; p < spec_.padCount(); ++p) {
    const bool used = logicCfg_.get(layout_.padFieldBit(p, PadField::Used));
    const bool isOut =
        logicCfg_.get(layout_.padFieldBit(p, PadField::IsOutput));
    if (used && !isOut) c.padInVal[p] = nextVal++;
  }
  for (unsigned b = 0; b < spec_.memBlocks; ++b) {
    if (!logicCfg_.get(layout_.bramFieldBit(b, BramField::Used))) continue;
    BramEntry e;
    e.block = b;
    const unsigned widthSel = static_cast<unsigned>(
        logicCfg_.getWord(layout_.bramFieldBit(b, BramField::WidthSelLo), 3));
    require(widthSel <= 4, ErrorKind::ConfigError, "bad bram width select");
    e.width = 1u << widthSel;
    unsigned depth = spec_.memBlockBits / e.width;
    e.addrBits = 0;
    while ((1u << e.addrBits) < depth) ++e.addrBits;
    e.doutValBase = nextVal;
    nextVal += e.width;
    c.brams.push_back(e);
  }
  c.valueCount = nextVal;

  // 3. Map each driven component to its source value index.
  std::fill(compSource_.begin(), compSource_.end(), 0);
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> multi;
  auto addDriver = [&](std::uint32_t node, std::uint32_t val) {
    const std::uint32_t root = find(node);
    if (compSource_[root] == 0 && multi.find(root) == multi.end()) {
      compSource_[root] = val;
    } else {
      auto& list = multi[root];
      if (list.empty() && compSource_[root] != 0) {
        list.push_back(compSource_[root]);
      }
      list.push_back(val);
    }
  };
  for (const auto& e : c.luts) {
    addDriver(nodes_.cbOut(cbFromIndex(e.cbIdx), CbOutPin::Lut), e.val);
  }
  for (const auto& e : c.ffs) {
    addDriver(nodes_.cbOut(cbFromIndex(e.cbIdx), CbOutPin::Ff), e.val);
  }
  for (unsigned p = 0; p < spec_.padCount(); ++p) {
    if (c.padInVal[p] != 0) addDriver(nodes_.pad(p), c.padInVal[p]);
  }
  for (const auto& e : c.brams) {
    for (unsigned b = 0; b < e.width; ++b) {
      addDriver(
          nodes_.bramPin(e.block, DeviceSpec::kBramAddrPins +
                                      DeviceSpec::kBramDataPins + b),
          e.doutValBase + b);
    }
  }

  // Shorted nets: error, or a wired-AND/OR join lowered to a chain of
  // two-input gate entries.
  for (auto& [root, drivers] : multi) {
    if (shortPolicy_ == ShortPolicy::Error) {
      raise(ErrorKind::ConfigError,
            "short circuit: " + std::to_string(drivers.size()) +
                " drivers on one routed net");
    }
    std::uint32_t acc = drivers[0];
    for (std::size_t k = 1; k < drivers.size(); ++k) {
      LutEntry g;
      g.table = shortPolicy_ == ShortPolicy::WiredOr ? 0xEEEE : 0x8888;
      g.in[0] = acc;
      g.in[1] = drivers[k];
      g.cbIdx = kNoCb;
      g.val = acc = c.valueCount++;
      c.luts.push_back(g);
    }
    compSource_[root] = acc;
  }

  // 4. Resolve every sink pin to its source value index.
  auto srcOf = [&](std::uint32_t pinNode) {
    return compSource_[find(pinNode)];
  };
  for (auto& e : c.luts) {
    if (e.cbIdx == kNoCb) continue;
    const CbCoord cb = cbFromIndex(e.cbIdx);
    for (unsigned k = 0; k < 4; ++k) {
      e.in[k] = srcOf(nodes_.cbIn(cb, static_cast<CbInPin>(k)));
    }
  }
  for (auto& e : c.ffs) {
    const CbCoord cb = cbFromIndex(e.cbIdx);
    e.bypSrc = srcOf(nodes_.cbIn(cb, CbInPin::Byp));
    if (lutOfCb[e.cbIdx] != 0) {
      e.hasLut = true;
      e.lutVal = c.luts[lutOfCb[e.cbIdx] - 1].val;
    }
  }
  for (unsigned p = 0; p < spec_.padCount(); ++p) {
    const bool used = logicCfg_.get(layout_.padFieldBit(p, PadField::Used));
    const bool isOut =
        logicCfg_.get(layout_.padFieldBit(p, PadField::IsOutput));
    if (used && isOut) c.padOutSrc[p] = srcOf(nodes_.pad(p));
  }
  for (auto& e : c.brams) {
    for (unsigned a = 0; a < e.addrBits; ++a) {
      e.addrSrc[a] = srcOf(nodes_.bramPin(e.block, a));
    }
    for (unsigned b = 0; b < e.width; ++b) {
      e.dinSrc[b] =
          srcOf(nodes_.bramPin(e.block, DeviceSpec::kBramAddrPins + b));
    }
    e.weSrc = srcOf(nodes_.bramPin(e.block, DeviceSpec::kBramPins - 1));
  }

  // 5. Sort the evaluation array topologically.
  const std::size_t n = c.luts.size();
  std::vector<std::int32_t> producer(c.valueCount, -1);
  for (std::size_t i = 0; i < n; ++i) {
    producer[c.luts[i].val] = static_cast<std::int32_t>(i);
  }
  std::vector<std::uint32_t> indegree(n, 0);
  std::vector<std::vector<std::uint32_t>> fanout(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned k = 0; k < 4; ++k) {
      const std::int32_t p = producer[c.luts[i].in[k]];
      if (p >= 0) {
        ++indegree[i];
        fanout[static_cast<std::size_t>(p)].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  }
  std::vector<std::uint32_t> ready;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (indegree[s] == 0) ready.push_back(s);
  }
  std::vector<LutEntry> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t s = ready.back();
    ready.pop_back();
    order.push_back(c.luts[s]);
    for (auto t : fanout[s]) {
      if (--indegree[t] == 0) ready.push_back(t);
    }
  }
  require(order.size() == n, ErrorKind::ConfigError,
          "combinational loop in configuration");
  c.luts = std::move(order);

  // Late FFs keep capturing the previous D across a rebuild: carry it over
  // by CB, since compiled FF entries are renumbered.
  std::vector<std::uint8_t> prevByCb(spec_.cbCount(), 0);
  for (std::size_t i = 0; i < prevD_.size(); ++i) {
    prevByCb[compiled_.ffs[i].cbIdx] = prevD_[i];
  }
  compiled_ = std::move(c);
  refreshMisc();
  values_.assign(compiled_.valueCount, 0);
  settled_ = false;
  prevD_.resize(compiled_.ffs.size());
  for (std::size_t i = 0; i < prevD_.size(); ++i) {
    prevD_[i] = prevByCb[compiled_.ffs[i].cbIdx];
  }
}

void Device::refreshMisc() {
  for (auto& e : compiled_.ffs) {
    const CbCoord cb = cbFromIndex(e.cbIdx);
    e.fromByp = cbField(cb, CbField::FfInSrc);
    e.invByp = cbField(cb, CbField::InvByp);
    e.srMode = cbField(cb, CbField::SrMode);
    e.lsrForced = cbField(cb, CbField::InvLsr);
  }
}

void Device::refreshLutTables() {
  for (auto& e : compiled_.luts) {
    if (e.cbIdx == kNoCb) continue;
    e.table = static_cast<std::uint16_t>(
        logicCfg_.getWord(layout_.cbLutBit(cbFromIndex(e.cbIdx), 0), 16));
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void Device::refreshLevel0() {
  values_[0] = 0;
  for (const auto& e : compiled_.ffs) {
    if (e.lsrForced) {
      // Asserted asynchronous set/reset drives the stored state itself, so
      // the value persists after the InvertLSRMux is configured back.
      ffState_[e.cbIdx] = e.srMode ? 1 : 0;
    }
    values_[e.val] = ffState_[e.cbIdx];
  }
  for (unsigned p = 0; p < spec_.padCount(); ++p) {
    if (compiled_.padInVal[p] != 0) {
      values_[compiled_.padInVal[p]] = padInput_[p];
    }
  }
  for (const auto& e : compiled_.brams) {
    for (unsigned b = 0; b < e.width; ++b) {
      values_[e.doutValBase + b] = (bramLatch_[e.block] >> b) & 1u;
    }
  }
}

void Device::runSteps() {
  std::uint8_t* v = values_.data();
  for (const LutEntry& e : compiled_.luts) {
    const unsigned idx = v[e.in[0]] | (v[e.in[1]] << 1) | (v[e.in[2]] << 2) |
                         (v[e.in[3]] << 3);
    v[e.val] = (e.table >> idx) & 1u;
  }
  ++settles_;
}

void Device::settle() {
  if (settled_) return;
  ensureCompiled();
  refreshLevel0();
  runSteps();
  settled_ = true;
}

void Device::setPadInput(unsigned pad, bool v) {
  require(pad < spec_.padCount(), ErrorKind::InvalidArgument,
          "pad index out of range");
  const std::uint8_t value = v ? 1 : 0;
  if (padInput_[pad] == value) return;
  padInput_[pad] = value;
  settled_ = false;
}

bool Device::padValue(unsigned pad) const {
  if (pad >= compiled_.padInVal.size()) return false;  // never compiled
  if (compiled_.padInVal[pad] != 0) return padInput_[pad] != 0;
  return values_[compiled_.padOutSrc[pad]] != 0;  // 0 when not an output
}

void Device::step() {
  settle();

  // Sample all sequential elements with settled pre-edge values.
  const std::size_t nf = compiled_.ffs.size();
  nextD_.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) {
    const FfEntry& e = compiled_.ffs[i];
    std::uint8_t v;
    if (e.fromByp) {
      v = values_[e.bypSrc] ^ (e.invByp ? 1 : 0);
    } else {
      v = e.hasLut ? values_[e.lutVal] : 0;
    }
    nextD_[i] = v;
  }

  bramOps_.resize(compiled_.brams.size());
  for (std::size_t i = 0; i < compiled_.brams.size(); ++i) {
    const BramEntry& e = compiled_.brams[i];
    std::size_t addr = 0;
    for (unsigned a = 0; a < e.addrBits; ++a) {
      addr |= static_cast<std::size_t>(values_[e.addrSrc[a]]) << a;
    }
    const std::size_t base = addr * e.width;
    std::uint32_t rd = 0;
    for (unsigned b = 0; b < e.width; ++b) {
      rd |= static_cast<std::uint32_t>(
                bramCfg_.get(layout_.bramContentBit(e.block, base + b)))
            << b;
    }
    BramOp& op = bramOps_[i];
    op.read = rd;
    op.write = values_[e.weSrc] != 0;
    if (op.write) {
      op.row = addr;
      std::uint32_t wv = 0;
      for (unsigned b = 0; b < e.width; ++b) {
        wv |= static_cast<std::uint32_t>(values_[e.dinSrc[b]]) << b;
      }
      op.wval = wv;
    }
  }

  // Commit the edge.
  for (std::size_t i = 0; i < nf; ++i) {
    const FfEntry& e = compiled_.ffs[i];
    std::uint8_t capture = nextD_[i];
    if (timingEnabled_ && e.late) capture = prevD_[i];  // stale data captured
    if (e.lsrForced) capture = e.srMode ? 1 : 0;        // async SR dominates
    ffState_[e.cbIdx] = capture;
  }
  prevD_.swap(nextD_);
  for (std::size_t i = 0; i < compiled_.brams.size(); ++i) {
    const BramEntry& e = compiled_.brams[i];
    const BramOp& op = bramOps_[i];
    bramLatch_[e.block] = op.read;
    if (op.write) {
      const std::size_t base = op.row * e.width;
      for (unsigned b = 0; b < e.width; ++b) {
        const std::size_t addr = layout_.bramContentBit(e.block, base + b);
        bramCfg_.set(addr, (op.wval >> b) & 1u);
        noteBramWrite(addr);
      }
    }
  }

  ++cycle_;
  refreshLevel0();
  runSteps();
}

std::uint64_t Device::bramWord(unsigned block, unsigned width,
                               std::size_t row) const {
  std::uint64_t v = 0;
  for (unsigned b = 0; b < width; ++b) {
    v |= static_cast<std::uint64_t>(
             bramCfg_.get(layout_.bramContentBit(block, row * width + b)))
         << b;
  }
  return v;
}

DeviceState Device::captureState() const {
  DeviceState s;
  s.ffState = ffState_;
  s.prevD.assign(ffState_.size(), 0);
  for (std::size_t i = 0; i < prevD_.size(); ++i) {
    s.prevD[compiled_.ffs[i].cbIdx] = prevD_[i];
  }
  s.bramContent = bramCfg_;
  s.bramLatch = bramLatch_;
  s.padInput = padInput_;
  s.cycle = cycle_;
  return s;
}

template <typename Put>
bool Device::forEachPackedWord(bool withPrevD, Put&& put) const {
  std::uint64_t word = 0;
  unsigned n = 0;
  auto bit = [&](bool v) {
    word |= std::uint64_t{v} << n;
    if (++n < 64) return true;
    n = 0;
    return put(std::exchange(word, 0));
  };
  auto flush = [&] {
    if (n == 0) return true;
    n = 0;
    return put(std::exchange(word, 0));
  };
  for (const auto& e : compiled_.ffs) {
    if (!bit(ffState_[e.cbIdx] != 0)) return false;
  }
  for (const auto& e : compiled_.brams) {
    for (unsigned b = 0; b < e.width; ++b) {
      if (!bit((bramLatch_[e.block] >> b) & 1u)) return false;
    }
  }
  if (!flush()) return false;
  if (!withPrevD) return true;
  for (const std::uint8_t d : prevD_) {
    if (!bit(d != 0)) return false;
  }
  return flush();
}

void Device::restoreState(const DeviceState& s,
                          std::span<const std::uint64_t> packed) {
  require(s.ffState.size() == ffState_.size() &&
              s.prevD.size() == ffState_.size() &&
              s.bramContent.size() == bramCfg_.size(),
          ErrorKind::InvalidArgument, "device state shape mismatch");
  ffState_ = s.ffState;
  bramCfg_ = s.bramContent;
  clearChangedBramWords();
  bramLatch_ = s.bramLatch;
  padInput_ = s.padInput;
  cycle_ = s.cycle;
  settled_ = false;
  ensureCompiled();
  for (std::size_t i = 0; i < prevD_.size(); ++i) {
    prevD_[i] = s.prevD[compiled_.ffs[i].cbIdx];
  }
  if (!packed.empty()) {
    // Walk the packed layout once to check its length, then read it bit by
    // bit in the same order.
    std::size_t words = 0;
    forEachPackedWord(true, [&](std::uint64_t) {
      ++words;
      return true;
    });
    require(packed.size() == words, ErrorKind::InvalidArgument,
            "packed state shape mismatch");
    std::size_t bit = 0;
    auto next = [&] {
      const bool v = (packed[bit >> 6] >> (bit & 63)) & 1u;
      ++bit;
      return static_cast<std::uint8_t>(v);
    };
    for (const auto& e : compiled_.ffs) ffState_[e.cbIdx] = next();
    for (const auto& e : compiled_.brams) {
      std::uint32_t latch = 0;
      for (unsigned b = 0; b < e.width; ++b) latch |= std::uint32_t{next()} << b;
      bramLatch_[e.block] = latch;
    }
    bit = (bit + 63) / 64 * 64;  // the previous D values start a fresh word
    for (auto& d : prevD_) d = next();
  }
  settle();
}

void Device::appendPackedState(std::vector<std::uint64_t>& out) {
  ensureCompiled();
  forEachPackedWord(true, [&](std::uint64_t w) {
    out.push_back(w);
    return true;
  });
}

bool Device::packedStateMatches(std::span<const std::uint64_t> packed) {
  ensureCompiled();
  std::size_t k = 0;
  return forEachPackedWord(false, [&](std::uint64_t w) {
    return k < packed.size() && packed[k++] == w;
  });
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

void Device::setTimingEnabled(bool on) {
  if (on && !timingEnabled_) timingDirty_ = true;
  timingEnabled_ = on;
  settled_ = false;
}

const TimingReport& Device::timingReport() {
  ensureCompiled();
  if (timingDirty_ && timingEnabled_) {
    computeTiming();
    timingDirty_ = false;
  }
  return timingReport_;
}

double Device::sinkDelayNs(std::uint32_t sinkNode) {
  ensureCompiled();
  if (timingDirty_) {
    computeTiming();
    timingDirty_ = false;
  }
  return sinkNode < sinkDelay_.size() ? sinkDelay_[sinkNode] : 0.0;
}

void Device::computeTiming() {
  // Per-component wire delays: BFS from the driver through the ON-transistor
  // graph. Path cost: one segmentDelay per wire segment entered plus one
  // passTransistor delay per transistor crossed. Every transistor hanging on
  // the net also contributes capacitive load (the mechanism behind the
  // paper's fan-out delay faults, Section 4.3 / Figure 8).
  sinkDelay_.assign(nodes_.count(), 0.0);

  // Adjacency over nodes that appear in edges.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adj;
  std::unordered_map<std::uint32_t, unsigned> compEdgeCount;
  adj.reserve(edges_.size() * 2);
  for (const auto& [a, b] : edges_) {
    adj[a].push_back(b);
    adj[b].push_back(a);
    ++compEdgeCount[find(a)];
  }

  // Driver nodes: every node whose component it sources.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> driverNodes;
  auto collect = [&](std::uint32_t node) {
    if (compSource_[find(node)] != 0 && adj.count(node)) {
      driverNodes.emplace_back(node, find(node));
    }
  };
  for (const auto& e : compiled_.luts) {
    if (e.cbIdx != kNoCb) {
      collect(nodes_.cbOut(cbFromIndex(e.cbIdx), CbOutPin::Lut));
    }
  }
  for (const auto& e : compiled_.ffs) {
    collect(nodes_.cbOut(cbFromIndex(e.cbIdx), CbOutPin::Ff));
  }
  for (unsigned p = 0; p < spec_.padCount(); ++p) {
    if (compiled_.padInVal[p] != 0) collect(nodes_.pad(p));
  }
  for (const auto& e : compiled_.brams) {
    for (unsigned b = 0; b < e.width; ++b) {
      collect(nodes_.bramPin(e.block, DeviceSpec::kBramAddrPins +
                                          DeviceSpec::kBramDataPins + b));
    }
  }

  std::unordered_map<std::uint32_t, double> dist;
  std::vector<std::uint32_t> queue;
  for (const auto& [driver, root] : driverNodes) {
    const double load =
        spec_.fanoutLoadNs * static_cast<double>(compEdgeCount[root]);
    dist.clear();
    queue.clear();
    dist[driver] = 0.0;
    queue.push_back(driver);
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const std::uint32_t n = queue[h];
      const double dn = dist[n];
      auto it = adj.find(n);
      if (it == adj.end()) continue;
      for (std::uint32_t nb : it->second) {
        const double cost = dn + spec_.passTransistorNs +
                            (nodes_.isSegment(nb) ? spec_.segmentDelayNs : 0.0);
        auto [dit, inserted] = dist.try_emplace(nb, cost);
        if (inserted) {
          queue.push_back(nb);
        } else if (cost < dit->second) {
          // Near-uniform edge costs: BFS plus relaxation converges quickly.
          dit->second = cost;
          queue.push_back(nb);
        }
      }
    }
    for (const auto& [node, dcost] : dist) {
      if (!nodes_.isSegment(node) && node != driver) {
        sinkDelay_[node] = dcost + load;
      }
    }
  }

  // Arrival-time propagation in topological order.
  std::vector<double> arr(compiled_.valueCount, 0.0);
  for (const auto& e : compiled_.ffs) arr[e.val] = spec_.clkToQNs;
  for (unsigned p = 0; p < spec_.padCount(); ++p) {
    if (compiled_.padInVal[p] != 0) {
      arr[compiled_.padInVal[p]] = spec_.padDelayNs;
    }
  }
  for (const auto& e : compiled_.brams) {
    for (unsigned b = 0; b < e.width; ++b) {
      arr[e.doutValBase + b] = spec_.clkToQNs;
    }
  }
  for (const LutEntry& e : compiled_.luts) {
    // A gate entry (wired join) passes its latest input on without delay.
    const bool gate = e.cbIdx == kNoCb;
    double t = 0.0;
    for (unsigned k = 0; k < 4; ++k) {
      if (e.in[k] == 0) continue;
      const double wire =
          gate ? 0.0
               : sinkDelay_[nodes_.cbIn(cbFromIndex(e.cbIdx),
                                        static_cast<CbInPin>(k))];
      t = std::max(t, arr[e.in[k]] + wire);
    }
    arr[e.val] = gate ? t : t + spec_.lutDelayNs;
  }

  timingReport_ = TimingReport{};
  const double budget = spec_.clockPeriodNs - spec_.ffSetupNs;
  for (auto& e : compiled_.ffs) {
    const CbCoord cb = cbFromIndex(e.cbIdx);
    double arrival;
    if (e.fromByp) {
      arrival = (e.bypSrc != 0 ? arr[e.bypSrc] : 0.0) +
                sinkDelay_[nodes_.cbIn(cb, CbInPin::Byp)];
    } else {
      arrival = e.hasLut ? arr[e.lutVal] : 0.0;
    }
    e.late = arrival > budget;
    timingReport_.maxArrivalNs = std::max(timingReport_.maxArrivalNs, arrival);
    if (e.late) {
      ++timingReport_.lateFfCount;
      timingReport_.lateFfs.push_back(cb);
    }
  }
}

unsigned Device::usedLutCount() {
  ensureCompiled();
  return static_cast<unsigned>(
      std::count_if(compiled_.luts.begin(), compiled_.luts.end(),
                    [](const LutEntry& e) { return e.cbIdx != kNoCb; }));
}

unsigned Device::usedFfCount() {
  ensureCompiled();
  return static_cast<unsigned>(compiled_.ffs.size());
}

}  // namespace fades::fpga
