#include "bits/config_port.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fades::bits {

using common::ErrorKind;

// ---------------------------------------------------------------------------
// Unreliable-link model
// ---------------------------------------------------------------------------

void ConfigPort::linkTransfer(LinkOp op, std::uint64_t bytes) {
  // One uniform01 draw per attempt from the dedicated link stream. The
  // experiment RNG is never touched here, so the draw sequence - and
  // therefore every fault and retry - is a pure function of the seed passed
  // to seedLinkStream() and the logical operation sequence.
  const bool isRead = op == LinkOp::Read || op == LinkOp::Capture;
  const double rate =
      linkFaults_.timeoutRate +
      (isRead ? linkFaults_.readCrcRate : linkFaults_.writeFailRate);
  // Retry backoff: 2 ms, growing 2x per retry, at most 250 ms per delay.
  constexpr double kBackoffBaseSeconds = 0.002;
  constexpr double kBackoffGrowth = 2.0;
  constexpr double kBackoffCapSeconds = 0.250;
  double backoff = kBackoffBaseSeconds;
  for (unsigned attempt = 0;; ++attempt) {
    if (linkRng_.uniform01() >= rate) return;  // attempt went through
    ++meter_.linkFaults;
    cLinkFaults_.inc();
    if (attempt >= retry_.maxRetries) {
      common::raise(ErrorKind::LinkError,
                    std::string(isRead ? "readback CRC mismatch"
                                       : "transient write failure") +
                        " persisted through " +
                        std::to_string(retry_.maxRetries) + " retries");
    }
    // Re-issue with backoff. The cost lands in the retry-only meter fields,
    // which BoardLink::seconds() ignores: modeled experiment time stays
    // bit-identical to a fault-free run.
    ++meter_.retryOps;
    meter_.retryBytes += bytes;
    meter_.retryBackoffSeconds += backoff;
    backoff = std::min(backoff * kBackoffGrowth, kBackoffCapSeconds);
    cRetries_.inc();
  }
}

// ---------------------------------------------------------------------------
// Frame-level transfers
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ConfigPort::readLogicFrame(FrameAddr f) {
  noteRead(dev_.spec().frameBytes);
  return dev_.readLogicFrame(f);
}

void ConfigPort::writeLogicFrame(FrameAddr f,
                                 std::span<const std::uint8_t> bytes) {
  noteWrite(bytes.size());
  dev_.writeLogicFrame(f, bytes);
}

std::vector<std::uint8_t> ConfigPort::readBramFrame(unsigned block,
                                                    unsigned minor) {
  noteRead(dev_.spec().frameBytes);
  return dev_.readBramFrame(block, minor);
}

void ConfigPort::writeBramFrame(unsigned block, unsigned minor,
                                std::span<const std::uint8_t> bytes) {
  noteWrite(bytes.size());
  dev_.writeBramFrame(block, minor, bytes);
}

std::vector<std::uint8_t> ConfigPort::readCaptureFrame(unsigned col) {
  noteCapture(dev_.spec().frameBytes);
  return dev_.readCaptureFrame(col);
}

void ConfigPort::writeFullBitstream(const fpga::Bitstream& bs) {
  dev_.writeFullBitstream(bs);
  noteWrite(dev_.layout().totalConfigBytes());
}

fpga::Bitstream ConfigPort::readbackFull() {
  auto bs = dev_.readbackBitstream();
  noteRead(dev_.layout().totalConfigBytes());
  return bs;
}

void ConfigPort::pulseGsr() {
  dev_.pulseGsr();
  noteCommand(8);  // control packet
}

// ---------------------------------------------------------------------------
// Helpers (each does genuine frame traffic)
// ---------------------------------------------------------------------------

std::uint16_t ConfigPort::getLutTable(CbCoord cb) {
  const auto& layout = dev_.layout();
  std::uint16_t table = 0;
  std::size_t bit = layout.cbLutBit(cb, 0);
  unsigned k = 0;
  while (k < 16) {
    const FrameAddr f = layout.frameOfLogicBit(bit);
    const auto bytes = readLogicFrame(f);
    const std::size_t first = layout.logicFrameFirstBit(f);
    const unsigned inFrame = layout.logicFrameBitCount(f);
    while (k < 16 && bit - first < inFrame) {
      const std::size_t rel = bit - first;
      if ((bytes[rel >> 3] >> (rel & 7)) & 1u) {
        table |= static_cast<std::uint16_t>(1u << k);
      }
      ++k;
      ++bit;
    }
  }
  return table;
}

void ConfigPort::setLutTable(CbCoord cb, std::uint16_t table) {
  updateLogicFrames(lutTableUpdates(cb, table), /*blind=*/false);
}

bool ConfigPort::getLogicBit(std::size_t addr) {
  const auto& layout = dev_.layout();
  const FrameAddr f = layout.frameOfLogicBit(addr);
  const auto bytes = readLogicFrame(f);
  const std::size_t rel = addr - layout.logicFrameFirstBit(f);
  return (bytes[rel >> 3] >> (rel & 7)) & 1u;
}

void ConfigPort::updateLogicFrames(
    std::span<const std::pair<std::size_t, bool>> updates, bool blind) {
  const auto& layout = dev_.layout();
  // Frame addresses ascend with bit address, so sorting by address groups
  // the updates by frame, frames ascending; the stable sort keeps the last
  // of several updates to one bit last.
  std::vector<std::pair<std::size_t, bool>> sorted(updates.begin(),
                                                   updates.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (std::size_t i = 0; i < sorted.size();) {
    const FrameAddr f = layout.frameOfLogicBit(sorted[i].first);
    const std::size_t first = layout.logicFrameFirstBit(f);
    const std::size_t end = first + layout.logicFrameBitCount(f);
    // Blind writes take the frame from the host-side mirror (== device
    // config) instead of a metered read-back.
    auto bytes = blind ? dev_.readLogicFrame(f) : readLogicFrame(f);
    for (; i < sorted.size() && sorted[i].first < end; ++i) {
      const std::size_t rel = sorted[i].first - first;
      const std::uint8_t mask = static_cast<std::uint8_t>(1u << (rel & 7));
      if (sorted[i].second) {
        bytes[rel >> 3] |= mask;
      } else {
        bytes[rel >> 3] &= static_cast<std::uint8_t>(~mask);
      }
    }
    writeLogicFrame(f, bytes);
  }
}

std::vector<std::pair<std::size_t, bool>> ConfigPort::lutTableUpdates(
    CbCoord cb, std::uint16_t table) const {
  std::vector<std::pair<std::size_t, bool>> updates;
  updates.reserve(16);
  for (unsigned i = 0; i < 16; ++i) {
    updates.emplace_back(dev_.layout().cbLutBit(cb, i), (table >> i) & 1u);
  }
  return updates;
}

std::vector<std::pair<std::size_t, bool>> ConfigPort::cbFieldUpdates(
    CbCoord cb, std::span<const std::pair<CbField, bool>> fields) const {
  std::vector<std::pair<std::size_t, bool>> updates;
  updates.reserve(fields.size());
  for (const auto& [field, value] : fields) {
    updates.emplace_back(dev_.layout().cbFieldBit(cb, field), value);
  }
  return updates;
}

void ConfigPort::setLogicBit(std::size_t addr, bool value) {
  const std::pair<std::size_t, bool> update{addr, value};
  updateLogicFrames({&update, 1}, /*blind=*/false);
}

void ConfigPort::setLogicBits(
    std::span<const std::pair<std::size_t, bool>> updates) {
  updateLogicFrames(updates, /*blind=*/false);
}

void ConfigPort::updateCbFields(
    CbCoord cb, std::span<const std::pair<CbField, bool>> fields) {
  updateLogicFrames(cbFieldUpdates(cb, fields), /*blind=*/false);
}

void ConfigPort::setLogicBitsBlind(
    std::span<const std::pair<std::size_t, bool>> updates) {
  updateLogicFrames(updates, /*blind=*/true);
}

void ConfigPort::setLutTableBlind(CbCoord cb, std::uint16_t table) {
  updateLogicFrames(lutTableUpdates(cb, table), /*blind=*/true);
}

void ConfigPort::updateCbFieldsBlind(
    CbCoord cb, std::span<const std::pair<CbField, bool>> fields) {
  updateLogicFrames(cbFieldUpdates(cb, fields), /*blind=*/true);
}

bool ConfigPort::getCbFieldBit(CbCoord cb, CbField field) {
  return getLogicBit(dev_.layout().cbFieldBit(cb, field));
}

void ConfigPort::setCbFieldBit(CbCoord cb, CbField field, bool value) {
  setLogicBit(dev_.layout().cbFieldBit(cb, field), value);
}

bool ConfigPort::readFfState(CbCoord cb) {
  const auto bytes = readCaptureFrame(cb.x);
  return (bytes[cb.y >> 3] >> (cb.y & 7)) & 1u;
}

bool ConfigPort::getBramBit(unsigned block, unsigned bit) {
  const auto& layout = dev_.layout();
  const FrameAddr f = layout.frameOfBramBit(block, bit);
  const auto bytes = readBramFrame(block, f.minor);
  const unsigned rel = bit - f.minor * layout.frameBits();
  return (bytes[rel >> 3] >> (rel & 7)) & 1u;
}

void ConfigPort::setBramBit(unsigned block, unsigned bit, bool value) {
  const auto& layout = dev_.layout();
  const FrameAddr f = layout.frameOfBramBit(block, bit);
  auto bytes = readBramFrame(block, f.minor);
  const unsigned rel = bit - f.minor * layout.frameBits();
  const std::uint8_t mask = static_cast<std::uint8_t>(1u << (rel & 7));
  if (value) {
    bytes[rel >> 3] |= mask;
  } else {
    bytes[rel >> 3] &= static_cast<std::uint8_t>(~mask);
  }
  writeBramFrame(block, f.minor, bytes);
}

}  // namespace fades::bits
