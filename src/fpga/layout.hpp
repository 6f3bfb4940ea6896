// Configuration-memory layout and routing-resource naming.
//
// Every configurable element of the generic FPGA - LUT truth tables, CB
// multiplexer selects, PM pass transistors, connection-box transistors, pad
// and memory-block setup, memory-block contents - is controlled by a bit in
// the configuration memory (paper Section 3). This file defines where each
// bit lives and how the memory is divided into frames, the unit of partial
// run-time reconfiguration. The fault injectors in src/core operate purely
// in terms of these addresses, exactly as the paper's tool drives JBits.
#pragma once

#include <cstdint>
#include <vector>

#include "fpga/spec.hpp"

namespace fades::fpga {

/// Non-content CB configuration fields (bit offsets inside a CB record).
enum class CbField : std::uint8_t {
  FfInSrc = 16,  // 0: FF D input = LUT output; 1: FF D input = BYP pin
  InvByp = 17,   // InvertFFinMux: invert the BYP pin's incoming level
  SrMode = 18,   // PRMux/CLRMux: 0 = GSR/LSR clears FF, 1 = presets it
  InvLsr = 19,   // InvertLSRMux: inverting the (tied-low) LSR line asserts
                 // the FF's local set/reset continuously
  FfUsed = 20,
  LutUsed = 21,
};

enum class PadField : std::uint8_t {
  IsOutput = 0,
  Used = 1,
};

enum class BramField : std::uint8_t {
  WidthSelLo = 0,  // 3 bits: log2 of data width (0..4 -> 1,2,4,8,16)
  Used = 4,
};

/// Frame planes. Plane A holds logic+interconnect configuration, plane B
/// holds memory-block contents (directly addressable, which is what enables
/// the paper's bit-flip injection into memory blocks), plane C is the
/// read-only capture plane exposing live flip-flop state on read-back.
enum class Plane : std::uint8_t { Logic, BramContent, Capture };

struct FrameAddr {
  Plane plane = Plane::Logic;
  std::uint32_t major = 0;  // Logic/Capture: column; BramContent: block
  std::uint32_t minor = 0;
  friend bool operator==(FrameAddr, FrameAddr) = default;
};

class ConfigLayout {
 public:
  explicit ConfigLayout(const DeviceSpec& spec);

  const DeviceSpec& spec() const { return spec_; }

  // --- sizes ----------------------------------------------------------------
  std::size_t logicPlaneBits() const { return logicBits_; }
  std::size_t bramPlaneBits() const {
    return std::size_t{spec_.memBlocks} * spec_.memBlockBits;
  }
  unsigned frameBits() const { return spec_.frameBytes * 8; }
  unsigned logicColumns() const { return spec_.cols + 1; }
  unsigned minorsOfColumn(unsigned col) const;
  unsigned bramFramesPerBlock() const;
  /// Total frames across all planes (A + B; capture is read-only state).
  std::size_t totalConfigFrames() const;
  std::size_t totalConfigBytes() const {
    return totalConfigFrames() * spec_.frameBytes;
  }

  // --- plane A bit addresses ----------------------------------------------
  std::size_t cbBit(CbCoord cb, unsigned bitInRecord) const;
  std::size_t cbLutBit(CbCoord cb, unsigned tableIndex) const {
    return cbBit(cb, tableIndex);
  }
  std::size_t cbFieldBit(CbCoord cb, CbField f) const {
    return cbBit(cb, static_cast<unsigned>(f));
  }
  /// Connection-box transistor: CB input pin <-> adjacent channel track.
  std::size_t cbInConnBit(CbCoord cb, CbInPin pin, bool vertical,
                          unsigned track) const;
  /// Connection-box transistor: CB output pin -> adjacent channel track.
  std::size_t cbOutConnBit(CbCoord cb, CbOutPin pin, bool vertical,
                           unsigned track) const;
  /// PM pass transistor. PM grid is (cols+1) x (rows+1).
  std::size_t pmSwitchBit(PmCoord pm, unsigned track, PmSwitch sw) const;
  std::size_t padFieldBit(unsigned pad, PadField f) const;
  std::size_t padConnBit(unsigned pad, bool vertical, unsigned track) const;
  std::size_t bramFieldBit(unsigned block, BramField f) const;
  std::size_t bramPinConnBit(unsigned block, unsigned pin, bool vertical,
                             unsigned track) const;

  // --- geometry of edge resources ----------------------------------------
  /// Pads 0..rows-1 sit on the west edge (x = 0) top-to-bottom; pads
  /// rows..2*rows-1 on the east edge (x = cols).
  bool padIsWest(unsigned pad) const { return pad < spec_.rows; }
  unsigned padRow(unsigned pad) const {
    return padIsWest(pad) ? pad : pad - spec_.rows;
  }
  /// Memory blocks line the north edge; block b's pin k attaches at column
  /// bramPinColumn(b,k), reaching HSeg(x, rows, t) and VSeg(x, rows-1, t).
  unsigned bramColsPerBlock() const { return spec_.cols / spec_.memBlocks; }
  unsigned bramPinColumn(unsigned block, unsigned pin) const {
    return block * bramColsPerBlock() + pin % bramColsPerBlock();
  }

  // --- frame mapping --------------------------------------------------------
  /// Which logic-plane frame contains the given plane-A bit address.
  FrameAddr frameOfLogicBit(std::size_t bit) const;
  /// First bit covered by a logic frame.
  std::size_t logicFrameFirstBit(FrameAddr f) const;
  /// Number of valid bits in this logic frame (the last frame of a column
  /// may be partial).
  unsigned logicFrameBitCount(FrameAddr f) const;

  std::size_t bramContentBit(unsigned block, unsigned bit) const {
    return std::size_t{block} * spec_.memBlockBits + bit;
  }
  FrameAddr frameOfBramBit(unsigned block, unsigned bit) const;

  // --- reverse mapping -------------------------------------------------------
  /// Classify a plane-A bit address back into the resource it configures.
  struct Decoded {
    enum class Region : std::uint8_t { Cb, Pm, Pad, Bram } region;
    CbCoord cb{};            // Region::Cb
    unsigned bitInRecord = 0;
    PmCoord pm{};            // Region::Pm
    unsigned pad = 0;        // Region::Pad
    unsigned block = 0;      // Region::Bram
  };
  Decoded decode(std::size_t bit) const;

  // --- record sizes (exposed for tests) ------------------------------------
  unsigned cbRecordBits() const { return cbRecordBits_; }
  unsigned pmRecordBits() const { return pmRecordBits_; }
  unsigned padRecordBits() const { return padRecordBits_; }
  unsigned bramRecordBits() const { return bramRecordBits_; }

 private:
  std::size_t columnStart(unsigned col) const { return colStart_[col]; }
  std::size_t columnBits(unsigned col) const {
    return colStart_[col + 1] - colStart_[col];
  }

  DeviceSpec spec_;
  unsigned cbRecordBits_ = 0;
  unsigned pmRecordBits_ = 0;
  unsigned padRecordBits_ = 0;
  unsigned bramRecordBits_ = 0;
  std::vector<std::size_t> colStart_;  // size cols+2 (prefix sums)
  std::size_t logicBits_ = 0;
};

// ---------------------------------------------------------------------------
// Routing-resource node ids.
// ---------------------------------------------------------------------------

enum class NodeKind : std::uint8_t { HSeg, VSeg, CbIn, CbOut, Pad, BramPin };

struct NodeInfo {
  NodeKind kind;
  // HSeg/VSeg: x, y, track. CbIn/CbOut: x, y = CB coords, track = pin.
  // Pad: x = pad index. BramPin: x = block, track = pin.
  unsigned x = 0;
  unsigned y = 0;
  unsigned track = 0;
};

/// Dense numbering of all routing nodes: wire segments, CB pins, pad pins
/// and memory-block pins. Shared by the router (which builds paths) and the
/// device (which resolves live connectivity from ON pass transistors).
class RoutingNodes {
 public:
  explicit RoutingNodes(const DeviceSpec& spec);

  std::uint32_t count() const { return total_; }

  std::uint32_t hseg(unsigned x, unsigned y, unsigned t) const;
  std::uint32_t vseg(unsigned x, unsigned y, unsigned t) const;
  std::uint32_t cbIn(CbCoord cb, CbInPin pin) const;
  std::uint32_t cbOut(CbCoord cb, CbOutPin pin) const;
  std::uint32_t pad(unsigned p) const;
  std::uint32_t bramPin(unsigned block, unsigned pin) const;

  NodeInfo info(std::uint32_t node) const;

  /// Approximate (x, y) tile position, used by the router's A* heuristic.
  void position(std::uint32_t node, double& x, double& y) const;

 private:
  DeviceSpec spec_;
  std::uint32_t hsegBase_, vsegBase_, cbInBase_, cbOutBase_, padBase_,
      bramBase_, total_;
};

}  // namespace fades::fpga
