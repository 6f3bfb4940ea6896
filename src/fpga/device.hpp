// The generic SRAM-based FPGA device (paper Section 3), simulated.
//
// The device is entirely defined by its configuration memory: LUT truth
// tables, CB multiplexer settings, PM pass transistors, pad and memory-block
// setup (plane A) and memory-block contents (plane B). Execution semantics:
//
//  * Combinational logic: each used CB evaluates its 4-input LUT over the
//    values carried by the routing fabric; connectivity is resolved from the
//    ON pass transistors, exactly as the electrical structure would dictate.
//  * Sequential logic: each used FF samples its D input (own LUT output or
//    the BYP pin through InvertFFinMux) on the positive clock edge. GSR
//    drives every FF to its PRMux/CLRMux-selected value; InvertLSRMux
//    asserts one FF's local set/reset continuously until reconfigured back.
//  * Memory blocks: synchronous read-first RAM whose storage bits ARE
//    configuration-plane-B bits, which is precisely the property the paper
//    exploits for run-time bit-flip injection into memories (Section 4.1).
//  * Timing (optional mode): per-net delays derived from the routed path
//    (segments, pass transistors, loads). A flip-flop whose data arrival
//    exceeds the clock period captures the previous cycle's value, which is
//    how emulated delay faults (Section 4.3) manifest as errors.
//
// The device deliberately exposes NO netlist-level structure: everything is
// derived from configuration bits, so the fault injectors are forced to work
// the way the paper's tool works - through reconfiguration.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bitvector.hpp"
#include "fpga/layout.hpp"
#include "fpga/spec.hpp"

namespace fades::fpga {

/// A full configuration image (the "configuration file" of Figure 1).
struct Bitstream {
  common::BitVector logic;
  common::BitVector bram;
};

/// What a configuration bit means; produced by Device::decodeLogicBit. The
/// connectivity decode reads the transistor bits' node pairs: every set bit
/// once per download, then only the bits toggled since (Device::decodedBits
/// counts both). Fault injectors and diagnostics read the kind.
struct BitMeaning {
  enum class Kind : std::uint8_t {
    LutTable,
    CbField,
    CbInConn,
    CbOutConn,
    PmSwitch,
    PadField,
    PadConn,
    BramField,
    BramPinConn,
  };
  Kind kind{};
  // Transistor bits connect two routing nodes:
  std::uint32_t nodeA = 0;
  std::uint32_t nodeB = 0;
  bool isTransistor = false;
};

/// Host-side snapshot of dynamic device state (FF states, timing-mode
/// previous D values, memory contents, output latches, cycle counter, pad
/// stimuli). The campaign engine loads the injection instant from one; it
/// does not model a hardware interface and carries no reconfiguration cost.
struct DeviceState {
  std::vector<std::uint8_t> ffState;
  std::vector<std::uint8_t> prevD;  // per CB: D sampled at the last edge
  common::BitVector bramContent;
  std::vector<std::uint32_t> bramLatch;
  std::vector<std::uint8_t> padInput;
  std::uint64_t cycle = 0;
};

/// Storage word w of a memory plane, bits [64w, 64w + 64) (a last word can
/// be shorter): the unit in which Device::changedBramWords() reports
/// writes.
std::uint64_t storageWord(const common::BitVector& plane, std::uint32_t w);
void setStorageWord(common::BitVector& plane, std::uint32_t w,
                    std::uint64_t value);

/// How multi-driver (shorted) nets behave. Normal designs treat a short as
/// a configuration error; the permanent-fault extension (bridging faults)
/// switches to a wired-AND/OR resolution, matching the dominant-logic model.
enum class ShortPolicy : std::uint8_t { Error, WiredAnd, WiredOr };

struct TimingReport {
  double maxArrivalNs = 0.0;
  unsigned lateFfCount = 0;
  std::vector<CbCoord> lateFfs;
};

class Device {
 public:
  explicit Device(const DeviceSpec& spec);

  const DeviceSpec& spec() const { return spec_; }
  const ConfigLayout& layout() const { return layout_; }
  const RoutingNodes& nodes() const { return nodes_; }

  // --- raw configuration access (metering lives in bits::ConfigPort) -------
  bool logicBit(std::size_t addr) const { return logicCfg_.get(addr); }
  void setLogicBit(std::size_t addr, bool v);
  bool bramBit(std::size_t addr) const { return bramCfg_.get(addr); }
  void setBramBit(std::size_t addr, bool v);

  /// Whether the logic plane equals the last writeFullBitstream(), in O(1):
  /// the device keeps the set of bits toggled an odd number of times since
  /// that download, not a second copy of the plane. False before the first
  /// download, when the toggled set is measured from the empty plane.
  bool configIsDownloaded() const {
    return downloaded_ && toggledBits_.empty();
  }

  /// Plane-B storage words (word w holds bits [64w, 64w + 64)) written since
  /// the last clearChangedBramWords(), restoreState() or download, each
  /// once, whatever wrote them: clock-edge writes, bit and frame writes.
  std::span<const std::uint32_t> changedBramWords() const {
    return changedBramWords_;
  }
  void clearChangedBramWords();
  std::uint64_t bramStorageWord(std::uint32_t w) const {
    return storageWord(bramCfg_, w);
  }

  std::vector<std::uint8_t> readLogicFrame(FrameAddr f) const;
  void writeLogicFrame(FrameAddr f, std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> readBramFrame(unsigned block, unsigned minor) const;
  void writeBramFrame(unsigned block, unsigned minor,
                      std::span<const std::uint8_t> bytes);
  /// Capture plane: live FF state of one CB column (read-only).
  std::vector<std::uint8_t> readCaptureFrame(unsigned col) const;

  void writeFullBitstream(const Bitstream& bs);
  Bitstream readbackBitstream() const;

  /// Pulse the Global Set/Reset line: every FF assumes its SrMode value.
  void pulseGsr();

  /// What logic-plane bit `addr` configures (pure: it reads no plane).
  BitMeaning decodeLogicBit(std::size_t addr) const;
  /// Bits the connectivity decode has read so far: every set bit of each
  /// download, then the toggled bits each topology rebuild found set.
  std::uint64_t decodedBits() const { return decodedBits_; }

  // --- execution -------------------------------------------------------------
  void setPadInput(unsigned pad, bool v);
  bool padValue(unsigned pad) const;  // settled value seen at an output pad
  /// Propagate combinational logic: recompile what the configuration changed,
  /// then evaluate the LUT network once. Returns at once while the device is
  /// settled, i.e. while the network values equal a fresh evaluation of the
  /// configuration and of the FF states, pad inputs and memory read latches.
  /// Every mutator of those unsettles the device; memory contents do not.
  void settle();
  /// One positive clock edge: settle if needed, sample, commit, then one
  /// evaluation of the network. Ends settled, so a run of steps costs one
  /// evaluation per cycle.
  void step();
  std::uint64_t cycle() const { return cycle_; }
  /// Network evaluations so far (one per settling settle(), one per step()).
  std::uint64_t settles() const { return settles_; }

  bool ffState(CbCoord cb) const { return ffState_[cbIndex(cb)] != 0; }
  /// Raw memory-block word as currently stored (row-major at given width).
  std::uint64_t bramWord(unsigned block, unsigned width, std::size_t row) const;

  DeviceState captureState() const;
  /// Load `s` with one network evaluation. A non-empty `packed` row (see
  /// appendPackedState) then overrides the compiled flip-flops, their
  /// previous D values and the memory read latches; it must have been packed
  /// under the current configuration, which fixes the compiled order.
  void restoreState(const DeviceState& s,
                    std::span<const std::uint64_t> packed = {});

  /// Append the compiled run state as 64-bit words, low bit first: the
  /// compiled flip-flop states and the used memory blocks' read latches,
  /// padded to a word, then the flip-flops' previous D values, padded again.
  void appendPackedState(std::vector<std::uint64_t>& out);
  /// Whether the compiled flip-flop states and read latches equal the first
  /// part of a row appendPackedState packed under this configuration.
  bool packedStateMatches(std::span<const std::uint64_t> packed);

  // --- timing ------------------------------------------------------------------
  void setTimingEnabled(bool on);
  bool timingEnabled() const { return timingEnabled_; }
  const TimingReport& timingReport();

  void setShortPolicy(ShortPolicy p) {
    shortPolicy_ = p;
    topoDirty_ = true;
    settled_ = false;
  }

  // --- introspection (tests / diagnostics) ----------------------------------
  unsigned usedLutCount();
  unsigned usedFfCount();
  /// Net-level wire delay (ns) from the driver of the component containing
  /// `sinkNode` to that sink; 0 if unrouted. Requires timing mode.
  double sinkDelayNs(std::uint32_t sinkNode);

 private:
  // ----- compiled model ------------------------------------------------------
  /// cbIdx of a gate entry: a two-input AND/OR (table 0x8888/0xEEEE) that a
  /// wired join of a shorted net lowers to. It has no CB and no delay.
  static constexpr std::uint32_t kNoCb = ~std::uint32_t{0};
  struct LutEntry {
    std::uint16_t table = 0;
    std::uint32_t in[4] = {0, 0, 0, 0};  // value indices
    std::uint32_t cbIdx = 0;             // or kNoCb
    std::uint32_t val = 0;  // output value index
  };
  struct FfEntry {
    std::uint32_t cbIdx = 0;
    std::uint32_t val = 0;        // output value index
    std::uint32_t lutVal = 0;     // value index of own-CB LUT output (or 0)
    std::uint32_t bypSrc = 0;     // value index feeding BYP pin
    bool hasLut = false;
    bool fromByp = false;  // FFIN_SRC
    bool invByp = false;
    bool srMode = false;
    bool lsrForced = false;
    bool late = false;  // timing: data arrival exceeds the clock period
  };
  struct BramEntry {
    unsigned block = 0;
    unsigned width = 1;
    unsigned addrBits = 0;
    std::uint32_t addrSrc[DeviceSpec::kBramAddrPins] = {};
    std::uint32_t dinSrc[DeviceSpec::kBramDataPins] = {};
    std::uint32_t weSrc = 0;
    std::uint32_t doutValBase = 0;  // width consecutive value indices
  };
  struct BramOp {  // one block's edge, sampled before any commit
    std::uint32_t read = 0;
    bool write = false;
    std::size_t row = 0;
    std::uint32_t wval = 0;
  };
  struct Compiled {
    std::vector<LutEntry> luts;  // the evaluation array, topological order
    std::vector<FfEntry> ffs;
    std::vector<BramEntry> brams;
    std::vector<std::uint32_t> padInVal;   // per pad: value index or 0
    std::vector<std::uint32_t> padOutSrc;  // per output pad: source value index
    std::uint32_t valueCount = 1;          // index 0 = constant 0
  };

  std::uint32_t cbIndex(CbCoord cb) const {
    return static_cast<std::uint32_t>(cb.x) * spec_.rows + cb.y;
  }
  CbCoord cbFromIndex(std::uint32_t idx) const {
    return CbCoord{static_cast<std::uint16_t>(idx / spec_.rows),
                   static_cast<std::uint16_t>(idx % spec_.rows)};
  }

  void ensureCompiled();
  /// Connectivity + compiled model. Unites the download's transistor edges
  /// whose bit is still set, merged in bit-address order with the toggled
  /// bits set now (only those are decoded): the same edges_ and unite()
  /// sequence as a walk of the whole plane. Resets parent_ and compSource_
  /// only where the previous rebuild wrote them, even one that threw.
  void rebuildTopology();
  void refreshMisc();       // mux fields only
  void refreshLutTables();  // LUT contents only
  void computeTiming();
  void refreshLevel0();
  void runSteps();
  void noteBramWrite(std::size_t addr);
  /// Calls put(word) for each word of appendPackedState's layout, the
  /// previous D values only when `withPrevD`; stops when put returns false.
  template <typename Put>
  bool forEachPackedWord(bool withPrevD, Put&& put) const;

  std::uint32_t find(std::uint32_t node) const;  // union-find lookup
  void unite(std::uint32_t a, std::uint32_t b);
  std::uint32_t sourceOfComponent(std::uint32_t pinNode);

  bool cbField(CbCoord cb, CbField f) const {
    return logicCfg_.get(layout_.cbFieldBit(cb, f));
  }

  DeviceSpec spec_;
  ConfigLayout layout_;
  RoutingNodes nodes_;

  common::BitVector logicCfg_;
  common::BitVector bramCfg_;
  bool downloaded_ = false;
  /// Logic-plane bits toggled an odd number of times since the last download
  /// or, before any, since construction (the empty plane).
  std::unordered_set<std::size_t> toggledBits_;
  /// The set transistor bits of the last download, in plane order, with the
  /// nodes each joins; empty before any download.
  struct RefEdge {
    std::size_t bit = 0;
    std::uint32_t nodeA = 0;
    std::uint32_t nodeB = 0;
  };
  std::vector<RefEdge> refEdges_;
  std::uint64_t decodedBits_ = 0;
  std::vector<std::uint32_t> changedBramWords_;
  std::vector<std::uint8_t> bramWordChanged_;  // per word: in the list above

  // dynamic state
  std::vector<std::uint8_t> ffState_;       // per CB
  std::vector<std::uint32_t> bramLatch_;    // per block (read port register)
  std::vector<std::uint8_t> padInput_;      // per pad
  std::uint64_t cycle_ = 0;

  // compiled model + dirtiness
  Compiled compiled_;
  std::vector<std::uint8_t> values_;
  // Per compiled FF entry: D sampled at the last edge, which a late FF
  // captures at the next one. Keyed by CB only in captureState(),
  // restoreState() and rebuildTopology(), so step() stays index-based.
  std::vector<std::uint8_t> prevD_;
  // step() scratch: D sampled at this edge (swapped into prevD_) and the
  // memory-block operations.
  std::vector<std::uint8_t> nextD_;
  std::vector<BramOp> bramOps_;
  bool settled_ = false;  // values_ is a fresh evaluation (see settle())
  std::uint64_t settles_ = 0;
  bool topoDirty_ = true;
  bool miscDirty_ = false;
  bool lutDirty_ = false;
  bool timingDirty_ = true;
  bool timingEnabled_ = false;
  ShortPolicy shortPolicy_ = ShortPolicy::Error;
  TimingReport timingReport_;

  // connectivity scratch (valid after rebuildTopology). Only edges_
  // endpoints leave the identity in parent_, and compSource_ is non-zero
  // only at sourcedRoots_.
  mutable std::vector<std::uint32_t> parent_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::vector<std::uint32_t> compSource_;  // component root -> value index
  std::vector<std::uint32_t> sourcedRoots_;
  std::vector<double> sinkDelay_;          // per node, ns (timing mode)
};

}  // namespace fades::fpga
