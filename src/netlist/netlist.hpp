// Gate-level netlist intermediate representation.
//
// This is the single source of truth for the system under test: the same
// netlist is (a) simulated directly by the event-driven simulator that the
// VFIT baseline drives, and (b) synthesized (LUT-mapped, placed, routed) onto
// the generic FPGA that FADES reconfigures at run time. Keeping one IR for
// both paths is what makes the paper's side-by-side validation experiment
// (Section 6) meaningful: both tools inject faults into the *same* model.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"

namespace fades::netlist {

/// Strongly-typed handles. A default-constructed id is invalid.
struct NetId {
  std::uint32_t value = kInvalid;
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  bool valid() const { return value != kInvalid; }
  friend bool operator==(NetId, NetId) = default;
};

struct GateId {
  std::uint32_t value = 0xffffffffu;
  bool valid() const { return value != 0xffffffffu; }
  friend bool operator==(GateId, GateId) = default;
};

struct FlopId {
  std::uint32_t value = 0xffffffffu;
  bool valid() const { return value != 0xffffffffu; }
  friend bool operator==(FlopId, FlopId) = default;
};

struct RamId {
  std::uint32_t value = 0xffffffffu;
  bool valid() const { return value != 0xffffffffu; }
  friend bool operator==(RamId, RamId) = default;
};

enum class GateOp : std::uint8_t {
  Const0,
  Const1,
  Buf,
  Not,
  And,
  Or,
  Xor,
  Nand,
  Nor,
  Xnor,
  Mux,  // in[2] ? in[1] : in[0]
};

unsigned arity(GateOp op);
const char* toString(GateOp op);

/// Evaluate a gate function on already-resolved input bits.
bool evalGate(GateOp op, bool a, bool b, bool c);

/// Functional unit a circuit element belongs to. Mirrors the fault-location
/// granularity of the paper's experiments: registers, RAM memory, the ALU,
/// the memory-control unit and the FSM/control unit.
enum class Unit : std::uint8_t {
  None,
  Registers,
  Ram,
  Alu,
  MemCtrl,
  Fsm,
};

const char* toString(Unit unit);

struct Gate {
  GateOp op = GateOp::Buf;
  std::array<NetId, 3> in{};
  NetId out{};
  Unit unit = Unit::None;
};

/// Positive-edge D flip-flop in the single implicit clock domain. `init` is
/// the power-on / reset value (maps onto the FPGA's set/reset mux choice).
struct Flop {
  NetId d{};
  NetId q{};
  bool init = false;
  Unit unit = Unit::None;
  std::string name;  // HDL-level name, e.g. "acc[3]"; used for fault location
};

/// Synchronous-read, synchronous-write memory (models an embedded memory
/// block). `dataOut` is registered: a read of address A presented in cycle t
/// appears on dataOut in cycle t+1. Write-enable gated writes happen on the
/// clock edge; read-during-write returns the OLD value (read-first port).
struct Ram {
  std::vector<NetId> addr;     // LSB first
  std::vector<NetId> dataIn;   // empty for ROM
  std::vector<NetId> dataOut;  // LSB first
  NetId writeEnable{};         // invalid for ROM
  unsigned addrBits = 0;
  unsigned dataBits = 0;
  std::vector<std::uint8_t> init;  // 2^addrBits entries of dataBits (byte/entry rows)
  Unit unit = Unit::None;
  std::string name;

  bool isRom() const { return !writeEnable.valid(); }
  std::size_t depth() const { return std::size_t{1} << addrBits; }
  /// Initial contents of `addr` entry (init stores one value per row packed
  /// little-endian in ceil(dataBits/8) bytes).
  std::uint64_t initWord(std::size_t row) const;
  void setInitWord(std::size_t row, std::uint64_t value);
};

struct Port {
  std::string name;
  std::vector<NetId> nets;  // LSB first
  bool isInput = false;
};

struct NetlistStats {
  std::size_t nets = 0;
  std::size_t gates = 0;
  std::size_t flops = 0;
  std::size_t rams = 0;
  std::size_t ramBits = 0;
  std::size_t inputBits = 0;
  std::size_t outputBits = 0;
  std::unordered_map<Unit, std::size_t> gatesPerUnit;
  std::unordered_map<Unit, std::size_t> flopsPerUnit;
};

/// The netlist container. Nets are single-bit. Construction is append-only;
/// `validate()` checks global well-formedness before the netlist is used.
class Netlist {
 public:
  NetId addNet(std::string name = {});
  GateId addGate(GateOp op, NetId a, NetId b = {}, NetId c = {},
                 Unit unit = Unit::None, NetId out = {});
  FlopId addFlop(NetId d, bool init, Unit unit, std::string name,
                 NetId q = {});
  RamId addRam(unsigned addrBits, unsigned dataBits,
               const std::vector<NetId>& addr,
               const std::vector<NetId>& dataIn, NetId writeEnable,
               std::vector<std::uint8_t> init, Unit unit, std::string name);

  void addInputPort(std::string name, std::vector<NetId> nets);
  void addOutputPort(std::string name, std::vector<NetId> nets);

  std::size_t netCount() const { return netNames_.size(); }
  std::size_t gateCount() const { return gates_.size(); }
  std::size_t flopCount() const { return flops_.size(); }
  std::size_t ramCount() const { return rams_.size(); }

  const Gate& gate(GateId id) const { return gates_[id.value]; }
  const Flop& flop(FlopId id) const { return flops_[id.value]; }
  const Ram& ram(RamId id) const { return rams_[id.value]; }
  Ram& ram(RamId id) { return rams_[id.value]; }

  const std::vector<Gate>& gates() const { return gates_; }
  const std::vector<Flop>& flops() const { return flops_; }
  const std::vector<Ram>& rams() const { return rams_; }
  const std::vector<Port>& inputs() const { return inputs_; }
  const std::vector<Port>& outputs() const { return outputs_; }

  const std::string& netName(NetId id) const { return netNames_[id.value]; }
  void setNetName(NetId id, std::string name) {
    netNames_[id.value] = std::move(name);
  }
  /// First net with the given (non-empty) name, if any.
  std::optional<NetId> findNet(const std::string& name) const;
  std::optional<FlopId> findFlop(const std::string& name) const;
  const Port* findInput(const std::string& name) const;
  const Port* findOutput(const std::string& name) const;

  // --- consumer rewiring (instrumentation support) -------------------------
  // Redirect what an element READS; drivers are untouched, so the netlist
  // stays well-formed. Used by saboteur instrumentation (synth/instrument).
  void replaceGateInput(GateId id, unsigned pin, NetId newNet);
  void replaceFlopInput(FlopId id, NetId newNet);
  void replaceRamInput(RamId id, NetId oldNet, NetId newNet);
  void replaceOutputPortNet(std::size_t port, unsigned bit, NetId newNet);

  /// Driver bookkeeping: which element drives each net.
  enum class DriverKind : std::uint8_t { None, Gate, Flop, Ram, Input };
  struct Driver {
    DriverKind kind = DriverKind::None;
    std::uint32_t index = 0;  // gate/flop/ram/port index
  };
  Driver driverOf(NetId id) const { return drivers_[id.value]; }

  /// Checks: every net driven exactly once, all referenced nets exist,
  /// combinational logic is acyclic. Throws FadesError on violation.
  void validate() const;

  /// Topological order of gate ids (inputs/flops/rams are sources): every
  /// gate comes after the gates driving its inputs. Techmap emits LUTs in
  /// this order and the compiled simulator evaluates it as its kernel.
  /// Requires every gate input to reference an existing net; throws a
  /// NetlistError naming the nets on one cycle if the combinational logic
  /// is cyclic.
  std::vector<GateId> topoOrder() const;

  NetlistStats stats() const;

 private:
  void setDriver(NetId net, DriverKind kind, std::uint32_t index);
  /// Raise topoOrder()'s cycle error from the in-degrees Kahn left over.
  [[noreturn]] void raiseCycle(
      const std::vector<std::uint32_t>& indegree) const;

  std::vector<std::string> netNames_;
  std::vector<Driver> drivers_;
  std::vector<Gate> gates_;
  std::vector<Flop> flops_;
  std::vector<Ram> rams_;
  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
};

/// The gates reading each net, in compressed-sparse-row form: the readers
/// of net n are `gates[offsets[n] .. offsets[n + 1])`, one entry per input
/// pin, in (gate index, pin) order.
struct Fanout {
  std::vector<std::uint32_t> offsets;  // netCount() + 1 entries
  std::vector<std::uint32_t> gates;

  std::span<const std::uint32_t> readers(NetId net) const {
    return {gates.data() + offsets[net.value],
            gates.data() + offsets[net.value + 1]};
  }
};

/// Build `nl`'s fanout index. Every gate input must reference an existing
/// net (validate() checks this).
Fanout buildFanout(const Netlist& nl);

}  // namespace fades::netlist

template <>
struct std::hash<fades::netlist::NetId> {
  std::size_t operator()(fades::netlist::NetId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};
