// RTL construction kit.
//
// A thin hardware-construction layer over the netlist IR: buses, registers
// with deferred feedback, adders, comparators, muxes and decoders. The 8051
// microcontroller model (src/mc8051) is written entirely against this API,
// which plays the role the VHDL source plays in the paper - the description
// that is both simulated (VFIT path) and synthesized onto the FPGA (FADES
// path).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace fades::rtl {

using netlist::GateOp;
using netlist::NetId;
using netlist::Netlist;
using netlist::Unit;

/// A bus is an ordered list of nets, LSB first.
using Bus = std::vector<NetId>;

/// A register created before its D input is known (so state machines can
/// reference their own outputs). Call Builder::connect() exactly once.
struct Register {
  Bus q;        // flip-flop outputs
  Bus dStub;    // placeholder nets to be driven via Builder::connect
  bool connected = false;
};

class Builder {
 public:
  explicit Builder(std::string topName = "top") : topName_(std::move(topName)) {}

  /// Scoped unit tagging: every gate/flop/ram created while a unit is set is
  /// attributed to that functional unit (fault-location granularity).
  void setUnit(Unit unit) { unit_ = unit; }
  Unit unit() const { return unit_; }

  /// Name the (still unnamed) nets of a bus: they become HDL-visible
  /// signals, e.g. targets for simulator-command fault injection.
  void nameBus(const std::string& name, const Bus& bus);

  // --- ports -------------------------------------------------------------
  Bus input(const std::string& name, unsigned width);
  NetId inputBit(const std::string& name);
  void output(const std::string& name, const Bus& value);
  void output(const std::string& name, NetId value);

  // --- constants ---------------------------------------------------------
  NetId zero();
  NetId one();
  NetId bit(bool value) { return value ? one() : zero(); }
  Bus constant(std::uint64_t value, unsigned width);

  // --- single-bit logic --------------------------------------------------
  NetId land(NetId a, NetId b);
  NetId lor(NetId a, NetId b);
  NetId lxor(NetId a, NetId b);
  NetId lnot(NetId a);
  NetId lxnor(NetId a, NetId b);
  NetId lmux(NetId sel, NetId whenTrue, NetId whenFalse);
  NetId andAll(const Bus& bits);
  NetId orAll(const Bus& bits);

  // --- bus logic ---------------------------------------------------------
  Bus bAnd(const Bus& a, const Bus& b);
  Bus bOr(const Bus& a, const Bus& b);
  Bus bXor(const Bus& a, const Bus& b);
  Bus bNot(const Bus& a);
  Bus bMux(NetId sel, const Bus& whenTrue, const Bus& whenFalse);

  /// Priority selector: returns cases[k].second for the first true
  /// cases[k].first, else defaultValue. All buses must share a width.
  Bus select(const Bus& defaultValue,
             const std::vector<std::pair<NetId, Bus>>& cases);
  NetId selectBit(NetId defaultValue,
                  const std::vector<std::pair<NetId, NetId>>& cases);

  // --- arithmetic (ripple-carry; widths must match) -----------------------
  struct AddResult {
    Bus sum;
    NetId carryOut;
    NetId auxCarry;  // carry out of bit 3 (8051 AC flag); valid when w >= 4
    NetId overflow;  // signed overflow (carry into MSB xor carry out)
  };
  AddResult add(const Bus& a, const Bus& b, NetId carryIn);
  /// a - b - borrowIn. carryOut is the BORROW flag (1 = borrow occurred),
  /// matching the 8051 SUBB convention.
  AddResult sub(const Bus& a, const Bus& b, NetId borrowIn);
  Bus increment(const Bus& a);
  Bus decrement(const Bus& a);

  // --- comparison ---------------------------------------------------------
  NetId eq(const Bus& a, const Bus& b);
  NetId eqConst(const Bus& a, std::uint64_t value);
  NetId isZero(const Bus& a);

  // --- shifts / rotates / structure ---------------------------------------
  Bus rotateLeft1(const Bus& a);
  Bus rotateRight1(const Bus& a);
  Bus slice(const Bus& a, unsigned lo, unsigned width) const;
  Bus concat(const Bus& low, const Bus& high) const;
  Bus zeroExtend(const Bus& a, unsigned width);

  /// One-hot decoder: out[i] = (a == i), for 2^width(a) outputs.
  Bus decodeOneHot(const Bus& a);

  // --- state --------------------------------------------------------------
  /// Register whose D input is supplied later via connect(). Bit i is named
  /// "<name>[i]" (or just "<name>" when width == 1) for fault location.
  Register makeRegister(const std::string& name, unsigned width,
                        std::uint64_t init = 0);
  void connect(Register& reg, const Bus& d);
  /// Register with input-enable: keeps its value when enable is low.
  /// Built on makeRegister/connect.
  Bus registered(const std::string& name, const Bus& d, std::uint64_t init = 0);

  /// Synchronous-read RAM / ROM mapped to an FPGA memory block.
  Bus ram(const std::string& name, unsigned addrBits, unsigned dataBits,
          const Bus& addr, const Bus& dataIn, NetId writeEnable,
          std::vector<std::uint8_t> init = {});
  Bus rom(const std::string& name, unsigned addrBits, unsigned dataBits,
          const Bus& addr, std::vector<std::uint8_t> init);

  // --- finalisation --------------------------------------------------------
  /// Validates and yields the netlist. The builder must not be reused.
  Netlist finish();

  Netlist& netlist() { return nl_; }
  const Netlist& netlist() const { return nl_; }

 private:
  void checkWidths(const Bus& a, const Bus& b, const char* what) const;

  std::string topName_;
  Netlist nl_;
  Unit unit_ = Unit::None;
  NetId zero_{};
  NetId one_{};
  std::vector<Register*> pending_;  // diagnostics only; not owned
};

/// Little-endian value helpers used by tests and reference models.
std::uint64_t busValue(const Bus& bus, const std::vector<bool>& netValues);

}  // namespace fades::rtl
