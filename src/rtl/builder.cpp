#include "rtl/builder.hpp"

#include <cassert>

#include "common/error.hpp"

namespace fades::rtl {

using common::ErrorKind;
using common::require;

void Builder::nameBus(const std::string& name, const Bus& bus) {
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (nl_.netName(bus[i]).empty()) {
      nl_.setNetName(bus[i],
                     bus.size() == 1
                         ? name
                         : name + "[" + std::to_string(i) + "]");
    }
  }
}

Bus Builder::input(const std::string& name, unsigned width) {
  Bus bus;
  bus.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    bus.push_back(nl_.addNet(width == 1 ? name
                                        : name + "[" + std::to_string(i) + "]"));
  }
  nl_.addInputPort(name, bus);
  return bus;
}

NetId Builder::inputBit(const std::string& name) { return input(name, 1)[0]; }

void Builder::output(const std::string& name, const Bus& value) {
  // Give anonymous driven nets the port's name: they are now HDL-visible
  // signals (e.g. fault-injection targets for simulator-command tools).
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (nl_.netName(value[i]).empty()) {
      nl_.setNetName(value[i],
                     value.size() == 1
                         ? name
                         : name + "[" + std::to_string(i) + "]");
    }
  }
  nl_.addOutputPort(name, value);
}

void Builder::output(const std::string& name, NetId value) {
  nl_.addOutputPort(name, Bus{value});
}

NetId Builder::zero() {
  if (!zero_.valid()) {
    zero_ = nl_.addNet("const0");
    nl_.addGate(GateOp::Const0, {}, {}, {}, Unit::None, zero_);
  }
  return zero_;
}

NetId Builder::one() {
  if (!one_.valid()) {
    one_ = nl_.addNet("const1");
    nl_.addGate(GateOp::Const1, {}, {}, {}, Unit::None, one_);
  }
  return one_;
}

Bus Builder::constant(std::uint64_t value, unsigned width) {
  Bus bus;
  bus.reserve(width);
  for (unsigned i = 0; i < width; ++i) bus.push_back(bit((value >> i) & 1));
  return bus;
}

NetId Builder::land(NetId a, NetId b) {
  NetId out = nl_.addNet();
  nl_.addGate(GateOp::And, a, b, {}, unit_, out);
  return out;
}
NetId Builder::lor(NetId a, NetId b) {
  NetId out = nl_.addNet();
  nl_.addGate(GateOp::Or, a, b, {}, unit_, out);
  return out;
}
NetId Builder::lxor(NetId a, NetId b) {
  NetId out = nl_.addNet();
  nl_.addGate(GateOp::Xor, a, b, {}, unit_, out);
  return out;
}
NetId Builder::lnot(NetId a) {
  NetId out = nl_.addNet();
  nl_.addGate(GateOp::Not, a, {}, {}, unit_, out);
  return out;
}
NetId Builder::lxnor(NetId a, NetId b) {
  NetId out = nl_.addNet();
  nl_.addGate(GateOp::Xnor, a, b, {}, unit_, out);
  return out;
}
NetId Builder::lmux(NetId sel, NetId whenTrue, NetId whenFalse) {
  NetId out = nl_.addNet();
  nl_.addGate(GateOp::Mux, whenFalse, whenTrue, sel, unit_, out);
  return out;
}

NetId Builder::andAll(const Bus& bits) {
  require(!bits.empty(), ErrorKind::InvalidArgument, "andAll on empty bus");
  NetId acc = bits[0];
  for (std::size_t i = 1; i < bits.size(); ++i) acc = land(acc, bits[i]);
  return acc;
}

NetId Builder::orAll(const Bus& bits) {
  require(!bits.empty(), ErrorKind::InvalidArgument, "orAll on empty bus");
  NetId acc = bits[0];
  for (std::size_t i = 1; i < bits.size(); ++i) acc = lor(acc, bits[i]);
  return acc;
}

void Builder::checkWidths(const Bus& a, const Bus& b, const char* what) const {
  require(a.size() == b.size(), ErrorKind::InvalidArgument,
          std::string("bus width mismatch in ") + what);
}

Bus Builder::bAnd(const Bus& a, const Bus& b) {
  checkWidths(a, b, "bAnd");
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(land(a[i], b[i]));
  return out;
}
Bus Builder::bOr(const Bus& a, const Bus& b) {
  checkWidths(a, b, "bOr");
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(lor(a[i], b[i]));
  return out;
}
Bus Builder::bXor(const Bus& a, const Bus& b) {
  checkWidths(a, b, "bXor");
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(lxor(a[i], b[i]));
  return out;
}
Bus Builder::bNot(const Bus& a) {
  Bus out;
  out.reserve(a.size());
  for (NetId n : a) out.push_back(lnot(n));
  return out;
}
Bus Builder::bMux(NetId sel, const Bus& whenTrue, const Bus& whenFalse) {
  checkWidths(whenTrue, whenFalse, "bMux");
  Bus out;
  out.reserve(whenTrue.size());
  for (std::size_t i = 0; i < whenTrue.size(); ++i) {
    out.push_back(lmux(sel, whenTrue[i], whenFalse[i]));
  }
  return out;
}

Bus Builder::select(const Bus& defaultValue,
                    const std::vector<std::pair<NetId, Bus>>& cases) {
  Bus acc = defaultValue;
  // Build from lowest priority upward so the first case wins.
  for (auto it = cases.rbegin(); it != cases.rend(); ++it) {
    acc = bMux(it->first, it->second, acc);
  }
  return acc;
}

NetId Builder::selectBit(NetId defaultValue,
                         const std::vector<std::pair<NetId, NetId>>& cases) {
  NetId acc = defaultValue;
  for (auto it = cases.rbegin(); it != cases.rend(); ++it) {
    acc = lmux(it->first, it->second, acc);
  }
  return acc;
}

Builder::AddResult Builder::add(const Bus& a, const Bus& b, NetId carryIn) {
  checkWidths(a, b, "add");
  require(!a.empty(), ErrorKind::InvalidArgument, "add on empty bus");
  AddResult r;
  r.sum.reserve(a.size());
  NetId carry = carryIn.valid() ? carryIn : zero();
  NetId carryIntoMsb = carry;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NetId axb = lxor(a[i], b[i]);
    r.sum.push_back(lxor(axb, carry));
    // carry-out = (a & b) | (carry & (a ^ b))
    carryIntoMsb = carry;
    carry = lor(land(a[i], b[i]), land(carry, axb));
    if (i == 3) r.auxCarry = carry;
  }
  r.carryOut = carry;
  if (!r.auxCarry.valid()) r.auxCarry = zero();
  r.overflow = lxor(carryIntoMsb, carry);
  return r;
}

Builder::AddResult Builder::sub(const Bus& a, const Bus& b, NetId borrowIn) {
  // a - b - borrow == a + ~b + (1 - borrow); carry out of that addition is
  // the complement of the borrow.
  NetId cin = borrowIn.valid() ? lnot(borrowIn) : one();
  AddResult r = add(a, bNot(b), cin);
  r.carryOut = lnot(r.carryOut);  // borrow flag
  r.auxCarry = lnot(r.auxCarry);  // aux borrow (8051 AC on subtraction)
  return r;
}

Bus Builder::increment(const Bus& a) {
  return add(a, constant(0, static_cast<unsigned>(a.size())), one()).sum;
}

Bus Builder::decrement(const Bus& a) {
  // a - 1 = a + all-ones.
  return add(a, constant(~0ULL, static_cast<unsigned>(a.size())), {}).sum;
}

NetId Builder::eq(const Bus& a, const Bus& b) {
  checkWidths(a, b, "eq");
  Bus eqBits;
  eqBits.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    eqBits.push_back(lxnor(a[i], b[i]));
  }
  return andAll(eqBits);
}

NetId Builder::eqConst(const Bus& a, std::uint64_t value) {
  Bus bits;
  bits.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    bits.push_back(((value >> i) & 1) ? a[i] : lnot(a[i]));
  }
  return andAll(bits);
}

NetId Builder::isZero(const Bus& a) { return lnot(orAll(a)); }

Bus Builder::rotateLeft1(const Bus& a) {
  Bus out;
  out.reserve(a.size());
  out.push_back(a.back());
  for (std::size_t i = 0; i + 1 < a.size(); ++i) out.push_back(a[i]);
  return out;
}

Bus Builder::rotateRight1(const Bus& a) {
  Bus out;
  out.reserve(a.size());
  for (std::size_t i = 1; i < a.size(); ++i) out.push_back(a[i]);
  out.push_back(a.front());
  return out;
}

Bus Builder::slice(const Bus& a, unsigned lo, unsigned width) const {
  require(lo + width <= a.size(), ErrorKind::InvalidArgument,
          "slice out of range");
  return Bus(a.begin() + lo, a.begin() + lo + width);
}

Bus Builder::concat(const Bus& low, const Bus& high) const {
  Bus out = low;
  out.insert(out.end(), high.begin(), high.end());
  return out;
}

Bus Builder::zeroExtend(const Bus& a, unsigned width) {
  require(width >= a.size(), ErrorKind::InvalidArgument,
          "zeroExtend narrows bus");
  Bus out = a;
  while (out.size() < width) out.push_back(zero());
  return out;
}

Bus Builder::decodeOneHot(const Bus& a) {
  const std::size_t n = std::size_t{1} << a.size();
  Bus out;
  out.reserve(n);
  for (std::size_t v = 0; v < n; ++v) out.push_back(eqConst(a, v));
  return out;
}

Register Builder::makeRegister(const std::string& name, unsigned width,
                               std::uint64_t init) {
  Register reg;
  reg.q.reserve(width);
  reg.dStub.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    const std::string bitName =
        width == 1 ? name : name + "[" + std::to_string(i) + "]";
    const NetId d = nl_.addNet(bitName + ".d");
    reg.dStub.push_back(d);
    const NetId q = nl_.addNet(bitName);
    nl_.addFlop(d, (init >> i) & 1, unit_, bitName, q);
    reg.q.push_back(q);
  }
  return reg;
}

void Builder::connect(Register& reg, const Bus& d) {
  require(!reg.connected, ErrorKind::InvalidArgument,
          "register connected twice");
  checkWidths(reg.dStub, d, "connect");
  for (std::size_t i = 0; i < d.size(); ++i) {
    // Drive the placeholder with a buffer; synthesis absorbs it.
    nl_.addGate(GateOp::Buf, d[i], {}, {}, unit_, reg.dStub[i]);
  }
  reg.connected = true;
}

Bus Builder::registered(const std::string& name, const Bus& d,
                        std::uint64_t init) {
  Register reg = makeRegister(name, static_cast<unsigned>(d.size()), init);
  connect(reg, d);
  return reg.q;
}

Bus Builder::ram(const std::string& name, unsigned addrBits, unsigned dataBits,
                 const Bus& addr, const Bus& dataIn, NetId writeEnable,
                 std::vector<std::uint8_t> init) {
  const auto id = nl_.addRam(addrBits, dataBits, addr, dataIn, writeEnable,
                             std::move(init), unit_, name);
  return nl_.ram(id).dataOut;
}

Bus Builder::rom(const std::string& name, unsigned addrBits, unsigned dataBits,
                 const Bus& addr, std::vector<std::uint8_t> init) {
  const auto id = nl_.addRam(addrBits, dataBits, addr, {}, NetId{},
                             std::move(init), unit_, name);
  return nl_.ram(id).dataOut;
}

Netlist Builder::finish() {
  nl_.validate();
  return std::move(nl_);
}

std::uint64_t busValue(const Bus& bus, const std::vector<bool>& netValues) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    if (netValues[bus[i].value]) v |= 1ULL << i;
  }
  return v;
}

}  // namespace fades::rtl
