#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>

namespace fades::netlist {

using common::ErrorKind;
using common::raise;
using common::require;

unsigned arity(GateOp op) {
  switch (op) {
    case GateOp::Const0:
    case GateOp::Const1:
      return 0;
    case GateOp::Buf:
    case GateOp::Not:
      return 1;
    case GateOp::And:
    case GateOp::Or:
    case GateOp::Xor:
    case GateOp::Nand:
    case GateOp::Nor:
    case GateOp::Xnor:
      return 2;
    case GateOp::Mux:
      return 3;
  }
  return 0;
}

const char* toString(GateOp op) {
  switch (op) {
    case GateOp::Const0: return "const0";
    case GateOp::Const1: return "const1";
    case GateOp::Buf: return "buf";
    case GateOp::Not: return "not";
    case GateOp::And: return "and";
    case GateOp::Or: return "or";
    case GateOp::Xor: return "xor";
    case GateOp::Nand: return "nand";
    case GateOp::Nor: return "nor";
    case GateOp::Xnor: return "xnor";
    case GateOp::Mux: return "mux";
  }
  return "?";
}

bool evalGate(GateOp op, bool a, bool b, bool c) {
  switch (op) {
    case GateOp::Const0: return false;
    case GateOp::Const1: return true;
    case GateOp::Buf: return a;
    case GateOp::Not: return !a;
    case GateOp::And: return a && b;
    case GateOp::Or: return a || b;
    case GateOp::Xor: return a != b;
    case GateOp::Nand: return !(a && b);
    case GateOp::Nor: return !(a || b);
    case GateOp::Xnor: return a == b;
    case GateOp::Mux: return c ? b : a;
  }
  return false;
}

const char* toString(Unit unit) {
  switch (unit) {
    case Unit::None: return "none";
    case Unit::Registers: return "registers";
    case Unit::Ram: return "ram";
    case Unit::Alu: return "alu";
    case Unit::MemCtrl: return "memctrl";
    case Unit::Fsm: return "fsm";
  }
  return "?";
}

std::uint64_t Ram::initWord(std::size_t row) const {
  const std::size_t bytesPerRow = (dataBits + 7) / 8;
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < bytesPerRow; ++b) {
    v |= static_cast<std::uint64_t>(init[row * bytesPerRow + b]) << (8 * b);
  }
  return v & (dataBits >= 64 ? ~0ULL : ((1ULL << dataBits) - 1));
}

void Ram::setInitWord(std::size_t row, std::uint64_t value) {
  const std::size_t bytesPerRow = (dataBits + 7) / 8;
  for (std::size_t b = 0; b < bytesPerRow; ++b) {
    init[row * bytesPerRow + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

NetId Netlist::addNet(std::string name) {
  const NetId id{static_cast<std::uint32_t>(netNames_.size())};
  netNames_.push_back(std::move(name));
  drivers_.push_back({});
  return id;
}

void Netlist::setDriver(NetId net, DriverKind kind, std::uint32_t index) {
  require(net.valid() && net.value < drivers_.size(),
          ErrorKind::NetlistError, "driver assigned to invalid net");
  require(drivers_[net.value].kind == DriverKind::None,
          ErrorKind::NetlistError,
          "net '" + netNames_[net.value] + "' has multiple drivers");
  drivers_[net.value] = {kind, index};
}

GateId Netlist::addGate(GateOp op, NetId a, NetId b, NetId c, Unit unit,
                        NetId out) {
  const unsigned n = arity(op);
  require(n < 1 || a.valid(), ErrorKind::NetlistError, "gate missing input a");
  require(n < 2 || b.valid(), ErrorKind::NetlistError, "gate missing input b");
  require(n < 3 || c.valid(), ErrorKind::NetlistError, "gate missing input c");
  if (!out.valid()) out = addNet();
  const GateId id{static_cast<std::uint32_t>(gates_.size())};
  gates_.push_back(Gate{op, {a, b, c}, out, unit});
  setDriver(out, DriverKind::Gate, id.value);
  return id;
}

FlopId Netlist::addFlop(NetId d, bool init, Unit unit, std::string name,
                        NetId q) {
  require(d.valid(), ErrorKind::NetlistError, "flop missing D input");
  if (!q.valid()) q = addNet(name);
  const FlopId id{static_cast<std::uint32_t>(flops_.size())};
  flops_.push_back(Flop{d, q, init, unit, std::move(name)});
  setDriver(q, DriverKind::Flop, id.value);
  return id;
}

RamId Netlist::addRam(unsigned addrBits, unsigned dataBits,
                      const std::vector<NetId>& addr,
                      const std::vector<NetId>& dataIn, NetId writeEnable,
                      std::vector<std::uint8_t> init, Unit unit,
                      std::string name) {
  require(addrBits > 0 && addrBits <= 20, ErrorKind::NetlistError,
          "ram addrBits out of range");
  require(dataBits > 0 && dataBits <= 64, ErrorKind::NetlistError,
          "ram dataBits out of range");
  require(addr.size() == addrBits, ErrorKind::NetlistError,
          "ram address bus width mismatch");
  const bool isRom = !writeEnable.valid();
  require(isRom ? dataIn.empty() : dataIn.size() == dataBits,
          ErrorKind::NetlistError, "ram data-in bus width mismatch");
  const std::size_t bytesPerRow = (dataBits + 7) / 8;
  const std::size_t rows = std::size_t{1} << addrBits;
  if (init.empty()) init.resize(rows * bytesPerRow, 0);
  require(init.size() == rows * bytesPerRow, ErrorKind::NetlistError,
          "ram init size mismatch");

  Ram ram;
  ram.addr = addr;
  ram.dataIn = dataIn;
  ram.writeEnable = writeEnable;
  ram.addrBits = addrBits;
  ram.dataBits = dataBits;
  ram.init = std::move(init);
  ram.unit = unit;
  ram.name = std::move(name);
  ram.dataOut.reserve(dataBits);
  const RamId id{static_cast<std::uint32_t>(rams_.size())};
  for (unsigned b = 0; b < dataBits; ++b) {
    const NetId out = addNet(ram.name + ".dout[" + std::to_string(b) + "]");
    ram.dataOut.push_back(out);
    setDriver(out, DriverKind::Ram, id.value);
  }
  rams_.push_back(std::move(ram));
  return id;
}

void Netlist::addInputPort(std::string name, std::vector<NetId> nets) {
  const auto portIndex = static_cast<std::uint32_t>(inputs_.size());
  for (NetId n : nets) setDriver(n, DriverKind::Input, portIndex);
  inputs_.push_back(Port{std::move(name), std::move(nets), true});
}

void Netlist::addOutputPort(std::string name, std::vector<NetId> nets) {
  for (NetId n : nets) {
    require(n.valid() && n.value < netNames_.size(), ErrorKind::NetlistError,
            "output port references invalid net");
  }
  outputs_.push_back(Port{std::move(name), std::move(nets), false});
}

std::optional<NetId> Netlist::findNet(const std::string& name) const {
  if (name.empty()) return std::nullopt;
  for (std::uint32_t i = 0; i < netNames_.size(); ++i) {
    if (netNames_[i] == name) return NetId{i};
  }
  return std::nullopt;
}

std::optional<FlopId> Netlist::findFlop(const std::string& name) const {
  for (std::uint32_t i = 0; i < flops_.size(); ++i) {
    if (flops_[i].name == name) return FlopId{i};
  }
  return std::nullopt;
}

const Port* Netlist::findInput(const std::string& name) const {
  for (const auto& p : inputs_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const Port* Netlist::findOutput(const std::string& name) const {
  for (const auto& p : outputs_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void Netlist::replaceGateInput(GateId id, unsigned pin, NetId newNet) {
  require(id.valid() && id.value < gates_.size() && pin < arity(gates_[id.value].op),
          ErrorKind::InvalidArgument, "bad gate input reference");
  gates_[id.value].in[pin] = newNet;
}

void Netlist::replaceFlopInput(FlopId id, NetId newNet) {
  require(id.valid() && id.value < flops_.size(), ErrorKind::InvalidArgument,
          "bad flop reference");
  flops_[id.value].d = newNet;
}

void Netlist::replaceRamInput(RamId id, NetId oldNet, NetId newNet) {
  require(id.valid() && id.value < rams_.size(), ErrorKind::InvalidArgument,
          "bad ram reference");
  auto& ram = rams_[id.value];
  for (auto& n : ram.addr) {
    if (n == oldNet) n = newNet;
  }
  for (auto& n : ram.dataIn) {
    if (n == oldNet) n = newNet;
  }
  if (ram.writeEnable == oldNet) ram.writeEnable = newNet;
}

void Netlist::replaceOutputPortNet(std::size_t port, unsigned bit,
                                   NetId newNet) {
  require(port < outputs_.size() && bit < outputs_[port].nets.size(),
          ErrorKind::InvalidArgument, "bad output port reference");
  outputs_[port].nets[bit] = newNet;
}

void Netlist::validate() const {
  // Every net must have a driver.
  for (std::uint32_t i = 0; i < drivers_.size(); ++i) {
    require(drivers_[i].kind != DriverKind::None, ErrorKind::NetlistError,
            "net '" + netNames_[i] + "' (#" + std::to_string(i) +
                ") has no driver");
  }
  // All gate inputs must reference existing nets.
  for (const auto& g : gates_) {
    for (unsigned k = 0; k < arity(g.op); ++k) {
      require(g.in[k].valid() && g.in[k].value < netNames_.size(),
              ErrorKind::NetlistError, "gate input references invalid net");
    }
  }
  // Acyclicity is established by topoOrder(); it throws on a cycle.
  (void)topoOrder();
}

std::vector<GateId> Netlist::topoOrder() const {
  // Kahn's algorithm over gates only: flop Q outputs, RAM outputs and input
  // ports are sources, so a gate's in-degree counts only gate-driven inputs.
  std::vector<std::uint32_t> indegree(gates_.size(), 0);
  for (std::uint32_t g = 0; g < gates_.size(); ++g) {
    for (unsigned k = 0; k < arity(gates_[g].op); ++k) {
      if (drivers_[gates_[g].in[k].value].kind == DriverKind::Gate) {
        ++indegree[g];
      }
    }
  }
  const Fanout fanout = buildFanout(*this);
  std::vector<GateId> order;
  order.reserve(gates_.size());
  std::vector<std::uint32_t> ready;
  for (std::uint32_t g = 0; g < gates_.size(); ++g) {
    if (indegree[g] == 0) ready.push_back(g);
  }
  while (!ready.empty()) {
    const std::uint32_t g = ready.back();
    ready.pop_back();
    order.push_back(GateId{g});
    for (const std::uint32_t s : fanout.readers(gates_[g].out)) {
      if (--indegree[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != gates_.size()) raiseCycle(indegree);
  return order;
}

void Netlist::raiseCycle(const std::vector<std::uint32_t>& indegree) const {
  // Kahn left every gate with a nonzero in-degree on a cycle or downstream
  // of one, and each such gate has an input driven by another. Following
  // those drivers must revisit a gate; the revisited stretch is the cycle.
  std::uint32_t cur = 0;
  while (indegree[cur] == 0) ++cur;
  std::vector<std::uint32_t> path;
  std::vector<std::uint8_t> onPath(gates_.size(), 0);
  while (!onPath[cur]) {
    onPath[cur] = 1;
    path.push_back(cur);
    const Gate& gate = gates_[cur];
    for (unsigned k = 0; k < arity(gate.op); ++k) {
      const Driver d = drivers_[gate.in[k].value];
      if (d.kind == DriverKind::Gate && indegree[d.index] != 0) {
        cur = d.index;
        break;
      }
    }
  }
  std::string nets;
  for (auto it = std::find(path.begin(), path.end(), cur); it != path.end();
       ++it) {
    const NetId out = gates_[*it].out;
    if (!nets.empty()) nets += " -> ";
    nets += netNames_[out.value].empty() ? "net#" + std::to_string(out.value)
                                         : netNames_[out.value];
  }
  raise(ErrorKind::NetlistError, "combinational cycle through nets: " + nets);
}

Fanout buildFanout(const Netlist& nl) {
  Fanout f;
  f.offsets.assign(nl.netCount() + 1, 0);
  for (const Gate& g : nl.gates()) {
    for (unsigned k = 0; k < arity(g.op); ++k) ++f.offsets[g.in[k].value + 1];
  }
  for (std::size_t n = 0; n < nl.netCount(); ++n) {
    f.offsets[n + 1] += f.offsets[n];
  }
  f.gates.resize(f.offsets.back());
  std::vector<std::uint32_t> cursor(f.offsets.begin(), f.offsets.end() - 1);
  for (std::uint32_t gi = 0; gi < nl.gateCount(); ++gi) {
    const Gate& g = nl.gates()[gi];
    for (unsigned k = 0; k < arity(g.op); ++k) {
      f.gates[cursor[g.in[k].value]++] = gi;
    }
  }
  return f;
}

NetlistStats Netlist::stats() const {
  NetlistStats s;
  s.nets = netNames_.size();
  s.gates = gates_.size();
  s.flops = flops_.size();
  s.rams = rams_.size();
  for (const auto& r : rams_) s.ramBits += r.depth() * r.dataBits;
  for (const auto& p : inputs_) s.inputBits += p.nets.size();
  for (const auto& p : outputs_) s.outputBits += p.nets.size();
  for (const auto& g : gates_) ++s.gatesPerUnit[g.unit];
  for (const auto& f : flops_) ++s.flopsPerUnit[f.unit];
  return s;
}

}  // namespace fades::netlist
