// Differential-oracle case specification.
//
// A CaseSpec is the self-contained, JSON-serializable description of one
// differential-checking case: a generated design (a parameterized rtl::builder
// circuit or an MC8051 assembly program), a workload length, and an injection
// spec. Everything the three-way oracle needs to rebuild and re-attack the
// exact same system lives in this one structure - the committed seed corpus
// is a directory of these, and the shrinker works by transforming them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/types.hpp"
#include "obs/json.hpp"

namespace fades::diffcheck {

/// Which design family the case exercises.
enum class DesignKind : std::uint8_t { Rtl, Mc8051 };
const char* toString(DesignKind k);

/// Parameters of the deterministic random-RTL generator (gen.hpp). The
/// circuit is a pure function of these fields, so a case file carries the
/// parameters instead of a netlist dump and stays both tiny and shrinkable.
struct RtlParams {
  std::uint64_t seed = 1;
  unsigned regs = 3;       // register count, >= 1
  unsigned regWidth = 4;   // bits per register, >= 1
  unsigned gates = 24;     // combinational soup size, >= 0
  bool withRam = false;    // add a small written-and-read RAM
  /// Intermediate gate outputs published as named HDL signals ("s0"...),
  /// giving VFIT a combinational target population like a VHDL tool's.
  unsigned namedSignals = 4;
};

/// One differential case. `inject` reuses the campaign vocabulary: its
/// seed/experiments/band drive the exact per-experiment stream derivation
/// campaigns use, so a case replays the same faults any campaign would draw.
struct CaseSpec {
  static constexpr const char* kSchema = "fades.diffcase/1";

  std::string name;  // stable identifier, e.g. "bitflip-ff-rtl-007"
  DesignKind kind = DesignKind::Rtl;
  RtlParams rtl;                      // meaningful when kind == Rtl
  std::vector<std::string> program;   // MC8051 source lines, kind == Mc8051
  std::uint64_t runCycles = 48;
  campaign::CampaignSpec inject;

  /// Instruction count of an MC8051 case (lines that are not labels-only,
  /// comments or directives); 0 for RTL cases. The shrink target the
  /// acceptance bar is stated in ("<= 8-instruction reproducer").
  unsigned instructionCount() const;

  obs::Json toJson() const;
  /// Strict parse; throws FadesError(InvalidArgument) naming the bad field.
  static CaseSpec fromJson(const obs::Json& j);

  /// Compact one-line description for logs and reports. Deterministic.
  std::string describe() const;
};

/// Inverse of toString(DesignKind); throws FadesError(InvalidArgument) on
/// an unknown name.
DesignKind designKindFromString(const std::string& text);

}  // namespace fades::diffcheck
