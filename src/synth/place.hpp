// Placement: assign packed cells (LUT/FF pairs) to configurable blocks.
//
// Connectivity-ordered initial placement followed by greedy pairwise-swap
// refinement on half-perimeter wirelength. Pads and memory-block pins are
// fixed terminals pulling their logic toward the device edges.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fpga/spec.hpp"

namespace fades::synth {

struct PlacerNet {
  /// Cells on this net (indices into the cell array).
  std::vector<std::uint32_t> cells;
  /// Fixed terminal positions (pads, memory-block pins), in tile units.
  std::vector<std::pair<double, double>> fixed;
};

struct PlacerResult {
  std::vector<fpga::CbCoord> cellSite;  // per cell
  double finalWirelength = 0.0;
};

/// Place `cellCount` cells on the device grid. Throws CapacityError when the
/// design does not fit.
PlacerResult place(const fpga::DeviceSpec& spec, std::uint32_t cellCount,
                   const std::vector<PlacerNet>& nets, common::Rng& rng);

}  // namespace fades::synth
