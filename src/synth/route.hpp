// Negotiated-congestion routing (PathFinder-style) over the pass-transistor
// fabric. Each net is a tree from one driver pin to its sink pins; nets
// negotiate for exclusive use of wire segments through rising history and
// present-congestion costs.
//
// Each sink is found by an A* search that expands wire segments through
// forEachSegmentNeighbor and computes no configuration bit: pins are
// endpoints, so a segment leads only to the sink, which it touches iff it
// is one of the sink's two runs of track segments (fabric.hpp). Routes are
// node pairs; bitgen derives each edge's bit once (transistorBit).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fpga/layout.hpp"
#include "fpga/spec.hpp"

namespace fades::synth {

struct RouteRequest {
  std::uint32_t source = 0;            // driver pin node
  std::vector<std::uint32_t> sinks;    // sink pin nodes
};

struct RoutedNet {
  /// Adjacent node pairs in the routed tree; each pair maps to exactly one
  /// pass transistor (configuration bit).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  /// All nodes of the tree (source, wire segments, sinks).
  std::vector<std::uint32_t> nodes;
};

struct RouteStats {
  unsigned iterations = 0;
  std::size_t totalWireNodes = 0;
};

/// Route all requests; throws RoutingError if congestion cannot be resolved
/// within 120 rip-up-and-reroute iterations.
std::vector<RoutedNet> routeAll(const fpga::ConfigLayout& layout,
                                const fpga::RoutingNodes& nodes,
                                const std::vector<RouteRequest>& requests,
                                RouteStats* stats = nullptr);

}  // namespace fades::synth
