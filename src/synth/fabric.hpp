// Routing-fabric adjacency: which pass transistor connects two routing
// nodes, and enumeration of all potential neighbours of a node. The router
// explores this graph; bitgen turns chosen edges into configuration bits;
// the delay-fault injectors toggle individual bits of it at run time.
//
// The rules are computed, not tabled: a CSR of (neighbour, bit) for the
// Virtex-1000-class device would hold 15.8 M entries. The router relies on
// three properties the Fabric tests check: adjacency is symmetric with one
// bit per edge, a pin's neighbours are exactly two runs of `tracks`
// consecutive segment ids (its tile's h- and v-segments), and the
// segment-to-segment edges are forEachSegmentNeighbor's, which computes no
// configuration bit.
#pragma once

#include <cstdint>
#include <optional>

#include "fpga/layout.hpp"
#include "fpga/spec.hpp"

namespace fades::synth {

using fpga::CbCoord;
using fpga::CbInPin;
using fpga::CbOutPin;
using fpga::ConfigLayout;
using fpga::DeviceSpec;
using fpga::NodeInfo;
using fpga::NodeKind;
using fpga::PmCoord;
using fpga::PmSwitch;
using fpga::RoutingNodes;

/// Enumerate the wire segments adjacent to segment `n` through the pass
/// transistors of the PMs at its two ends: fn(neighborSegment, pmX, pmY,
/// switch), on n's own track. Computes no configuration bit, which is what
/// the router's search needs; yields nothing for a pin.
template <typename Fn>
void forEachSegmentNeighbor(const DeviceSpec& spec, const RoutingNodes& nodes,
                            const NodeInfo& n, Fn&& fn) {
  const unsigned rows = spec.rows, cols = spec.cols;
  const unsigned x = n.x, y = n.y, t = n.track;
  if (n.kind == NodeKind::HSeg) {
    // West end: PM(x, y); this segment is the PM's E side.
    if (x >= 1) fn(nodes.hseg(x - 1, y, t), x, y, PmSwitch::WE);
    if (y < rows) fn(nodes.vseg(x, y, t), x, y, PmSwitch::EN);
    if (y >= 1) fn(nodes.vseg(x, y - 1, t), x, y, PmSwitch::ES);
    // East end: PM(x+1, y); this segment is the PM's W side.
    if (x + 1 < cols) fn(nodes.hseg(x + 1, y, t), x + 1, y, PmSwitch::WE);
    if (y < rows) fn(nodes.vseg(x + 1, y, t), x + 1, y, PmSwitch::WN);
    if (y >= 1) fn(nodes.vseg(x + 1, y - 1, t), x + 1, y, PmSwitch::WS);
  } else if (n.kind == NodeKind::VSeg) {
    // South end: PM(x, y); this segment is the PM's N side.
    if (y >= 1) fn(nodes.vseg(x, y - 1, t), x, y, PmSwitch::NS);
    if (x >= 1) fn(nodes.hseg(x - 1, y, t), x, y, PmSwitch::WN);
    if (x < cols) fn(nodes.hseg(x, y, t), x, y, PmSwitch::EN);
    // North end: PM(x, y+1); this segment is the PM's S side.
    if (y + 1 < rows) fn(nodes.vseg(x, y + 1, t), x, y + 1, PmSwitch::NS);
    if (x >= 1) fn(nodes.hseg(x - 1, y + 1, t), x, y + 1, PmSwitch::WS);
    if (x < cols) fn(nodes.hseg(x, y + 1, t), x, y + 1, PmSwitch::ES);
  }
}

/// Enumerate every node adjacent to `node` through a (potential) pass
/// transistor: fn(neighborNode, configBitAddress). A segment lists its
/// forEachSegmentNeighbor segments first, then the pins it reaches.
template <typename Fn>
void forEachNeighbor(const ConfigLayout& layout, const RoutingNodes& nodes,
                     std::uint32_t node, Fn&& fn) {
  const DeviceSpec& spec = layout.spec();
  const unsigned rows = spec.rows, cols = spec.cols, tracks = spec.tracks;
  const NodeInfo n = nodes.info(node);

  forEachSegmentNeighbor(
      spec, nodes, n,
      [&](std::uint32_t nb, unsigned px, unsigned py, PmSwitch sw) {
        fn(nb, layout.pmSwitchBit(PmCoord{static_cast<std::uint16_t>(px),
                                          static_cast<std::uint16_t>(py)},
                                  n.track, sw));
      });

  switch (n.kind) {
    case NodeKind::HSeg: {
      const unsigned x = n.x, y = n.y, t = n.track;
      // Connection boxes: CB(x, y) touches its south horizontal channel.
      if (y < rows) {
        const CbCoord cb{static_cast<std::uint16_t>(x),
                         static_cast<std::uint16_t>(y)};
        for (unsigned p = 0; p < fpga::kCbInPins; ++p) {
          fn(nodes.cbIn(cb, static_cast<CbInPin>(p)),
             layout.cbInConnBit(cb, static_cast<CbInPin>(p), false, t));
        }
        for (unsigned p = 0; p < fpga::kCbOutPins; ++p) {
          fn(nodes.cbOut(cb, static_cast<CbOutPin>(p)),
             layout.cbOutConnBit(cb, static_cast<CbOutPin>(p), false, t));
        }
      }
      // Pads on the west / east edges.
      if (x == 0 && y < rows) fn(nodes.pad(y), layout.padConnBit(y, false, t));
      if (x == cols - 1 && y < rows) {
        fn(nodes.pad(rows + y), layout.padConnBit(rows + y, false, t));
      }
      // Memory-block pins along the north boundary channel.
      if (y == rows) {
        const unsigned cpb = layout.bramColsPerBlock();
        const unsigned block = x / cpb;
        if (block < spec.memBlocks) {
          for (unsigned k = x % cpb; k < DeviceSpec::kBramPins; k += cpb) {
            fn(nodes.bramPin(block, k),
               layout.bramPinConnBit(block, k, false, t));
          }
        }
      }
      break;
    }
    case NodeKind::VSeg: {
      const unsigned x = n.x, y = n.y, t = n.track;
      // Connection boxes: CB(x, y) touches its west vertical channel.
      if (x < cols) {
        const CbCoord cb{static_cast<std::uint16_t>(x),
                         static_cast<std::uint16_t>(y)};
        for (unsigned p = 0; p < fpga::kCbInPins; ++p) {
          fn(nodes.cbIn(cb, static_cast<CbInPin>(p)),
             layout.cbInConnBit(cb, static_cast<CbInPin>(p), true, t));
        }
        for (unsigned p = 0; p < fpga::kCbOutPins; ++p) {
          fn(nodes.cbOut(cb, static_cast<CbOutPin>(p)),
             layout.cbOutConnBit(cb, static_cast<CbOutPin>(p), true, t));
        }
      }
      if (x == 0) fn(nodes.pad(y), layout.padConnBit(y, true, t));
      if (x == cols) {
        fn(nodes.pad(rows + y), layout.padConnBit(rows + y, true, t));
      }
      if (y == rows - 1) {
        const unsigned cpb = layout.bramColsPerBlock();
        const unsigned block = x / cpb;
        if (x < cols && block < spec.memBlocks) {
          for (unsigned k = x % cpb; k < DeviceSpec::kBramPins; k += cpb) {
            fn(nodes.bramPin(block, k),
               layout.bramPinConnBit(block, k, true, t));
          }
        }
      }
      break;
    }
    case NodeKind::CbIn: {
      const CbCoord cb{static_cast<std::uint16_t>(n.x),
                       static_cast<std::uint16_t>(n.y)};
      const auto pin = static_cast<CbInPin>(n.track);
      for (unsigned t = 0; t < tracks; ++t) {
        fn(nodes.hseg(n.x, n.y, t), layout.cbInConnBit(cb, pin, false, t));
        fn(nodes.vseg(n.x, n.y, t), layout.cbInConnBit(cb, pin, true, t));
      }
      break;
    }
    case NodeKind::CbOut: {
      const CbCoord cb{static_cast<std::uint16_t>(n.x),
                       static_cast<std::uint16_t>(n.y)};
      const auto pin = static_cast<CbOutPin>(n.track);
      for (unsigned t = 0; t < tracks; ++t) {
        fn(nodes.hseg(n.x, n.y, t), layout.cbOutConnBit(cb, pin, false, t));
        fn(nodes.vseg(n.x, n.y, t), layout.cbOutConnBit(cb, pin, true, t));
      }
      break;
    }
    case NodeKind::Pad: {
      const unsigned p = n.x;
      const unsigned row = layout.padRow(p);
      for (unsigned t = 0; t < tracks; ++t) {
        if (layout.padIsWest(p)) {
          fn(nodes.hseg(0, row, t), layout.padConnBit(p, false, t));
          fn(nodes.vseg(0, row, t), layout.padConnBit(p, true, t));
        } else {
          fn(nodes.hseg(cols - 1, row, t), layout.padConnBit(p, false, t));
          fn(nodes.vseg(cols, row, t), layout.padConnBit(p, true, t));
        }
      }
      break;
    }
    case NodeKind::BramPin: {
      const unsigned block = n.x, k = n.track;
      const unsigned xb = layout.bramPinColumn(block, k);
      for (unsigned t = 0; t < tracks; ++t) {
        fn(nodes.hseg(xb, rows, t), layout.bramPinConnBit(block, k, false, t));
        fn(nodes.vseg(xb, rows - 1, t),
           layout.bramPinConnBit(block, k, true, t));
      }
      break;
    }
  }
}

/// Configuration bit of the transistor joining two adjacent nodes, if any.
inline std::optional<std::size_t> transistorBit(const ConfigLayout& layout,
                                                const RoutingNodes& nodes,
                                                std::uint32_t a,
                                                std::uint32_t b) {
  std::optional<std::size_t> result;
  forEachNeighbor(layout, nodes, a,
                  [&](std::uint32_t nb, std::size_t bit) {
                    if (nb == b && !result) result = bit;
                  });
  return result;
}

}  // namespace fades::synth
