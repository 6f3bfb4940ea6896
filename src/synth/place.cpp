#include "synth/place.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace fades::synth {

using common::ErrorKind;
using common::require;
using fpga::CbCoord;

namespace {

struct Grid {
  unsigned rows, cols;
  std::vector<std::int32_t> cellAt;  // per site index, -1 = empty

  unsigned siteIndex(CbCoord c) const { return c.x * rows + c.y; }
  CbCoord site(unsigned idx) const {
    return CbCoord{static_cast<std::uint16_t>(idx / rows),
                   static_cast<std::uint16_t>(idx % rows)};
  }
};

double netHpwl(const PlacerNet& net,
               const std::vector<CbCoord>& cellSite) {
  double minX = 1e18, maxX = -1e18, minY = 1e18, maxY = -1e18;
  auto extend = [&](double x, double y) {
    minX = std::min(minX, x);
    maxX = std::max(maxX, x);
    minY = std::min(minY, y);
    maxY = std::max(maxY, y);
  };
  for (auto c : net.cells) {
    extend(cellSite[c].x + 0.5, cellSite[c].y + 0.5);
  }
  for (const auto& [x, y] : net.fixed) extend(x, y);
  if (maxX < minX) return 0.0;
  return (maxX - minX) + (maxY - minY);
}

}  // namespace

PlacerResult place(const fpga::DeviceSpec& spec, std::uint32_t cellCount,
                   const std::vector<PlacerNet>& nets, common::Rng& rng) {
  require(cellCount <= spec.cbCount(), ErrorKind::CapacityError,
          "design needs " + std::to_string(cellCount) + " CBs, device has " +
              std::to_string(spec.cbCount()));

  // Connectivity-ordered initial placement: BFS over the cell adjacency so
  // connected cells land close together, filling a compact near-square
  // region anchored at the device centre.
  std::vector<std::vector<std::uint32_t>> cellNets(cellCount);
  for (std::uint32_t ni = 0; ni < nets.size(); ++ni) {
    for (auto c : nets[ni].cells) cellNets[c].push_back(ni);
  }
  std::vector<std::uint32_t> order;
  order.reserve(cellCount);
  std::vector<std::uint8_t> seen(cellCount, 0);
  for (std::uint32_t seed = 0; seed < cellCount; ++seed) {
    if (seen[seed]) continue;
    std::vector<std::uint32_t> queue{seed};
    seen[seed] = 1;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const std::uint32_t c = queue[h];
      order.push_back(c);
      for (auto ni : cellNets[c]) {
        for (auto other : nets[ni].cells) {
          if (!seen[other]) {
            seen[other] = 1;
            queue.push_back(other);
          }
        }
      }
    }
  }

  // Region: a square sized for ~55% occupancy (router headroom), clipped to
  // the grid, centred horizontally and biased toward the north edge (where
  // memory blocks sit). Falls back to tighter packing when the device is
  // nearly full.
  const double targetArea = static_cast<double>(cellCount) / 0.55;
  const unsigned side = std::max<unsigned>(
      1, static_cast<unsigned>(std::ceil(std::sqrt(targetArea))));
  unsigned regionW = std::min(spec.cols, side);
  unsigned regionH = std::min(spec.rows, side);
  while (std::uint64_t{regionW} * regionH < cellCount) {
    if (regionW < spec.cols) {
      ++regionW;
    } else if (regionH < spec.rows) {
      ++regionH;
    } else {
      break;
    }
  }
  const unsigned x0 = (spec.cols - regionW) / 2;
  const unsigned y0 = spec.rows - regionH;  // anchored at the north edge

  Grid grid{spec.rows, spec.cols,
            std::vector<std::int32_t>(spec.cbCount(), -1)};
  std::vector<CbCoord> cellSite(cellCount);
  {
    // Spread cells uniformly across the region (row-major with stride) so
    // the router starts from even congestion.
    const std::uint64_t sites = std::uint64_t{regionW} * regionH;
    require(sites >= cellCount, ErrorKind::CapacityError,
            "initial placement region overflow");
    for (std::uint32_t k = 0; k < cellCount; ++k) {
      const auto s = static_cast<std::uint64_t>(k) * sites / cellCount;
      const unsigned xx = static_cast<unsigned>(s % regionW);
      const unsigned yy = static_cast<unsigned>(s / regionW);
      const CbCoord c{static_cast<std::uint16_t>(x0 + xx),
                      static_cast<std::uint16_t>(y0 + yy)};
      cellSite[order[k]] = c;
      grid.cellAt[grid.siteIndex(c)] = static_cast<std::int32_t>(order[k]);
    }
  }

  // Greedy refinement: random swaps (cell<->cell or cell->empty neighbour
  // site), accepted when they reduce total HPWL of the affected nets.
  auto affectedCost = [&](std::uint32_t cell) {
    double s = 0.0;
    for (auto ni : cellNets[cell]) s += netHpwl(nets[ni], cellSite);
    return s;
  };
  constexpr unsigned kSwapPassMultiplier = 24;  // attempts per placed cell
  const std::uint64_t attempts =
      cellCount == 0 ? 0 : std::uint64_t{kSwapPassMultiplier} * cellCount;
  for (std::uint64_t it = 0; it < attempts; ++it) {
    const auto a = static_cast<std::uint32_t>(rng.below(cellCount));
    // Pick a target site near a's current location (local moves converge
    // faster than uniform ones), occasionally anywhere in the region.
    CbCoord target;
    if (rng.below(8) == 0) {
      target = CbCoord{
          static_cast<std::uint16_t>(x0 + rng.below(regionW)),
          static_cast<std::uint16_t>(y0 + rng.below(regionH))};
    } else {
      const int dx = static_cast<int>(rng.below(9)) - 4;
      const int dy = static_cast<int>(rng.below(9)) - 4;
      const int tx = std::clamp<int>(cellSite[a].x + dx, 0, spec.cols - 1);
      const int ty = std::clamp<int>(cellSite[a].y + dy, 0, spec.rows - 1);
      target = CbCoord{static_cast<std::uint16_t>(tx),
                       static_cast<std::uint16_t>(ty)};
    }
    if (target == cellSite[a]) continue;
    const std::int32_t bSigned = grid.cellAt[grid.siteIndex(target)];

    const double before =
        affectedCost(a) +
        (bSigned >= 0 ? affectedCost(static_cast<std::uint32_t>(bSigned)) : 0.0);
    const CbCoord aOld = cellSite[a];
    cellSite[a] = target;
    if (bSigned >= 0) cellSite[static_cast<std::uint32_t>(bSigned)] = aOld;
    const double after =
        affectedCost(a) +
        (bSigned >= 0 ? affectedCost(static_cast<std::uint32_t>(bSigned)) : 0.0);
    if (after <= before) {
      grid.cellAt[grid.siteIndex(aOld)] = bSigned;
      grid.cellAt[grid.siteIndex(target)] = static_cast<std::int32_t>(a);
    } else {
      cellSite[a] = aOld;  // revert
      if (bSigned >= 0) cellSite[static_cast<std::uint32_t>(bSigned)] = target;
    }
  }

  PlacerResult result;
  result.cellSite = std::move(cellSite);
  for (const auto& net : nets) result.finalWirelength += netHpwl(net, result.cellSite);
  return result;
}

}  // namespace fades::synth
