#include "synth/route.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "synth/fabric.hpp"

namespace fades::synth {

using common::ErrorKind;
using common::raise;
using fpga::NodeKind;

namespace {

struct Search {
  // Epoch-tagged arrays avoid O(N) clears between A* runs.
  std::vector<float> g;
  std::vector<std::uint32_t> prev;
  std::vector<std::uint32_t> epochTag;
  std::uint32_t epoch = 0;

  explicit Search(std::size_t n)
      : g(n, 0.f), prev(n, 0), epochTag(n, 0) {}

  void newSearch() { ++epoch; }
  bool seen(std::uint32_t n) const { return epochTag[n] == epoch; }
  void visit(std::uint32_t n, float cost, std::uint32_t from) {
    epochTag[n] = epoch;
    g[n] = cost;
    prev[n] = from;
  }
};

}  // namespace

std::vector<RoutedNet> routeAll(const fpga::ConfigLayout& layout,
                                const fpga::RoutingNodes& nodes,
                                const std::vector<RouteRequest>& requests,
                                RouteStats* stats) {
  const fpga::DeviceSpec& spec = layout.spec();
  const std::uint32_t N = nodes.count();
  std::vector<RoutedNet> result(requests.size());
  std::vector<std::uint16_t> occupancy(N, 0);
  std::vector<float> history(N, 0.f);
  std::vector<float> posX(N), posY(N);
  for (std::uint32_t n = 0; n < N; ++n) {
    double x, y;
    nodes.position(n, x, y);
    posX[n] = static_cast<float>(x);
    posY[n] = static_cast<float>(y);
  }

  Search search(N);
  // Min-heap on (f = g + h, node), driven as std::priority_queue drives it,
  // so a search's leftovers go with one clear().
  using QEntry = std::pair<float, std::uint32_t>;
  std::vector<QEntry> open;

  auto ripUp = [&](std::size_t netIdx) {
    for (auto n : result[netIdx].nodes) {
      if (occupancy[n] > 0) --occupancy[n];
    }
    result[netIdx] = RoutedNet{};
  };

  auto routeNet = [&](std::size_t netIdx, float presentFactor) {
    const RouteRequest& req = requests[netIdx];
    RoutedNet net;
    net.nodes.push_back(req.source);

    // Route sinks nearest-first for better Steiner trees.
    std::vector<std::uint32_t> sinks = req.sinks;
    std::sort(sinks.begin(), sinks.end(), [&](std::uint32_t a,
                                              std::uint32_t b) {
      const float da = std::abs(posX[a] - posX[req.source]) +
                       std::abs(posY[a] - posY[req.source]);
      const float db = std::abs(posX[b] - posX[req.source]) +
                       std::abs(posY[b] - posY[req.source]);
      return da < db;
    });

    for (std::uint32_t sink : sinks) {
      if (sink == req.source) continue;
      search.newSearch();
      open.clear();
      auto relax = [&](std::uint32_t nb, std::uint32_t from, float gFrom) {
        const float nodeCost =
            1.f + history[nb] +
            presentFactor * static_cast<float>(occupancy[nb]);
        const float cost = gFrom + nodeCost;
        if (!search.seen(nb) || cost < search.g[nb] - 1e-6f) {
          search.visit(nb, cost, from);
          const float h = std::abs(posX[nb] - posX[sink]) +
                          std::abs(posY[nb] - posY[sink]);
          open.emplace_back(cost + h, nb);
          std::push_heap(open.begin(), open.end(), std::greater<>{});
        }
      };
      // The sink's neighbours are two runs of `tracks` consecutive segment
      // ids; a segment touches the sink iff it lies in one of them.
      std::uint32_t lo = std::numeric_limits<std::uint32_t>::max(), hi = 0;
      forEachNeighbor(layout, nodes, sink,
                      [&](std::uint32_t nb, std::size_t /*bit*/) {
                        lo = std::min(lo, nb);
                        hi = std::max(hi, nb);
                      });
      const std::uint32_t runA = lo, runB = hi + 1 - spec.tracks;
      for (auto n : net.nodes) {
        search.visit(n, 0.f, n);
        const float h = std::abs(posX[n] - posX[sink]) +
                        std::abs(posY[n] - posY[sink]);
        open.emplace_back(h, n);
        std::push_heap(open.begin(), open.end(), std::greater<>{});
      }
      bool found = false;
      while (!open.empty()) {
        std::pop_heap(open.begin(), open.end(), std::greater<>{});
        const auto [f, n] = open.back();
        open.pop_back();
        if (n == sink) {
          found = true;
          break;
        }
        const float gn = search.g[n];
        // Stale queue entry?
        {
          const float h = std::abs(posX[n] - posX[sink]) +
                          std::abs(posY[n] - posY[sink]);
          if (f > gn + h + 1e-3f) continue;
        }
        if (!nodes.isSegment(n)) {
          // A pin of the tree: every neighbour is a segment.
          forEachNeighbor(layout, nodes, n,
                          [&](std::uint32_t nb, std::size_t /*bit*/) {
                            relax(nb, n, gn);
                          });
          continue;
        }
        forEachSegmentNeighbor(
            spec, nodes, nodes.info(n),
            [&](std::uint32_t nb, unsigned, unsigned, fpga::PmSwitch) {
              relax(nb, n, gn);
            });
        // Pins are endpoints, never waypoints: the sink is the one pin a
        // segment may lead to.
        if (n - runA < spec.tracks || n - runB < spec.tracks) {
          relax(sink, n, gn);
        }
      }
      if (!found) {
        raise(ErrorKind::RoutingError,
              "no path to sink (net " + std::to_string(netIdx) + ")");
      }
      // Walk back and add the path to the tree.
      std::uint32_t n = sink;
      while (search.prev[n] != n) {
        const std::uint32_t p = search.prev[n];
        net.edges.emplace_back(p, n);
        net.nodes.push_back(n);
        n = p;
      }
    }
    for (auto n : net.nodes) ++occupancy[n];
    result[netIdx] = std::move(net);
  };

  // Iteration 1: route everything; afterwards rip up and reroute only nets
  // crossing overused nodes, with increasing congestion pressure, for at
  // most kMaxIterations rounds.
  constexpr unsigned kMaxIterations = 120;
  for (unsigned iter = 1; iter <= kMaxIterations; ++iter) {
    const float presentFactor = iter == 1 ? 0.5f : 1.5f * iter;
    if (iter == 1) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        routeNet(i, presentFactor);
      }
    } else {
      // Find congested nets.
      std::vector<std::size_t> congested;
      for (std::size_t i = 0; i < requests.size(); ++i) {
        bool over = false;
        for (auto n : result[i].nodes) {
          if (occupancy[n] > 1 && nodes.isSegment(n)) {
            over = true;
            break;
          }
        }
        if (over) congested.push_back(i);
      }
      if (congested.empty()) break;
      for (auto i : congested) ripUp(i);
      for (auto i : congested) routeNet(i, presentFactor);
    }
    // Update history for overused nodes; pressure grows with iterations so
    // a thrashing pair of nets eventually diverges onto distinct tracks.
    bool anyOver = false;
    const float historyInc = 1.0f + 0.2f * static_cast<float>(iter);
    for (std::uint32_t n = 0; n < N; ++n) {
      if (occupancy[n] > 1 && nodes.isSegment(n)) {
        history[n] += historyInc;
        anyOver = true;
      }
    }
    if (stats) stats->iterations = iter;
    if (!anyOver) break;
    if (iter >= kMaxIterations) {
      // Build a diagnostic of where congestion persists.
      std::size_t overCount = 0;
      std::string samples;
      for (std::uint32_t n = 0; n < N && overCount < 2000; ++n) {
        if (occupancy[n] > 1 && nodes.isSegment(n)) {
          ++overCount;
          if (overCount <= 8) {
            const auto info = nodes.info(n);
            samples += (info.kind == NodeKind::HSeg ? " H(" : " V(") +
                       std::to_string(info.x) + "," + std::to_string(info.y) +
                       ",t" + std::to_string(info.track) + ")x" +
                       std::to_string(occupancy[n]);
          }
        }
      }
      raise(ErrorKind::RoutingError,
            "congestion not resolved after " + std::to_string(iter) +
                " iterations; " + std::to_string(overCount) +
                " overused nodes:" + samples);
    }
  }

  if (stats) {
    stats->totalWireNodes = 0;
    for (const auto& net : result) stats->totalWireNodes += net.nodes.size();
  }
  return result;
}

}  // namespace fades::synth
