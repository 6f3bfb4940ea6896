// Checks of FADES experiments against the fault-free run, shared by the unit
// suite (a small design, every injector configuration) and the slow suite
// (the MC8051).
//
// FADES ends an experiment as soon as the replica is back on the golden run,
// and locates an injection instant by loading it from its golden trace.
// expectEarlyStopsExact() runs every early-stopped experiment to the end
// anyway; expectLocateExact() compares a located device with one stepped
// there from the download.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "campaign/types.hpp"
#include "core/fades.hpp"
#include "fpga/device.hpp"
#include "synth/implement.hpp"

namespace fades::goldenref {

/// The packed output word `dev` shows now, in campaign::observedBit's
/// layout - what the tool compares with its golden output trace.
inline std::uint64_t outputWord(const synth::Implementation& impl,
                                const fpga::Device& dev,
                                const std::vector<std::string>& ports) {
  std::uint64_t w = 0;
  for (std::size_t k = 0; k < ports.size(); ++k) {
    for (const auto& p : impl.pads) {
      if (p.port == ports[k] && !p.isInput && dev.padValue(p.pad)) {
        w |= std::uint64_t{1} << campaign::observedBit(ports[k], k,
                                                       p.bitIndex);
      }
    }
  }
  return w;
}

inline void expectSameState(const fpga::DeviceState& got,
                            const fpga::DeviceState& want) {
  EXPECT_EQ(got.cycle, want.cycle);
  EXPECT_TRUE(got.ffState == want.ffState) << "flip-flop states differ";
  EXPECT_TRUE(got.prevD == want.prevD) << "previous D values differ";
  EXPECT_TRUE(got.bramContent == want.bramContent) << "memory differs";
  EXPECT_TRUE(got.bramLatch == want.bramLatch) << "read latches differ";
  EXPECT_TRUE(got.padInput == want.padInput) << "pad inputs differ";
}

/// Runs experiments 0 .. spec.experiments - 1 of `spec` on one tool and
/// continues every one that stopped early without a Failure on its own
/// device to the end of the workload: it must see the golden outputs at
/// every cycle and end in the golden final flip-flop and memory state.
/// Returns how many stopped early.
inline unsigned expectEarlyStopsExact(const synth::Implementation& impl,
                                      std::uint64_t cycles,
                                      const core::FadesOptions& options,
                                      const campaign::CampaignSpec& spec) {
  fpga::Device dev(impl.spec);
  core::FadesTool tool(dev, impl, cycles, options);
  fpga::Device ref(impl.spec);  // the fault-free run, to its last cycle
  ref.writeFullBitstream(impl.bitstream);
  for (std::uint64_t c = 0; c < cycles; ++c) ref.step();
  const fpga::DeviceState goldenEnd = ref.captureState();

  const auto pool = tool.enumeratePool(spec);
  unsigned stopped = 0;
  for (unsigned e = 0; e < spec.experiments; ++e) {
    SCOPED_TRACE("experiment " + std::to_string(e));
    const auto out = tool.runExperimentAt(spec, pool, e, 0);
    // A Failure ends at its first divergent cycle, as it always has.
    if (out.outcome == campaign::Outcome::Failure || dev.cycle() == cycles) {
      continue;
    }
    ++stopped;
    EXPECT_EQ(out.outcome, campaign::Outcome::Silent);
    for (std::uint64_t c = dev.cycle(); c < cycles; ++c) {
      if (outputWord(impl, dev, options.observedOutputs) !=
          tool.golden().outputs[c]) {
        ADD_FAILURE() << "outputs leave the golden run at cycle " << c;
        break;
      }
      dev.step();
    }
    for (std::size_t i = 0; i < impl.flops.size(); ++i) {
      EXPECT_EQ(dev.ffState(impl.flops[i].cb),
                tool.golden().finalFlops[i] != 0)
          << impl.flops[i].name;
    }
    EXPECT_TRUE(dev.captureState().bramContent == goldenEnd.bramContent);
  }
  return stopped;
}

/// For each of the ascending `cycles`: `before(c)` (any replica history),
/// then tool.locate(c), whose device state - previous D values included -
/// must equal that of a device stepped c cycles from the download.
inline void expectLocateExact(core::FadesTool& tool,
                              std::span<const std::uint64_t> cycles,
                              const std::function<void(std::uint64_t)>& before) {
  const auto& impl = tool.implementation();
  fpga::Device ref(impl.spec);
  ref.writeFullBitstream(impl.bitstream);
  for (const std::uint64_t c : cycles) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    while (ref.cycle() < c) ref.step();
    before(c);
    tool.locate(c);
    expectSameState(tool.device().captureState(), ref.captureState());
  }
}

}  // namespace fades::goldenref
