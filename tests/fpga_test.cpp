#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fpga/device.hpp"
#include "fpga/layout.hpp"
#include "fpga/spec.hpp"
#include "rtl/builder.hpp"
#include "synth/implement.hpp"

namespace fades::fpga {
namespace {

using common::FadesError;

// ------------------------------------------------------------- layout -----

TEST(Layout, RecordSizes) {
  ConfigLayout l(DeviceSpec::small());  // tracks = 12
  EXPECT_EQ(l.cbRecordBits(), 24u + 14u * 12u);
  EXPECT_EQ(l.pmRecordBits(), 6u * 12u);
  EXPECT_EQ(l.padRecordBits(), 8u + 2u * 12u);
  EXPECT_EQ(l.bramRecordBits(), 8u + 45u * 24u);
}

TEST(Layout, Virtex1000LikeScale) {
  const auto spec = DeviceSpec::virtex1000Like();
  ConfigLayout l(spec);
  EXPECT_EQ(spec.lutCount(), 24576u);  // paper Section 7.1
  EXPECT_EQ(spec.ffCount(), 24576u);
  // Full configuration in the hundreds of kilobytes to a few megabytes,
  // like a real Virtex-1000 (~750 KB).
  EXPECT_GT(l.totalConfigBytes(), 400u * 1024u);
  EXPECT_LT(l.totalConfigBytes(), 4u * 1024u * 1024u);
}

TEST(Layout, AddressesAreUniqueAcrossResourceKinds) {
  ConfigLayout l(DeviceSpec::small());
  std::set<std::size_t> seen;
  auto check = [&](std::size_t addr) {
    EXPECT_TRUE(seen.insert(addr).second) << "duplicate address " << addr;
    EXPECT_LT(addr, l.logicPlaneBits());
  };
  // Sample a spread of resources.
  for (std::uint16_t x : {0, 3, 11}) {
    for (std::uint16_t y : {0, 5, 11}) {
      CbCoord cb{x, y};
      for (unsigned i = 0; i < 16; ++i) check(l.cbLutBit(cb, i));
      check(l.cbFieldBit(cb, CbField::InvLsr));
      check(l.cbFieldBit(cb, CbField::SrMode));
      for (unsigned t : {0u, 11u}) {
        check(l.cbInConnBit(cb, CbInPin::I0, false, t));
        check(l.cbInConnBit(cb, CbInPin::Byp, true, t));
        check(l.cbOutConnBit(cb, CbOutPin::Lut, false, t));
        check(l.cbOutConnBit(cb, CbOutPin::Ff, true, t));
      }
    }
  }
  for (std::uint16_t x : {0, 6, 12}) {
    for (std::uint16_t y : {0, 6, 12}) {
      check(l.pmSwitchBit(PmCoord{x, y}, 3, PmSwitch::WE));
      check(l.pmSwitchBit(PmCoord{x, y}, 7, PmSwitch::EN));
    }
  }
  for (unsigned p : {0u, 5u, 23u}) {
    check(l.padFieldBit(p, PadField::Used));
    check(l.padConnBit(p, false, 2));
    check(l.padConnBit(p, true, 2));
  }
  for (unsigned b : {0u, 1u}) {
    check(l.bramFieldBit(b, BramField::Used));
    check(l.bramPinConnBit(b, 0, false, 0));
    check(l.bramPinConnBit(b, 44, true, 11));
  }
}

TEST(Layout, DecodeInvertsAccessors) {
  ConfigLayout l(DeviceSpec::small());
  {
    const auto d = l.decode(l.cbLutBit(CbCoord{4, 7}, 9));
    EXPECT_EQ(d.region, ConfigLayout::Decoded::Region::Cb);
    EXPECT_EQ(d.cb, (CbCoord{4, 7}));
    EXPECT_EQ(d.bitInRecord, 9u);
  }
  {
    const auto d = l.decode(l.pmSwitchBit(PmCoord{12, 3}, 5, PmSwitch::WS));
    EXPECT_EQ(d.region, ConfigLayout::Decoded::Region::Pm);
    EXPECT_EQ(d.pm, (PmCoord{12, 3}));
    EXPECT_EQ(d.bitInRecord, 5u * 6u + 3u);
  }
  {
    const auto d = l.decode(l.padFieldBit(15, PadField::IsOutput));
    EXPECT_EQ(d.region, ConfigLayout::Decoded::Region::Pad);
    EXPECT_EQ(d.pad, 15u);
  }
  {
    const auto d = l.decode(l.bramPinConnBit(1, 20, true, 3));
    EXPECT_EQ(d.region, ConfigLayout::Decoded::Region::Bram);
    EXPECT_EQ(d.block, 1u);
  }
}

TEST(Layout, FrameMappingRoundTrip) {
  ConfigLayout l(DeviceSpec::small());
  for (std::size_t bit :
       {std::size_t{0}, l.cbLutBit(CbCoord{5, 5}, 0),
        l.pmSwitchBit(PmCoord{12, 12}, 11, PmSwitch::ES),
        l.logicPlaneBits() - 1}) {
    const FrameAddr f = l.frameOfLogicBit(bit);
    const std::size_t first = l.logicFrameFirstBit(f);
    EXPECT_LE(first, bit);
    EXPECT_LT(bit - first, l.logicFrameBitCount(f));
  }
}

TEST(Layout, BramFrameMapping) {
  ConfigLayout l(DeviceSpec::small());  // frameBytes=64 -> 512 bits
  const auto f = l.frameOfBramBit(1, 600);
  EXPECT_EQ(f.plane, Plane::BramContent);
  EXPECT_EQ(f.major, 1u);
  EXPECT_EQ(f.minor, 1u);
  EXPECT_EQ(l.bramFramesPerBlock(), 4u);  // 2048 bits / 512
}

// ------------------------------------------------------- routing nodes -----

TEST(RoutingNodes, EncodeDecodeRoundTrip) {
  const auto spec = DeviceSpec::small();
  RoutingNodes n(spec);
  {
    const auto i = n.info(n.hseg(3, 12, 7));
    EXPECT_EQ(i.kind, NodeKind::HSeg);
    EXPECT_EQ(i.x, 3u);
    EXPECT_EQ(i.y, 12u);
    EXPECT_EQ(i.track, 7u);
  }
  {
    const auto i = n.info(n.vseg(12, 3, 0));
    EXPECT_EQ(i.kind, NodeKind::VSeg);
    EXPECT_EQ(i.x, 12u);
    EXPECT_EQ(i.y, 3u);
  }
  {
    const auto i = n.info(n.cbIn(CbCoord{7, 8}, CbInPin::Byp));
    EXPECT_EQ(i.kind, NodeKind::CbIn);
    EXPECT_EQ(i.x, 7u);
    EXPECT_EQ(i.y, 8u);
    EXPECT_EQ(i.track, 4u);
  }
  {
    const auto i = n.info(n.cbOut(CbCoord{0, 0}, CbOutPin::Ff));
    EXPECT_EQ(i.kind, NodeKind::CbOut);
    EXPECT_EQ(i.track, 1u);
  }
  {
    const auto i = n.info(n.pad(23));
    EXPECT_EQ(i.kind, NodeKind::Pad);
    EXPECT_EQ(i.x, 23u);
  }
  {
    const auto i = n.info(n.bramPin(1, 44));
    EXPECT_EQ(i.kind, NodeKind::BramPin);
    EXPECT_EQ(i.x, 1u);
    EXPECT_EQ(i.track, 44u);
  }
}

TEST(RoutingNodes, AllIdsDistinct) {
  const auto spec = DeviceSpec::small();
  RoutingNodes n(spec);
  std::set<std::uint32_t> ids;
  ids.insert(n.hseg(0, 0, 0));
  ids.insert(n.hseg(spec.cols - 1, spec.rows, spec.tracks - 1));
  ids.insert(n.vseg(0, 0, 0));
  ids.insert(n.vseg(spec.cols, spec.rows - 1, spec.tracks - 1));
  ids.insert(n.cbIn(CbCoord{0, 0}, CbInPin::I0));
  ids.insert(n.cbOut(CbCoord{11, 11}, CbOutPin::Ff));
  ids.insert(n.pad(0));
  ids.insert(n.pad(23));
  ids.insert(n.bramPin(0, 0));
  ids.insert(n.bramPin(1, 44));
  EXPECT_EQ(ids.size(), 10u);
  for (auto id : ids) EXPECT_LT(id, n.count());
}

// ----------------------------------------------- hand-configured device -----

/// Test helper: writes configuration bits directly (bitgen-style).
struct Hand {
  Device& d;
  const ConfigLayout& l;

  explicit Hand(Device& dev) : d(dev), l(dev.layout()) {}

  void pm(unsigned x, unsigned y, unsigned t, PmSwitch sw) {
    d.setLogicBit(l.pmSwitchBit(PmCoord{static_cast<std::uint16_t>(x),
                                        static_cast<std::uint16_t>(y)},
                                t, sw),
                  true);
  }
  void inConn(CbCoord cb, CbInPin pin, bool vertical, unsigned t) {
    d.setLogicBit(l.cbInConnBit(cb, pin, vertical, t), true);
  }
  void outConn(CbCoord cb, CbOutPin pin, bool vertical, unsigned t) {
    d.setLogicBit(l.cbOutConnBit(cb, pin, vertical, t), true);
  }
  void lut(CbCoord cb, std::uint16_t table) {
    for (unsigned i = 0; i < 16; ++i) {
      d.setLogicBit(l.cbLutBit(cb, i), (table >> i) & 1u);
    }
    d.setLogicBit(l.cbFieldBit(cb, CbField::LutUsed), true);
  }
  void ff(CbCoord cb, bool fromByp = false, bool srMode = false) {
    d.setLogicBit(l.cbFieldBit(cb, CbField::FfUsed), true);
    d.setLogicBit(l.cbFieldBit(cb, CbField::FfInSrc), fromByp);
    d.setLogicBit(l.cbFieldBit(cb, CbField::SrMode), srMode);
  }
  void inputPad(unsigned p) {
    d.setLogicBit(l.padFieldBit(p, PadField::Used), true);
  }
  void outputPad(unsigned p) {
    d.setLogicBit(l.padFieldBit(p, PadField::Used), true);
    d.setLogicBit(l.padFieldBit(p, PadField::IsOutput), true);
  }
  void padConn(unsigned p, bool vertical, unsigned t) {
    d.setLogicBit(l.padConnBit(p, vertical, t), true);
  }
};

/// pad0 --> CB(1,1) LUT(NOT) --> pad1, routed by hand.
void configureInverter(Device& dev) {
  Hand h(dev);
  const CbCoord cb{1, 1};
  h.inputPad(0);
  h.padConn(0, /*vertical=*/true, 0);  // pad0 -> VSeg(0,0,0)
  h.pm(0, 1, 0, PmSwitch::ES);         // VSeg(0,0,0) -> HSeg(0,1,0)
  h.pm(1, 1, 0, PmSwitch::WE);         // HSeg(0,1,0) -> HSeg(1,1,0)
  h.inConn(cb, CbInPin::I0, /*vertical=*/false, 0);
  h.lut(cb, 0x5555);  // NOT i0 (unconnected i1..i3 read 0)

  h.outConn(cb, CbOutPin::Lut, /*vertical=*/false, 1);  // -> HSeg(1,1,1)
  h.pm(1, 1, 1, PmSwitch::WE);                          // -> HSeg(0,1,1)
  h.outputPad(1);
  h.padConn(1, /*vertical=*/false, 1);  // pad1 <- HSeg(0,1,1)
}

TEST(Device, HandRoutedInverter) {
  Device dev(DeviceSpec::small());
  configureInverter(dev);
  dev.setPadInput(0, false);
  dev.settle();
  EXPECT_TRUE(dev.padValue(1));
  dev.setPadInput(0, true);
  dev.settle();
  EXPECT_FALSE(dev.padValue(1));
  EXPECT_EQ(dev.usedLutCount(), 1u);
  EXPECT_EQ(dev.usedFfCount(), 0u);
}

TEST(Device, LutTableRewriteChangesFunction) {
  Device dev(DeviceSpec::small());
  configureInverter(dev);
  dev.setPadInput(0, true);
  dev.settle();
  EXPECT_FALSE(dev.padValue(1));
  // Rewrite the LUT to a buffer: out = i0 (the pulse-fault mechanism).
  Hand h(dev);
  h.lut(CbCoord{1, 1}, 0xAAAA);
  dev.settle();
  EXPECT_TRUE(dev.padValue(1));
}

/// pad0 -> CB(2,2) LUT(BUF) -> FF -> pad2.
void configureRegisteredBuffer(Device& dev, bool srMode = false) {
  Hand h(dev);
  const CbCoord cb{2, 2};
  h.inputPad(0);
  h.padConn(0, false, 0);     // pad0 -> HSeg(0,0,0)
  h.pm(1, 0, 0, PmSwitch::WE);  // -> HSeg(1,0,0)
  h.pm(2, 0, 0, PmSwitch::WN);  // -> VSeg(2,0,0)
  h.pm(2, 1, 0, PmSwitch::NS);  // -> VSeg(2,1,0)
  h.pm(2, 2, 0, PmSwitch::NS);  // -> VSeg(2,2,0)
  h.inConn(cb, CbInPin::I0, true, 0);
  h.lut(cb, 0xAAAA);  // BUF i0
  h.ff(cb, /*fromByp=*/false, srMode);

  h.outConn(cb, CbOutPin::Ff, true, 1);  // FF out -> VSeg(2,2,1)
  h.pm(2, 2, 1, PmSwitch::WN);           // -> HSeg(1,2,1)
  h.pm(1, 2, 1, PmSwitch::WE);           // -> HSeg(0,2,1)
  h.outputPad(2);
  h.padConn(2, false, 1);  // pad2 (west row 2)
}

TEST(Device, FlipFlopCapturesOnClockEdge) {
  Device dev(DeviceSpec::small());
  configureRegisteredBuffer(dev);
  dev.setPadInput(0, true);
  dev.settle();
  EXPECT_FALSE(dev.padValue(2));  // not clocked yet
  dev.step();
  EXPECT_TRUE(dev.padValue(2));
  dev.setPadInput(0, false);
  dev.settle();
  EXPECT_TRUE(dev.padValue(2));  // holds until next edge
  dev.step();
  EXPECT_FALSE(dev.padValue(2));
  EXPECT_EQ(dev.usedFfCount(), 1u);
}

TEST(Device, GsrDrivesFfToSrMode) {
  Device dev(DeviceSpec::small());
  configureRegisteredBuffer(dev, /*srMode=*/true);
  dev.setPadInput(0, false);
  dev.step();
  EXPECT_FALSE(dev.padValue(2));
  dev.pulseGsr();
  EXPECT_TRUE(dev.padValue(2));  // preset by PRMux selection
  EXPECT_TRUE(dev.ffState(CbCoord{2, 2}));
}

TEST(Device, InvertLsrForcesAndReleasesFf) {
  // The paper's LSR-based bit-flip (Section 4.1): reconfigure the
  // InvertLSRMux to assert the local set/reset, then deassert it; the FF
  // keeps the SrMode value afterwards.
  Device dev(DeviceSpec::small());
  configureRegisteredBuffer(dev, /*srMode=*/true);
  dev.setPadInput(0, false);
  dev.step();  // state = 0
  EXPECT_FALSE(dev.padValue(2));

  const auto invLsr = dev.layout().cbFieldBit(CbCoord{2, 2}, CbField::InvLsr);
  dev.setLogicBit(invLsr, true);
  dev.settle();
  EXPECT_TRUE(dev.padValue(2));  // asynchronously set to 1

  dev.setLogicBit(invLsr, false);
  dev.settle();
  EXPECT_TRUE(dev.padValue(2));  // the flipped state persists
  dev.setPadInput(0, false);
  dev.step();
  EXPECT_FALSE(dev.padValue(2));  // normal operation resumes
}

TEST(Device, InvertBypPinInvertsFfData) {
  // Pulse fault on a CB input (Figure 6): flip the input inverter mux.
  Device dev(DeviceSpec::small());
  Hand h(dev);
  const CbCoord cb{1, 1};
  h.inputPad(0);
  h.padConn(0, true, 0);
  h.pm(0, 1, 0, PmSwitch::ES);
  h.pm(1, 1, 0, PmSwitch::WE);
  h.inConn(cb, CbInPin::Byp, false, 0);
  h.ff(cb, /*fromByp=*/true);
  h.outConn(cb, CbOutPin::Ff, false, 1);
  h.pm(1, 1, 1, PmSwitch::WE);
  h.outputPad(1);
  h.padConn(1, false, 1);

  dev.setPadInput(0, true);
  dev.step();
  EXPECT_TRUE(dev.padValue(1));

  dev.setLogicBit(dev.layout().cbFieldBit(cb, CbField::InvByp), true);
  dev.step();
  EXPECT_FALSE(dev.padValue(1));  // inverted data captured
  dev.setLogicBit(dev.layout().cbFieldBit(cb, CbField::InvByp), false);
  dev.step();
  EXPECT_TRUE(dev.padValue(1));
}

TEST(Device, ShortCircuitDetected) {
  Device dev(DeviceSpec::small());
  Hand h(dev);
  // Two LUT outputs driving the same horizontal segment.
  h.lut(CbCoord{1, 1}, 0xFFFF);
  h.lut(CbCoord{2, 1}, 0x0000);
  h.outConn(CbCoord{1, 1}, CbOutPin::Lut, false, 0);  // HSeg(1,1,0)
  h.outConn(CbCoord{2, 1}, CbOutPin::Lut, false, 0);  // HSeg(2,1,0)
  h.pm(2, 1, 0, PmSwitch::WE);                        // join them
  EXPECT_THROW(dev.settle(), FadesError);
}

TEST(Device, WiredAndResolvesShort) {
  Device dev(DeviceSpec::small());
  dev.setShortPolicy(ShortPolicy::WiredAnd);
  Hand h(dev);
  h.lut(CbCoord{1, 1}, 0xFFFF);  // constant 1
  h.lut(CbCoord{2, 1}, 0x0000);  // constant 0
  h.outConn(CbCoord{1, 1}, CbOutPin::Lut, false, 0);
  h.outConn(CbCoord{2, 1}, CbOutPin::Lut, false, 0);
  h.pm(2, 1, 0, PmSwitch::WE);
  // Observe the shorted net through an output pad.
  h.pm(1, 1, 0, PmSwitch::WE);  // HSeg(0,1,0)
  h.outputPad(1);
  h.padConn(1, false, 0);
  dev.settle();
  EXPECT_FALSE(dev.padValue(1));  // 1 AND 0 = 0 (dominant low)
  dev.setShortPolicy(ShortPolicy::WiredOr);
  dev.settle();
  EXPECT_TRUE(dev.padValue(1));

  // A third driver on HSeg(3,1,0): the join is a chain of two gates, and
  // rewriting the drivers' tables leaves the gates alone.
  h.lut(CbCoord{3, 1}, 0x0000);
  h.outConn(CbCoord{3, 1}, CbOutPin::Lut, false, 0);
  h.pm(3, 1, 0, PmSwitch::WE);
  auto drive = [&](bool a, bool b, bool c) {
    h.lut(CbCoord{1, 1}, a ? 0xFFFF : 0x0000);
    h.lut(CbCoord{2, 1}, b ? 0xFFFF : 0x0000);
    h.lut(CbCoord{3, 1}, c ? 0xFFFF : 0x0000);
    dev.settle();
    return dev.padValue(1);
  };
  EXPECT_FALSE(drive(false, false, false));  // wired-OR
  EXPECT_TRUE(drive(false, false, true));
  EXPECT_TRUE(drive(true, false, false));
  EXPECT_EQ(dev.usedLutCount(), 3u);  // gates are not CB LUTs
  dev.setShortPolicy(ShortPolicy::WiredAnd);
  EXPECT_TRUE(drive(true, true, true));
  EXPECT_FALSE(drive(true, false, true));
  EXPECT_FALSE(drive(true, true, false));
  EXPECT_FALSE(drive(false, true, true));
}

TEST(Device, ShortedNetAddsNoLutDelay) {
  // Two constant LUTs short one net that feeds a flip-flop's BYP pin. The
  // wired join passes the drivers' arrival on without a LUT delay of its
  // own, so the FF's data arrives one LUT delay plus the wire after t=0.
  Device dev(DeviceSpec::small());
  dev.setShortPolicy(ShortPolicy::WiredAnd);
  dev.setTimingEnabled(true);
  Hand h(dev);
  const CbCoord a{1, 1}, b{2, 1};
  h.lut(a, 0xFFFF);
  h.lut(b, 0xFFFF);
  h.outConn(a, CbOutPin::Lut, false, 0);  // HSeg(1,1,0)
  h.outConn(b, CbOutPin::Lut, false, 0);  // HSeg(2,1,0)
  h.pm(2, 1, 0, PmSwitch::WE);
  h.inConn(b, CbInPin::Byp, false, 0);
  h.ff(b, /*fromByp=*/true);
  const double wire = dev.sinkDelayNs(dev.nodes().cbIn(b, CbInPin::Byp));
  EXPECT_GT(wire, 0.0);
  EXPECT_DOUBLE_EQ(dev.timingReport().maxArrivalNs,
                   dev.spec().lutDelayNs + wire);
  dev.step();
  EXPECT_TRUE(dev.ffState(b));  // 1 AND 1
}

TEST(Device, CombinationalLoopRejected) {
  Device dev(DeviceSpec::small());
  Hand h(dev);
  const CbCoord cb{1, 1};
  h.lut(cb, 0x5555);                         // NOT i0
  h.outConn(cb, CbOutPin::Lut, false, 0);    // out -> HSeg(1,1,0)
  h.inConn(cb, CbInPin::I0, false, 0);       // i0 <- HSeg(1,1,0): loop!
  EXPECT_THROW(dev.settle(), FadesError);
}

TEST(Device, CaptureFrameExposesLiveFfState) {
  Device dev(DeviceSpec::small());
  configureRegisteredBuffer(dev);
  dev.setPadInput(0, true);
  dev.step();
  const auto frame = dev.readCaptureFrame(2);
  EXPECT_TRUE((frame[2 >> 3] >> (2 & 7)) & 1u);  // CB(2,2) is row 2
  dev.setPadInput(0, false);
  dev.step();
  const auto frame2 = dev.readCaptureFrame(2);
  EXPECT_FALSE((frame2[0] >> 2) & 1u);
}

TEST(Device, BramContentIsConfigurationMemory) {
  Device dev(DeviceSpec::small());
  // Route block 0 DOUT0 (pin 28) to east pad row 11, leave ADDR/WE floating
  // (address 0, never written).
  Hand h(dev);
  dev.setLogicBit(dev.layout().bramFieldBit(0, BramField::Used), true);
  // widthSel = 3 -> 8-bit aspect.
  dev.setLogicBit(dev.layout().bramFieldBit(0, BramField::WidthSelLo) + 0, true);
  dev.setLogicBit(dev.layout().bramFieldBit(0, BramField::WidthSelLo) + 1, true);
  const unsigned dout0 = DeviceSpec::kBramAddrPins + DeviceSpec::kBramDataPins;
  const unsigned xb = dev.layout().bramPinColumn(0, dout0);  // 28 % 6 = 4
  ASSERT_EQ(xb, 4u);
  dev.setLogicBit(dev.layout().bramPinConnBit(0, dout0, false, 0), true);
  // Walk HSeg(4,12,0) .. HSeg(11,12,0), then down to VSeg(12,11,0).
  for (unsigned x = 5; x <= 11; ++x) h.pm(x, 12, 0, PmSwitch::WE);
  h.pm(12, 12, 0, PmSwitch::WS);
  h.outputPad(12 + 11);  // east pad, row 11
  h.padConn(12 + 11, true, 0);

  // Store 0x01 at row 0 through the content plane (plane B).
  dev.setBramBit(dev.layout().bramContentBit(0, 0), true);
  dev.settle();
  EXPECT_FALSE(dev.padValue(12 + 11));  // latch not loaded yet
  dev.step();
  EXPECT_TRUE(dev.padValue(12 + 11));  // synchronous read of row 0, bit 0

  // Flip the stored bit via plane B - the paper's memory bit-flip.
  dev.setBramBit(dev.layout().bramContentBit(0, 0), false);
  dev.step();
  EXPECT_FALSE(dev.padValue(12 + 11));
  EXPECT_EQ(dev.bramWord(0, 8, 0), 0u);
}

TEST(Device, FullBitstreamRoundTripAndReset) {
  Device dev(DeviceSpec::small());
  configureRegisteredBuffer(dev, /*srMode=*/true);
  dev.setPadInput(0, false);
  dev.step();
  EXPECT_FALSE(dev.ffState(CbCoord{2, 2}));

  const Bitstream bs = dev.readbackBitstream();
  Device dev2(DeviceSpec::small());
  dev2.writeFullBitstream(bs);
  // Configuration download asserts GSR: FF starts at SrMode (1).
  EXPECT_TRUE(dev2.ffState(CbCoord{2, 2}));
  dev2.setPadInput(0, true);
  dev2.step();
  EXPECT_TRUE(dev2.padValue(2));
  EXPECT_EQ(dev2.readbackBitstream().logic, bs.logic);
}

// ------------------------------------------------------ settle contract -----
//
// settles() counts network evaluations: a settled device evaluates once per
// step() and never again until its configuration, FF states, pad inputs or
// memory read latches change.

TEST(DeviceSettle, StepsCostOneEvaluationEach) {
  Device dev(DeviceSpec::small());
  configureRegisteredBuffer(dev);
  dev.setPadInput(0, true);
  dev.settle();
  const std::uint64_t before = dev.settles();
  for (int c = 0; c < 7; ++c) dev.step();
  EXPECT_EQ(dev.settles() - before, 7u);
  EXPECT_TRUE(dev.padValue(2));
}

TEST(DeviceSettle, UnchangedStateCostsNothing) {
  Device dev(DeviceSpec::small());
  configureInverter(dev);
  dev.setPadInput(0, true);
  dev.settle();
  const std::uint64_t before = dev.settles();
  dev.settle();
  const std::size_t lutBit = dev.layout().cbLutBit(CbCoord{1, 1}, 0);
  dev.setLogicBit(lutBit, dev.logicBit(lutBit));
  dev.settle();
  dev.setPadInput(0, true);
  dev.settle();
  EXPECT_EQ(dev.settles(), before);
  EXPECT_FALSE(dev.padValue(1));
}

TEST(DeviceSettle, ChangedTableOrPadCostsOneEvaluation) {
  Device dev(DeviceSpec::small());
  configureInverter(dev);
  dev.setPadInput(0, true);
  dev.settle();
  std::uint64_t before = dev.settles();
  Hand(dev).lut(CbCoord{1, 1}, 0xAAAA);  // buffer
  dev.settle();
  EXPECT_EQ(dev.settles() - before, 1u);
  EXPECT_TRUE(dev.padValue(1));
  before = dev.settles();
  dev.setPadInput(0, false);
  dev.settle();
  EXPECT_EQ(dev.settles() - before, 1u);
  EXPECT_FALSE(dev.padValue(1));
}

TEST(DeviceSettle, TimingModeSwitchTakesEffectAtTheNextEdge) {
  DeviceSpec spec = DeviceSpec::small();
  spec.clockPeriodNs = 1.0;  // every path is late
  Device dev(spec);
  configureRegisteredBuffer(dev);
  dev.setPadInput(0, true);
  dev.settle();
  dev.setTimingEnabled(true);
  dev.step();
  EXPECT_FALSE(dev.padValue(2));  // the late FF captured the previous D
}

TEST(DeviceSettle, FailedDownloadLeavesTheDeviceUnsettled) {
  Device shorted(DeviceSpec::small());
  Hand h(shorted);
  h.lut(CbCoord{1, 1}, 0xFFFF);
  h.lut(CbCoord{2, 1}, 0x0000);
  h.outConn(CbCoord{1, 1}, CbOutPin::Lut, false, 0);
  h.outConn(CbCoord{2, 1}, CbOutPin::Lut, false, 0);
  h.pm(2, 1, 0, PmSwitch::WE);
  Device dev(DeviceSpec::small());
  configureInverter(dev);
  dev.settle();
  EXPECT_THROW(dev.writeFullBitstream(shorted.readbackBitstream()),
               FadesError);
  EXPECT_THROW(dev.settle(), FadesError);  // not the old network's values
}

TEST(DeviceSettle, MemoryContentWriteCostsNothingAndIsReadNextEdge) {
  // Memory contents are not network inputs (the read latch is), so a
  // plane-B write leaves the device settled; the next edge reads it.
  Device dev(DeviceSpec::small());
  Hand h(dev);
  const auto& l = dev.layout();
  dev.setLogicBit(l.bramFieldBit(0, BramField::Used), true);
  dev.setLogicBit(l.bramFieldBit(0, BramField::WidthSelLo) + 0, true);
  dev.setLogicBit(l.bramFieldBit(0, BramField::WidthSelLo) + 1, true);
  const unsigned dout0 = DeviceSpec::kBramAddrPins + DeviceSpec::kBramDataPins;
  dev.setLogicBit(l.bramPinConnBit(0, dout0, false, 0), true);
  for (unsigned x = 5; x <= 11; ++x) h.pm(x, 12, 0, PmSwitch::WE);
  h.pm(12, 12, 0, PmSwitch::WS);
  h.outputPad(12 + 11);
  h.padConn(12 + 11, true, 0);
  dev.settle();
  const std::uint64_t before = dev.settles();
  dev.setBramBit(l.bramContentBit(0, 0), true);
  std::vector<std::uint8_t> frame = dev.readBramFrame(0, 0);
  frame[0] |= 0x02;  // row 0, bit 1
  dev.writeBramFrame(0, 0, frame);
  dev.settle();
  EXPECT_EQ(dev.settles(), before);
  EXPECT_FALSE(dev.padValue(12 + 11));  // latch not loaded yet
  dev.step();
  EXPECT_EQ(dev.settles() - before, 1u);
  EXPECT_TRUE(dev.padValue(12 + 11));
  EXPECT_EQ(dev.bramWord(0, 8, 0), 0x03u);
}

TEST(Device, StateCaptureRestoreReplays) {
  Device dev(DeviceSpec::small());
  configureRegisteredBuffer(dev);
  dev.setPadInput(0, true);
  dev.step();
  const DeviceState st = dev.captureState();
  dev.setPadInput(0, false);
  dev.step();
  EXPECT_FALSE(dev.padValue(2));
  dev.restoreState(st);
  EXPECT_EQ(dev.cycle(), 1u);
  EXPECT_TRUE(dev.padValue(2));
}

// -------------------------------------------------------------- timing -----

TEST(Device, FanoutTransistorIncreasesDelay) {
  Device dev(DeviceSpec::small());
  configureInverter(dev);
  dev.setTimingEnabled(true);
  dev.settle();
  const auto sink = dev.nodes().cbIn(CbCoord{1, 1}, CbInPin::I0);
  const double before = dev.sinkDelayNs(sink);
  EXPECT_GT(before, 0.0);

  // Turn ON an unused pass transistor touching the net (Figure 8): the
  // extra load must increase the propagation delay slightly.
  Hand h(dev);
  h.pm(1, 1, 0, PmSwitch::EN);  // dangling VSeg(1,1,0) attached to the path
  dev.settle();
  const double after = dev.sinkDelayNs(sink);
  EXPECT_GT(after, before);
  EXPECT_LT(after - before, 1.0);  // a small delay, as the paper requires
}

TEST(Device, LongerRouteIncreasesDelayMore) {
  Device devShort(DeviceSpec::small());
  configureInverter(devShort);
  devShort.setTimingEnabled(true);
  devShort.settle();
  const double shortDelay = devShort.sinkDelayNs(
      devShort.nodes().cbIn(CbCoord{1, 1}, CbInPin::I0));

  // Same circuit, but the input routed the long way around (more segments).
  Device dev(DeviceSpec::small());
  Hand h(dev);
  const CbCoord cb{1, 1};
  h.inputPad(0);
  h.padConn(0, true, 0);  // VSeg(0,0,0)
  h.pm(0, 1, 0, PmSwitch::NS);
  h.pm(0, 2, 0, PmSwitch::NS);
  h.pm(0, 3, 0, PmSwitch::ES);  // -> HSeg(0,3,0)
  h.pm(1, 3, 0, PmSwitch::WS);  // -> VSeg(1,2,0)
  h.pm(1, 2, 0, PmSwitch::NS);  // -> VSeg(1,1,0)
  h.pm(1, 1, 0, PmSwitch::EN);  // -> HSeg(1,1,0)
  h.inConn(cb, CbInPin::I0, false, 0);
  h.lut(cb, 0x5555);
  h.outConn(cb, CbOutPin::Lut, false, 1);
  h.pm(1, 1, 1, PmSwitch::WE);
  h.outputPad(1);
  h.padConn(1, false, 1);
  dev.setTimingEnabled(true);
  dev.settle();
  const double longDelay =
      dev.sinkDelayNs(dev.nodes().cbIn(cb, CbInPin::I0));
  EXPECT_GT(longDelay, shortDelay + 3 * dev.spec().segmentDelayNs);
  // Functionality unchanged by the detour.
  dev.setPadInput(0, true);
  dev.settle();
  EXPECT_FALSE(dev.padValue(1));
}

TEST(Device, LateFfCapturesStaleValue) {
  // Shrink the clock period so the registered buffer's path misses setup:
  // the FF must capture the previous cycle's data (delay-fault mechanism).
  DeviceSpec spec = DeviceSpec::small();
  spec.clockPeriodNs = 1.0;  // absurdly fast clock: every path is late
  Device dev(spec);
  configureRegisteredBuffer(dev);
  dev.setTimingEnabled(true);
  dev.setPadInput(0, true);
  dev.step();
  // With timing on and the path late, the FF captured the stale (previous)
  // D value, which was 0.
  EXPECT_FALSE(dev.padValue(2));
  dev.step();
  EXPECT_TRUE(dev.padValue(2));  // arrives one cycle later
  EXPECT_GE(dev.timingReport().lateFfCount, 1u);
}

TEST(Device, TimingOffMeansIdealCapture) {
  DeviceSpec spec = DeviceSpec::small();
  spec.clockPeriodNs = 1.0;
  Device dev(spec);
  configureRegisteredBuffer(dev);
  dev.setPadInput(0, true);
  dev.step();
  EXPECT_TRUE(dev.padValue(2));
}

// ------------------------------------------- timing-mode replica state -----
//
// A late flip-flop captures the previous cycle's D value, so that value is
// dynamic state: a checkpoint restore and a topology rebuild that changes
// nothing functional must both leave the next cycles exactly as an
// uninterrupted run would produce them.

/// 8-bit LFSR + 4-bit counter on the small device, clocked fast enough that
/// some flip-flops miss setup.
struct LateDesign {
  synth::Implementation impl;
  DeviceSpec spec;

  static netlist::Netlist build() {
    rtl::Builder b;
    rtl::Register lfsr = b.makeRegister("lfsr", 8, 1);
    rtl::Register cnt = b.makeRegister("cnt", 4, 0);
    auto fb = b.lxor(lfsr.q[7],
                     b.lxor(lfsr.q[5], b.lxor(lfsr.q[4], lfsr.q[3])));
    rtl::Bus next{fb};
    for (int i = 0; i < 7; ++i) next.push_back(lfsr.q[i]);
    b.connect(lfsr, next);
    b.connect(cnt, b.increment(cnt.q));
    b.output("lfsr", lfsr.q);
    b.output("cnt", cnt.q);
    return b.finish();
  }

  LateDesign() : impl(synth::implement(build(), DeviceSpec::small())) {
    spec = impl.spec;
    spec.clockPeriodNs = 8.0;
  }

  /// A configured device in timing mode, stepped to `cycles`.
  Device device(unsigned cycles) const {
    Device dev(spec);
    dev.writeFullBitstream(impl.bitstream);
    dev.setTimingEnabled(true);
    for (unsigned c = 0; c < cycles; ++c) dev.step();
    return dev;
  }

  /// Flip-flop states, one '0'/'1' per flop, after each of the next
  /// `cycles` clock edges.
  std::vector<std::string> trace(Device& dev, unsigned cycles) const {
    std::vector<std::string> out;
    for (unsigned c = 0; c < cycles; ++c) {
      dev.step();
      std::string state;
      for (const auto& f : impl.flops) state += dev.ffState(f.cb) ? '1' : '0';
      out.push_back(state);
    }
    return out;
  }
};

TEST(DeviceTimingState, CheckpointRestoreKeepsLateCaptures) {
  const LateDesign d;
  Device ref = d.device(6);
  ASSERT_EQ(ref.timingReport().lateFfCount, 2u);
  const DeviceState st = ref.captureState();
  const auto expected = d.trace(ref, 5);

  // Restore into a replica whose own history differs from the checkpoint.
  Device replica = d.device(11);
  replica.restoreState(st);
  EXPECT_EQ(d.trace(replica, 5), expected);
}

TEST(DeviceTimingState, NeutralRebuildKeepsLateCaptures) {
  const LateDesign d;
  Device ref = d.device(6);
  ASSERT_EQ(ref.timingReport().lateFfCount, 2u);
  const auto expected = d.trace(ref, 5);

  // Same history, then a spare CB's flip-flop is switched on and off again:
  // two topology rebuilds that leave the circuit functionally unchanged.
  Device dev = d.device(6);
  CbCoord spare{};
  bool found = false;
  for (std::uint16_t x = 0; x < dev.spec().cols && !found; ++x) {
    for (std::uint16_t y = 0; y < dev.spec().rows && !found; ++y) {
      const CbCoord cb{x, y};
      const auto& l = dev.layout();
      if (!dev.logicBit(l.cbFieldBit(cb, CbField::FfUsed)) &&
          !dev.logicBit(l.cbFieldBit(cb, CbField::LutUsed))) {
        spare = cb;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  const std::size_t bit = dev.layout().cbFieldBit(spare, CbField::FfUsed);
  dev.setLogicBit(bit, true);
  dev.settle();
  dev.setLogicBit(bit, false);
  dev.settle();
  EXPECT_EQ(d.trace(dev, 5), expected);
}

// --------------------------------------------------------- golden trace -
// What FADES' golden trace and early stop read from a device: the
// configuration predicate, the plane-B change list and the packed state.

TEST(DeviceGoldenTrace, ConfigPredicateTracksTogglesSinceDownload) {
  const LateDesign d;
  Device dev(d.spec);
  EXPECT_FALSE(dev.configIsDownloaded());  // nothing downloaded yet
  dev.writeFullBitstream(d.impl.bitstream);
  EXPECT_TRUE(dev.configIsDownloaded());

  const std::size_t a = dev.layout().cbLutBit(d.impl.luts[0].cb, 3);
  const std::size_t b =
      dev.layout().cbFieldBit(d.impl.flops[0].cb, CbField::SrMode);
  const bool a0 = dev.logicBit(a), b0 = dev.logicBit(b);
  dev.setLogicBit(a, a0);  // no change, no toggle
  EXPECT_TRUE(dev.configIsDownloaded());
  dev.setLogicBit(a, !a0);
  dev.setLogicBit(b, !b0);
  EXPECT_FALSE(dev.configIsDownloaded());
  dev.setLogicBit(a, a0);
  EXPECT_FALSE(dev.configIsDownloaded());  // b is still off the download
  dev.setLogicBit(b, b0);
  EXPECT_TRUE(dev.configIsDownloaded());

  // A frame write counts bit by bit; stepping changes no configuration.
  const FrameAddr f = dev.layout().frameOfLogicBit(a);
  auto frame = dev.readLogicFrame(f);
  dev.writeLogicFrame(f, frame);
  dev.step();
  EXPECT_TRUE(dev.configIsDownloaded());
  const std::size_t rel = a - dev.layout().logicFrameFirstBit(f);
  frame[rel >> 3] ^= static_cast<std::uint8_t>(1u << (rel & 7));
  dev.writeLogicFrame(f, frame);
  EXPECT_FALSE(dev.configIsDownloaded());
  dev.writeFullBitstream(d.impl.bitstream);
  EXPECT_TRUE(dev.configIsDownloaded());
}

TEST(DeviceGoldenTrace, EveryPlaneBWriteIsReportedOnce) {
  rtl::Builder b;
  rtl::Register cnt = b.makeRegister("cnt", 4, 0);
  b.connect(cnt, b.increment(cnt.q));
  b.ram("log", 4, 8, cnt.q, b.zeroExtend(cnt.q, 8), b.one());
  b.output("out", cnt.q);
  const auto impl = synth::implement(b.finish(), DeviceSpec::small());
  ASSERT_EQ(impl.rams.size(), 1u);
  const unsigned block = impl.rams[0].slices[0].block;
  Device dev(impl.spec);
  dev.writeFullBitstream(impl.bitstream);
  EXPECT_TRUE(dev.changedBramWords().empty());

  auto reported = [&] {
    const auto w = dev.changedBramWords();
    return std::set<std::uint32_t>(w.begin(), w.end());
  };
  // Clock edges: the RAM writes row cnt each cycle.
  dev.step();
  dev.step();
  const std::size_t row1 = dev.layout().bramContentBit(block, 1 * 8);
  EXPECT_EQ(reported(), (std::set<std::uint32_t>{
                            static_cast<std::uint32_t>(row1 >> 6)}));
  dev.clearChangedBramWords();
  EXPECT_TRUE(dev.changedBramWords().empty());

  // A bit write, and a frame write: every word the frame covers, once.
  const std::size_t bit = dev.layout().bramContentBit(block, 700);
  dev.setBramBit(bit, true);
  dev.setBramBit(bit, false);
  EXPECT_EQ(dev.changedBramWords().size(), 1u);
  dev.writeBramFrame(block, 1, dev.readBramFrame(block, 1));
  const std::size_t first =
      dev.layout().bramContentBit(block, dev.layout().frameBits());
  std::set<std::uint32_t> frameWords{static_cast<std::uint32_t>(bit >> 6)};
  for (unsigned k = 0; k < dev.layout().frameBits(); k += 64) {
    frameWords.insert(static_cast<std::uint32_t>((first + k) >> 6));
  }
  EXPECT_EQ(reported(), frameWords);
  EXPECT_EQ(dev.changedBramWords().size(), frameWords.size());

  // A restore replaces the whole plane and starts a fresh list.
  dev.restoreState(dev.captureState());
  EXPECT_TRUE(dev.changedBramWords().empty());
}

TEST(DeviceGoldenTrace, PackedStateLoadsWithOneEvaluation) {
  // A packed row carries flip-flops, latches and previous D values, so a
  // device whose own history differs resumes the late captures exactly.
  const LateDesign d;
  Device ref = d.device(6);
  ASSERT_EQ(ref.timingReport().lateFfCount, 2u);
  std::vector<std::uint64_t> row;
  ref.appendPackedState(row);
  EXPECT_TRUE(ref.packedStateMatches(row));
  const DeviceState want = ref.captureState();

  Device replica = d.device(11);
  DeviceState base = d.device(0).captureState();
  base.cycle = 6;
  const std::uint64_t before = replica.settles();
  replica.restoreState(base, row);
  EXPECT_EQ(replica.settles() - before, 1u);
  const DeviceState got = replica.captureState();
  EXPECT_EQ(got.ffState, want.ffState);
  EXPECT_EQ(got.prevD, want.prevD);
  EXPECT_EQ(got.cycle, 6u);
  EXPECT_EQ(d.trace(replica, 5), d.trace(ref, 5));
  EXPECT_FALSE(ref.packedStateMatches(row));  // the LFSR moved on

  row.pop_back();
  EXPECT_THROW(replica.restoreState(base, row), FadesError);
}

}  // namespace
}  // namespace fades::fpga
