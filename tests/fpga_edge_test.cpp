// Edge-case and error-path tests for the FPGA substrate: partial frames,
// invalid addresses, boundary pass transistors, spec validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "fpga/device.hpp"
#include "fpga/layout.hpp"

namespace fades::fpga {
namespace {

using common::FadesError;

TEST(LayoutEdge, LastMinorOfColumnMayBePartial) {
  ConfigLayout l(DeviceSpec::small());
  for (unsigned col = 0; col <= l.spec().cols; ++col) {
    const unsigned minors = l.minorsOfColumn(col);
    ASSERT_GT(minors, 0u);
    unsigned total = 0;
    for (unsigned m = 0; m < minors; ++m) {
      const unsigned bits =
          l.logicFrameBitCount(FrameAddr{Plane::Logic, col, m});
      ASSERT_GT(bits, 0u);
      ASSERT_LE(bits, l.frameBits());
      if (m + 1 < minors) {
        EXPECT_EQ(bits, l.frameBits());
      }
      total += bits;
    }
    // Frames tile the column exactly.
    const std::size_t colBits =
        l.logicFrameFirstBit(FrameAddr{Plane::Logic, col, minors - 1}) +
        l.logicFrameBitCount(FrameAddr{Plane::Logic, col, minors - 1}) -
        l.logicFrameFirstBit(FrameAddr{Plane::Logic, col, 0});
    EXPECT_EQ(total, colBits);
  }
}

TEST(LayoutEdge, EveryLogicBitMapsIntoItsFrame) {
  ConfigLayout l(DeviceSpec::small());
  // Walk a sample of addresses including the very last bit.
  for (std::size_t bit :
       {std::size_t{0}, l.logicPlaneBits() / 3, l.logicPlaneBits() / 2,
        l.logicPlaneBits() - 1}) {
    const FrameAddr f = l.frameOfLogicBit(bit);
    const std::size_t first = l.logicFrameFirstBit(f);
    EXPECT_LE(first, bit);
    EXPECT_LT(bit - first, l.logicFrameBitCount(f));
  }
  EXPECT_THROW(l.frameOfLogicBit(l.logicPlaneBits()), FadesError);
}

TEST(LayoutEdge, SpecValidationRejectsBadGeometry) {
  DeviceSpec bad = DeviceSpec::small();
  bad.cols = 13;  // not a multiple of memBlocks (2)
  EXPECT_THROW(ConfigLayout{bad}, FadesError);
  DeviceSpec tiny = DeviceSpec::small();
  tiny.rows = 1;
  EXPECT_THROW(ConfigLayout{tiny}, FadesError);
  DeviceSpec crowded = DeviceSpec::small();
  crowded.memBlocks = 6;  // 12 cols / 6 = 2 columns per block: too few
  EXPECT_THROW(ConfigLayout{crowded}, FadesError);
}

TEST(DeviceEdge, BoundaryPmSwitchesAreInert) {
  Device dev(DeviceSpec::small());
  const auto& l = dev.layout();
  // PM(0, 0) has no west or south segment: WE / NS / WS must decode as
  // non-transistors (setting them changes nothing electrically).
  for (PmSwitch sw : {PmSwitch::WE, PmSwitch::NS, PmSwitch::WS}) {
    const auto m = dev.decodeLogicBit(l.pmSwitchBit(PmCoord{0, 0}, 0, sw));
    EXPECT_FALSE(m.isTransistor);
  }
  // EN at PM(0,0) connects HSeg(0,0) and VSeg(0,0): real.
  const auto en =
      dev.decodeLogicBit(l.pmSwitchBit(PmCoord{0, 0}, 0, PmSwitch::EN));
  EXPECT_TRUE(en.isTransistor);
}

TEST(DeviceEdge, FrameWriteRejectsShortPayload) {
  Device dev(DeviceSpec::small());
  std::vector<std::uint8_t> tooShort(3, 0);
  EXPECT_THROW(dev.writeLogicFrame(FrameAddr{Plane::Logic, 0, 0}, tooShort),
               FadesError);
}

TEST(DeviceEdge, BramFrameAddressValidation) {
  Device dev(DeviceSpec::small());
  EXPECT_THROW(dev.readBramFrame(99, 0), FadesError);
  EXPECT_THROW(dev.readBramFrame(0, 999), FadesError);
  std::vector<std::uint8_t> frame(dev.spec().frameBytes, 0xFF);
  EXPECT_THROW(dev.writeBramFrame(99, 0, frame), FadesError);
  EXPECT_NO_THROW(dev.writeBramFrame(0, 0, frame));
  EXPECT_TRUE(dev.bramBit(0));
}

TEST(DeviceEdge, CaptureFrameColumnValidation) {
  Device dev(DeviceSpec::small());
  EXPECT_THROW(dev.readCaptureFrame(dev.spec().cols), FadesError);
}

TEST(DeviceEdge, StateRestoreShapeChecked) {
  Device a(DeviceSpec::small());
  Device b(DeviceSpec::medium());
  const auto state = b.captureState();
  EXPECT_THROW(a.restoreState(state), FadesError);
}

TEST(DeviceEdge, BitstreamSizeChecked) {
  Device dev(DeviceSpec::small());
  Bitstream wrong{common::BitVector(10), common::BitVector(10)};
  EXPECT_THROW(dev.writeFullBitstream(wrong), FadesError);
}

TEST(DeviceEdge, PadIndexValidation) {
  Device dev(DeviceSpec::small());
  EXPECT_THROW(dev.setPadInput(dev.spec().padCount(), true), FadesError);
}

TEST(DeviceEdge, UnconnectedFabricReadsZero) {
  // An output pad connected to a floating (driverless) segment reads 0.
  Device dev(DeviceSpec::small());
  dev.setLogicBit(dev.layout().padFieldBit(3, PadField::Used), true);
  dev.setLogicBit(dev.layout().padFieldBit(3, PadField::IsOutput), true);
  dev.setLogicBit(dev.layout().padConnBit(3, false, 2), true);
  dev.settle();
  EXPECT_FALSE(dev.padValue(3));
}

}  // namespace
}  // namespace fades::fpga
