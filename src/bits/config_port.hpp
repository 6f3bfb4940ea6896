// JBits-style run-time reconfiguration interface.
//
// The paper's FADES tool manipulates the FPGA through the JBits package and
// the board's XHWIF interface: read a configuration frame back, modify bits,
// write the frame again, or download a complete configuration file. The
// emulation-time results of Section 6.2 are dominated by how much data moves
// across this interface, so ConfigPort meters every byte and every operation;
// the cost model in src/core converts the meter into modeled seconds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "fpga/device.hpp"
#include "obs/metrics.hpp"

namespace fades::bits {

using fpga::CbCoord;
using fpga::CbField;
using fpga::Device;
using fpga::FrameAddr;

/// Accumulated transfer statistics across the host <-> board link.
struct TransferMeter {
  std::uint64_t bytesToDevice = 0;
  std::uint64_t bytesFromDevice = 0;
  std::uint32_t writeOps = 0;
  std::uint32_t readOps = 0;
  std::uint32_t captureOps = 0;  // state read-back (capture plane) operations
  std::uint32_t commandOps = 0;  // GSR pulses and similar control packets
  std::uint32_t sessions = 0;    // reconfiguration sessions (driver round-trips)

  // Unreliable-link accounting. Kept separate from the logical-operation
  // fields above so that BoardLink::seconds() - and therefore modeled
  // seconds, outcomes and artifacts - stays bit-identical to a fault-free
  // run. Retry overhead is observable here and in the metrics registry, not
  // in the experiment's modeled budget.
  std::uint32_t linkFaults = 0;       // faulted link transfer attempts
  std::uint32_t retryOps = 0;         // re-issued transfer attempts
  std::uint64_t retryBytes = 0;       // bytes moved by re-issued attempts
  double retryBackoffSeconds = 0.0;   // modeled backoff sleep time

  void reset() { *this = TransferMeter{}; }
  TransferMeter& operator+=(const TransferMeter& o) {
    bytesToDevice += o.bytesToDevice;
    bytesFromDevice += o.bytesFromDevice;
    writeOps += o.writeOps;
    readOps += o.readOps;
    captureOps += o.captureOps;
    commandOps += o.commandOps;
    sessions += o.sessions;
    linkFaults += o.linkFaults;
    retryOps += o.retryOps;
    retryBytes += o.retryBytes;
    retryBackoffSeconds += o.retryBackoffSeconds;
    return *this;
  }
};

/// Deterministic unreliable-link model. Each link transfer attempt draws
/// from a dedicated fault stream (seeded via seedLinkStream(), never the
/// experiment RNG): reads/captures can come back with a CRC mismatch,
/// writes/commands can fail transiently, and any operation can hit a
/// stuck/timeout condition. Faulted attempts are retried with bounded
/// exponential backoff per RetryPolicy; a fault surviving the whole retry
/// budget raises common::ErrorKind::LinkError.
struct LinkFaultOptions {
  double readCrcRate = 0.0;   // P(readback CRC mismatch) per read/capture
  double writeFailRate = 0.0; // P(transient write failure) per write/command
  double timeoutRate = 0.0;   // P(stuck link / timeout) per any transfer
  bool enabled() const {
    return readCrcRate > 0.0 || writeFailRate > 0.0 || timeoutRate > 0.0;
  }
};

/// Write-verify-retry policy for faulted link transfers. The backoff is
/// modeled (charged to TransferMeter::retryBackoffSeconds), not slept.
struct RetryPolicy {
  unsigned maxRetries = 8;  // re-issues per operation before LinkError
};

/// Transfer-cost model for the host <-> prototyping-board link (the paper's
/// RC1000-PP + XHWIF). Captures per-operation driver latency, sustained
/// bandwidth, the fixed cost of opening a reconfiguration session, and the
/// extra latency of read-back capture (which on Virtex-class parts flushes
/// the capture plane before data can move).
struct BoardLink {
  // Calibrated against the paper's Table 2 decomposition (see
  // EXPERIMENTS.md): the per-fault means they report separate cleanly into
  // a shared floor (reset + trace + state read-back + host bookkeeping),
  // per-frame operation latency, capture-trigger latency, and session
  // (driver round-trip) cost, at a SelectMAP-class sustained bandwidth.
  double bytesPerSecond = 3.5e6;     // sustained configuration bandwidth
  double perOpSeconds = 0.010;       // per read/write/command round-trip
  double perSessionSeconds = 0.060;  // JBits/driver session setup+teardown
  double perCaptureSeconds = 0.050;  // state read-back trigger latency

  double seconds(const TransferMeter& m) const {
    return static_cast<double>(m.bytesToDevice + m.bytesFromDevice) /
               bytesPerSecond +
           perOpSeconds * (m.writeOps + m.readOps + m.commandOps) +
           perCaptureSeconds * m.captureOps +
           perSessionSeconds * m.sessions;
  }
};

// Every frame read and write goes straight to the Device; the port meters
// each logical operation on the way. Every meter mutation is mirrored into
// the process-wide metrics registry (config.bytes_written, config.read_ops,
// ...), so campaign-scale traffic shows up in metrics snapshots and run
// artifacts without any extra plumbing. The per-port TransferMeter keeps
// per-experiment resolution; the registry keeps the process totals.
class ConfigPort {
 public:
  explicit ConfigPort(Device& device)
      : dev_(device),
        cBytesWritten_(obs::Registry::global().counter("config.bytes_written")),
        cBytesRead_(obs::Registry::global().counter("config.bytes_read")),
        cWriteOps_(obs::Registry::global().counter("config.write_ops")),
        cReadOps_(obs::Registry::global().counter("config.read_ops")),
        cCaptureOps_(obs::Registry::global().counter("config.capture_ops")),
        cCommandOps_(obs::Registry::global().counter("config.command_ops")),
        cSessions_(obs::Registry::global().counter("config.sessions")),
        cLinkFaults_(
            obs::Registry::global().counter("config.link_faults_injected")),
        cRetries_(obs::Registry::global().counter("config.retries")) {}

  Device& device() { return dev_; }
  const TransferMeter& meter() const { return meter_; }
  void resetMeter() { meter_.reset(); }

  /// Enable/disable the deterministic unreliable-link model. Rates of zero
  /// (the default) disable it entirely; the fault-free fast path costs one
  /// branch per operation.
  void setLinkFaults(const LinkFaultOptions& opts) {
    linkFaults_ = opts;
    linkActive_ = opts.enabled();
  }
  const LinkFaultOptions& linkFaults() const { return linkFaults_; }
  void setRetryPolicy(const RetryPolicy& policy) { retry_ = policy; }
  /// Re-seed the link fault stream. Campaign runners call this once per
  /// (experiment index, rerun attempt) so the fault pattern an experiment
  /// sees is a pure function of the campaign spec - independent of shard
  /// count and execution order.
  void seedLinkStream(std::uint64_t seed) { linkRng_ = common::Rng(seed); }

  /// Meter the start of a reconfiguration session (one injector action such
  /// as "inject fault" or "remove fault" is one session).
  void beginSession() {
    ++meter_.sessions;
    cSessions_.inc();
  }

  // --- frame-level transfers --------------------------------------------
  std::vector<std::uint8_t> readLogicFrame(FrameAddr f);
  void writeLogicFrame(FrameAddr f, std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> readBramFrame(unsigned block, unsigned minor);
  void writeBramFrame(unsigned block, unsigned minor,
                      std::span<const std::uint8_t> bytes);
  std::vector<std::uint8_t> readCaptureFrame(unsigned col);

  void writeFullBitstream(const fpga::Bitstream& bs);
  fpga::Bitstream readbackFull();

  void pulseGsr();

  // --- JBits-style convenience helpers ------------------------------------
  // Each helper performs real frame traffic (read-modify-write), so the
  // meter reflects what the operation would actually cost on hardware.

  std::uint16_t getLutTable(CbCoord cb);
  void setLutTable(CbCoord cb, std::uint16_t table);
  bool getCbFieldBit(CbCoord cb, CbField field);
  void setCbFieldBit(CbCoord cb, CbField field, bool value);
  /// Live state of one flip-flop via the capture plane.
  bool readFfState(CbCoord cb);
  /// Read or flip one stored memory-block bit via plane-B frames.
  bool getBramBit(unsigned block, unsigned bit);
  void setBramBit(unsigned block, unsigned bit, bool value);
  /// Set or clear an arbitrary plane-A configuration bit (used by routing
  /// faults to toggle individual pass transistors).
  void setLogicBit(std::size_t addr, bool value);
  bool getLogicBit(std::size_t addr);
  /// Batched plane-A bit update: one read-modify-write PER TOUCHED FRAME,
  /// the way a real tool coalesces JBits updates. Returns frames written.
  unsigned setLogicBits(
      std::span<const std::pair<std::size_t, bool>> updates);
  /// Update several CB fields of one block with a single read-modify-write.
  void updateCbFields(
      CbCoord cb,
      std::span<const std::pair<CbField, bool>> fields);

  // --- mirror-based (blind) writes -----------------------------------------
  // The tool generated the bitstream, so it holds a host-side mirror of the
  // configuration (read here, unmetered, from the Device); writes that need
  // no fresh device data (e.g. the randomizer-driven indetermination values
  // of Section 4.4) can skip the read-back half of the read-modify-write.
  void setLutTableBlind(CbCoord cb, std::uint16_t table);
  void updateCbFieldsBlind(
      CbCoord cb, std::span<const std::pair<CbField, bool>> fields);
  void setLogicBitsBlind(
      std::span<const std::pair<std::size_t, bool>> updates);

  // --- pure accounting -----------------------------------------------------
  // Charge the meter for traffic whose effect is handled elsewhere (e.g. the
  // full-bitstream fallback download of the delay injector, or the modeled
  // re-initialization between experiments when the host replays state).
  void chargeWrite(std::uint64_t bytes) { noteWrite(bytes); }
  void chargeRead(std::uint64_t bytes) { noteRead(bytes); }
  void chargeCapture(std::uint64_t bytes) { noteCapture(bytes); }
  void chargeCommand() { noteCommand(8); }
  void chargeFullImage() { chargeWrite(dev_.layout().totalConfigBytes()); }

 private:
  /// Read-modify-write one plane-A bit through its containing frame.
  void rmwLogicBit(std::size_t addr, bool value);

  // Unreliable-link attempt loop: draws from the dedicated link fault
  // stream, charges retries to the retry-only meter fields, raises
  // LinkError once the retry budget is spent. Called before the successful
  // attempt is accounted, so a metered operation is always one that (after
  // zero or more modeled retries) completed.
  enum class LinkOp { Write, Read, Capture, Command };
  void linkTransfer(LinkOp op, std::uint64_t bytes);

  // Meter + registry accounting for one operation of each class.
  void noteWrite(std::uint64_t bytes) {
    if (linkActive_) linkTransfer(LinkOp::Write, bytes);
    ++meter_.writeOps;
    meter_.bytesToDevice += bytes;
    cWriteOps_.inc();
    cBytesWritten_.add(bytes);
  }
  void noteRead(std::uint64_t bytes) {
    if (linkActive_) linkTransfer(LinkOp::Read, bytes);
    ++meter_.readOps;
    meter_.bytesFromDevice += bytes;
    cReadOps_.inc();
    cBytesRead_.add(bytes);
  }
  void noteCapture(std::uint64_t bytes) {
    if (linkActive_) linkTransfer(LinkOp::Capture, bytes);
    ++meter_.captureOps;
    meter_.bytesFromDevice += bytes;
    cCaptureOps_.inc();
    cBytesRead_.add(bytes);
  }
  void noteCommand(std::uint64_t bytes) {
    if (linkActive_) linkTransfer(LinkOp::Command, bytes);
    ++meter_.commandOps;
    meter_.bytesToDevice += bytes;
    cCommandOps_.inc();
    cBytesWritten_.add(bytes);
  }

  Device& dev_;
  TransferMeter meter_;
  bool linkActive_ = false;
  LinkFaultOptions linkFaults_;
  RetryPolicy retry_;
  common::Rng linkRng_{0};
  obs::Counter& cBytesWritten_;
  obs::Counter& cBytesRead_;
  obs::Counter& cWriteOps_;
  obs::Counter& cReadOps_;
  obs::Counter& cCaptureOps_;
  obs::Counter& cCommandOps_;
  obs::Counter& cSessions_;
  obs::Counter& cLinkFaults_;
  obs::Counter& cRetries_;
};

}  // namespace fades::bits
