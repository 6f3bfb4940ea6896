// Campaign worker daemon.
//
// Connects to a fades_coordinator, leases blocks of experiments, runs them
// through campaign::runLease (campaign_8051's executor and attempt budget)
// and streams the outcomes back. Exits 0 when the coordinator says
// shutdown, 1 when the reconnect budget runs out.
//
// Usage:
//   fades_worker --port P [--host H] [--name NAME] [--max-reconnects N]
//                [--tamper]
//     --port     coordinator port, 1-65535
//     --name     stable worker identity (default worker-<pid>); strikes,
//                backoff and bans attach to it across reconnects
//     --max-reconnects give up after N consecutive failed connects
//                (default 0 = keep trying until killed)
//     --tamper   lie about every outcome (byzantine-worker test mode: the
//                experiments run honestly, the streamed results are
//                falsified)
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/types.hpp"
#include "common/error.hpp"
#include "service/jobspec.hpp"
#include "service/worker.hpp"

using namespace fades;

namespace {

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: fades_worker --port P [--host H] [--name NAME]\n"
               "                    [--max-reconnects N] [--tamper]\n",
               message.c_str());
  std::exit(2);
}

/// A whole decimal in [lo, hi] by service::parseCount's rules; anything
/// else is a usage error.
unsigned parseNumber(const char* text, const char* what, unsigned lo,
                     unsigned hi) {
  unsigned value = 0;
  if (!service::parseCount(text, value, lo, hi)) {
    usageError(std::string(what) + " expects " + std::to_string(lo) + "-" +
               std::to_string(hi) + ", got '" + text + "'");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  service::WorkerOptions opt;
  bool tamper = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usageError(a + " needs a value");
      return argv[++i];
    };
    if (a == "--port") {
      opt.port =
          static_cast<std::uint16_t>(parseNumber(value(), "--port", 1, 65535));
    } else if (a == "--host") {
      opt.host = value();
    } else if (a == "--name") {
      opt.name = value();
    } else if (a == "--max-reconnects") {
      opt.maxReconnects = parseNumber(value(), "--max-reconnects", 0, UINT_MAX);
    } else if (a == "--tamper") {
      tamper = true;
    } else {
      usageError("unknown flag '" + a + "'");
    }
  }
  if (opt.port == 0) usageError("--port is required");
  if (tamper) {
    // The canonical lie: report every failure as silent (and vice versa).
    // Honest workers reproduce each other's digests bit-exactly, so any
    // deterministic falsification is detected the same way.
    opt.tamper = [](campaign::ExperimentOutcome& outcome) {
      if (outcome.quarantined) return;
      outcome.outcome = outcome.outcome == campaign::Outcome::Silent
                            ? campaign::Outcome::Failure
                            : campaign::Outcome::Silent;
      if (outcome.hasRecord) outcome.record.outcome = outcome.outcome;
    };
  }

  try {
    service::WorkerDaemon worker(std::move(opt));
    return worker.run();
  } catch (const common::FadesError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
