#!/usr/bin/env python3
"""Campaign benchmark: build, run one workload, check it, print the result.

Usage (from the repository root):

  python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 campaign_bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
  python3 campaign_bench/run.py --self-test
  python3 campaign_bench/run.py --record-reference SEED [SEED ...]

The first form is the benchmark proper. It builds campaign_bench from the
checkout's sources into .bench_build/, runs the decorator self-test, runs
the workload for about --seconds and applies the correctness gate. The last
line of stdout is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. A human-readable summary goes to stderr;
the full record of the run (provenance, every campaign, the gate) goes to
.bench_build/runs/<workload>-seed<N>-trace<T>/result.json.

--all runs every workload in turn and prints one table. --record-reference
rewrites reference.json's entries for the given seeds (of --workload, or of
every workload) from the current build; do that only at a commit whose
simulated statistics are known good.
See README.md for the metrics and the workloads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "campaign_bench"
RUNS = ROOT / ".bench_build" / "runs"
REFERENCE = BENCH / "reference.json"
BINARY = BUILD / "campaign_bench"

WORKLOADS = ["fades-pulse-lut", "fades-bitflip-mem", "fades-delay-seqline",
             "vfit-prune-ff"]
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Simulated statistics the gate compares: counts exactly, modeled seconds
# to a relative 1e-9 (they are sums of doubles folded in index order).
EXACT_STATS = ["experiments", "folded", "failures", "latents", "silents",
               "quarantined", "records", "bytes_to_device",
               "bytes_from_device", "sessions", "prune_executed",
               "prune_collapsed"]
REAL_STATS = ["modeled_s", "config_s", "workload_s", "host_s"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("campaign_bench: " + message)
    sys.exit(1)


def run(cmd, timeout, stdout, stderr, env=None):
    """Run cmd in its own process group; on timeout kill the whole group
    (a build's compilers included) and wait for it. Returns the exit code,
    or None on timeout, and the captured stdout if stdout is PIPE."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env,
                            text=True, process_group=0)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    return proc.returncode, out


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def cache_value(key):
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build():
    """Configure (once) and build the binary from the checkout's sources.

    The build always runs, so the binary is never older than the sources;
    a build directory configured for another source tree is discarded.
    """
    if cache_value("CMAKE_HOME_DIRECTORY") not in (None, str(BENCH)):
        shutil.rmtree(BUILD)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if cache_value("CMAKE_HOME_DIRECTORY") is None:
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "campaign_bench", "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            code, _ = run(cmd, BUILD_TIMEOUT_S, out, subprocess.STDOUT, env)
            if code != 0:
                out.flush()
                # A failed configure must not pass for a configured tree.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                tail = (BUILD / "build.log").read_text(errors="replace")
                log("\n".join(tail.splitlines()[-30:]))
                fail("build failed (%s): %s"
                     % ("timeout" if code is None else "exit %d" % code,
                        " ".join(cmd)))


def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix not in (".cpp", ".hpp", ".txt"):
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(doc):
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    build_type = cache_value("CMAKE_BUILD_TYPE") or ""
    flags = " ".join(f for f in (
        cache_value("CMAKE_CXX_FLAGS"),
        cache_value("CMAKE_CXX_FLAGS_" + build_type.upper())) if f)
    return {
        "commit": commit or None,
        "source_sha256": source_digest(),
        "build_type": build_type,
        "cxx_flags": flags,
        "compiler": doc.get("compiler"),
        "nproc": os.cpu_count(),
        "workers": doc.get("jobs"),
        "seed": doc.get("seed"),
        "experiments_per_campaign": doc.get("experiments"),
        "campaigns": len(doc.get("campaigns", [])),
    }


# --------------------------------------------------------------------------
# Running the binary
# --------------------------------------------------------------------------

def run_binary(args, stderr_path):
    """Run campaign_bench and return its last stdout line as JSON."""
    with open(stderr_path, "w") as err:
        code, out = run([str(BINARY)] + args, RUN_TIMEOUT_S, subprocess.PIPE,
                        err)
    if code is None:
        fail("campaign_bench %s timed out; see %s"
             % (" ".join(args), stderr_path))
    lines = out.strip().splitlines()
    if not lines:
        fail("campaign_bench %s printed nothing (exit %d); see %s"
             % (" ".join(args), code, stderr_path))
    return code, json.loads(lines[-1])


def self_test():
    RUNS.mkdir(parents=True, exist_ok=True)
    code, doc = run_binary(["--self-test"], RUNS / "self-test.stderr")
    for case in doc["cases"]:
        log("self-test %-30s identical=%s covered=%s spans=%s"
            % (case["case"], case["identical"], case["covered"],
               case["spans"]))
    return code == 0 and doc["self_test"]


# --------------------------------------------------------------------------
# Correctness gate
# --------------------------------------------------------------------------

def gate(doc, reference):
    """Problems with the run's simulated statistics; empty means correct."""
    problems = []
    campaigns = doc["campaigns"]
    n = doc["experiments"]
    for i, c in enumerate(campaigns):
        s = c["stats"]
        tag = "campaign %d" % i
        if s["experiments"] != n:
            problems.append("%s ran %d experiments, not %d"
                            % (tag, s["experiments"], n))
        if s["folded"] + s["quarantined"] != n or s["quarantined"] != 0:
            problems.append("%s folded %d and quarantined %d of %d"
                            % (tag, s["folded"], s["quarantined"], n))
        if s["failures"] + s["latents"] + s["silents"] != n:
            problems.append("%s outcome tallies do not sum to %d" % (tag, n))
        if s["records"] != n:
            problems.append("%s kept %d records" % (tag, s["records"]))
        if s["prune_executed"] + s["prune_collapsed"] != n:
            problems.append("%s prune accounting does not sum to %d"
                            % (tag, n))
        if s != campaigns[0]["stats"]:
            problems.append("%s statistics differ from campaign 0 of the "
                            "same seed" % tag)
    if reference is not None:
        s = campaigns[0]["stats"]
        for key in EXACT_STATS:
            if s[key] != reference[key]:
                problems.append("%s = %s, reference %s"
                                % (key, s[key], reference[key]))
        for key in REAL_STATS:
            if not math.isclose(s[key], reference[key], rel_tol=1e-9):
                problems.append("%s = %r, reference %r"
                                % (key, s[key], reference[key]))
    for message in doc.get("accounting_failures", []):
        problems.append("layer accounting: " + message)
    return problems


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------

def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail("no BENCHMARK.json at " + str(ROOT))
    return json.loads(path.read_text())


def run_workload(workload, seed, seconds, trace, spec):
    out = RUNS / ("%s-seed%d-trace%d" % (workload, seed, trace))
    out.mkdir(parents=True, exist_ok=True)
    code, doc = run_binary(
        ["--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--out", str(out)],
        out / "stderr.log")
    if code != 0:
        fail("campaign_bench exited %d; see %s" % (code, out / "stderr.log"))

    reference = load_reference().get(workload, {}).get(str(seed))
    problems = gate(doc, reference)
    campaigns = doc["campaigns"]
    plain = [c for c in campaigns if not c["traced"]]
    attempted = sum(c["experiments"] for c in campaigns)
    failed = sum(c["stats"]["experiments"] - c["stats"]["folded"]
                 for c in campaigns)
    correct = not problems
    if not correct:
        failed = attempted  # a wrong result makes every experiment suspect

    if trace:
        wanted = spec["per_layer"]
        values = doc["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "time_to_report_s": statistics.median(
                c["time_to_report_s"] for c in plain),
            "setup_s": statistics.median(c["setup_s"] for c in plain),
            "experiments_per_s": statistics.median(
                c["experiments_per_s"] for c in plain),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload,
        "provenance": provenance(doc),
        "reference": "seed %d" % seed if reference else None,
        "gate_problems": problems,
        "failed_frac": failed / attempted,
        "absent": doc.get("absent", []),
        "shape": doc.get("shape", {}),
        "campaigns": campaigns,
        "result": result,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def describe(record):
    prov = record["provenance"]
    log("%s: seed %s, %d campaign(s) of %d experiments, %s worker(s), "
        "%s build, %s, nproc %s, source %s"
        % (record["workload"], prov["seed"], prov["campaigns"],
           prov["experiments_per_campaign"], prov["workers"],
           prov["build_type"], prov["compiler"], prov["nproc"],
           prov["source_sha256"][:12]))
    log("  correctness gate: %s (reference: %s)"
        % ("pass" if not record["gate_problems"] else "FAIL",
           record["reference"] or "none recorded for this seed"))
    for problem in record["gate_problems"]:
        log("    " + problem)
    for name, m in record["result"]["metrics"].items():
        log("  %-26s %14.6g %s" % (name, m["value"], m["unit"]))
    log("  %-26s %14.6g ratio" % ("failed_frac", record["failed_frac"]))
    for name in record["absent"]:
        log("  %-26s %14s" % (name, "absent"))
    for name, value in record["shape"].items():
        log("  shape: %s = %s" % (name, value))


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", type=int, nargs="+",
                        metavar="SEED")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    build()

    if args.self_test:
        sys.exit(0 if self_test() else 1)

    if args.record_reference:
        reference = load_reference()
        for workload in [args.workload] if args.workload else WORKLOADS:
            for seed in args.record_reference:
                record = run_workload(workload, seed, 0, 0, spec)
                stats = record["campaigns"][0]["stats"]
                structural = gate({"campaigns": record["campaigns"],
                                   "experiments": stats["experiments"]}, None)
                if structural:
                    fail("%s seed %d: %s" % (workload, seed, structural))
                reference.setdefault(workload, {})[str(seed)] = stats
                log("recorded %s seed %d" % (workload, seed))
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
        return

    if not self_test():
        fail("decorator self-test failed; see " + str(RUNS / "self-test.stderr"))

    if args.all:
        records = [run_workload(w, args.seed, seconds, args.trace, spec)
                   for w in WORKLOADS]
        for record in records:
            describe(record)
        ok = all(r["result"]["correct"] for r in records)
        print(json.dumps({r["workload"]: r["result"] for r in records}))
        sys.exit(0 if ok else 1)

    if args.workload is None:
        parser.error("--workload, --all, --self-test or --record-reference "
                     "is required")
    record = run_workload(args.workload, args.seed, seconds, args.trace, spec)
    describe(record)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(record["result"]))


if __name__ == "__main__":
    main()
