#!/usr/bin/env python3
"""End-to-end provisioning benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver (a Release build of the library plus driver.cpp)
into $CARGO_TARGET_DIR or .bench_build, generates the workload's inputs from
the seed, then runs rounds of fresh single-threaded processes, one process at
a time, until S seconds have been measured:

  --trace 0  each round runs the plain and the observed configuration; the
             last stdout line carries the end-to-end metrics (medians over
             the rounds).
  --trace 1  each round adds a traced process that records spans around
             every layer call; the last line carries the per-layer metrics,
             the span self times and the tracing overhead.

After every round, perfbench_driver check compares the outcomes with
obs::diff_reports; a round whose process fails or whose check fails counts
as failed. Workloads, metrics and the layer map are in BENCHMARK.json and
layer_map.json. --size tiny and --inject are for the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Paper workloads reach the measured process as a CSV file, so ingest is
# part of set-up; the fleet's trace is generated in memory by the process.
CSV_WORKLOADS = {"paper-neural", "paper-checkpointed"}

# Span names the traced process records, in call order.
SPANS = ["bench.process", "input.generate", "trace.read", "nn.train",
         "core.simulate", "ckpt.serialize", "obs.report", "ckpt.parse",
         "core.resume"]

# The traced run's layer self times must sum to the process wall time
# measured here within this share; process start-up and exit lie outside
# every span.
STAGE_TOLERANCE_PCT = 5.0

# A run may overrun --seconds by this much: the last round starts before
# the measured time is up and must end within it. A process still running
# at the deadline is killed and the run ends without a result.
OVERRUN_S = 150
MIB = 1024.0 * 1024.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources next to perfbench/ (src/ "
                           "missing); run from a repository checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def provenance(build_dir, args):
    """Machine and build facts printed beside the result."""
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    files = os.path.join(build_dir, "CMakeFiles")
    for entry in sorted(os.listdir(files)):
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            facts = {}
            with open(path) as f:
                for line in f:
                    for key in ("CMAKE_CXX_COMPILER_ID",
                                "CMAKE_CXX_COMPILER_VERSION"):
                        if line.startswith("set(%s " % key):
                            facts[key] = line.split('"')[1]
            compiler = "%s %s" % (facts.get("CMAKE_CXX_COMPILER_ID", "?"),
                                  facts.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "threads": 1,
    }


class Runner:
    def __init__(self, driver, work, args):
        self.deadline = time.monotonic() + args.seconds + OVERRUN_S
        self.driver = driver
        self.work = work
        self.args = args
        self.common = ["--workload", args.workload, "--seed", str(args.seed),
                       "--size", args.size]
        self.csv = None

    def call(self, sub, extra):
        """Runs one driver process to completion; returns (ok, wall_s)."""
        start = time.monotonic()
        proc = subprocess.run([self.driver, sub] + self.common + extra,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True,
                              timeout=max(1, self.deadline - start))
        wall = time.monotonic() - start
        if proc.returncode != 0:
            log("%s %s exited %d: %s" % (sub, " ".join(extra[:2]),
                                         proc.returncode,
                                         proc.stderr.strip()[-2000:]))
        return proc.returncode == 0, wall

    def generate(self):
        if self.args.workload in CSV_WORKLOADS:
            self.csv = os.path.join(self.work, "trace.csv")
            ok, _ = self.call("gen", ["--out", self.csv])
            if not ok:
                raise RuntimeError("input generation failed")

    def round(self, index, modes):
        """One plain/observed(/traced) round; None when anything failed."""
        results = {}
        paths = {}
        for mode in modes:
            out = os.path.join(self.work, "r%d-%s.json" % (index, mode))
            extra = ["--mode", mode, "--out", out]
            if self.csv:
                extra += ["--in", self.csv]
            if mode == "plain" and "traced" in modes:
                extra.append("--predict-micro")
            if self.args.inject:
                extra += ["--inject", self.args.inject]
            ok, wall = self.call("run", extra)
            if not ok:
                return None
            with open(out) as f:
                result = json.load(f)
            with open(out + ".report.json") as f:
                result["report"] = json.load(f)
            if mode == "traced":
                result["spans_path"] = out + ".spans"
                with open(result["spans_path"]) as f:
                    result["spans"] = json.load(f)
            result["wall_s"] = wall
            results[mode] = result
            paths[mode] = out
        check = ["--plain", paths["plain"], "--observed", paths["observed"]]
        if "traced" in paths:
            check += ["--traced", paths["traced"]]
        ok, _ = self.call("check", check)
        return results if ok else None


def median(values):
    return statistics.median(values) if values else 0.0


def with_units(values, metrics):
    """Pairs computed values with the units BENCHMARK.json gives them."""
    units = {m["name"]: m["unit"] for m in metrics}
    mismatch = set(units) ^ set(values)
    if mismatch:
        raise RuntimeError("metric set mismatch: %s" % sorted(mismatch))
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def end_to_end(rounds):
    plain = [r["plain"] for r in rounds]
    observed = [r["observed"] for r in rounds]
    work = observed[0]["groups"] * observed[0]["steps_expected"]
    setups = [r["setup_s"] for r in plain + observed]
    values = {
        "setup_s": median(setups),
        "sim_group_steps_per_s": work / median([r["sim_s"] for r in plain]),
        "sim_observed_group_steps_per_s":
            work / median([r["sim_s"] + r["report_s"] for r in observed]),
        "pipeline_s": median([r["pipeline_s"] for r in observed]),
        "peak_rss_mib": median([r["peak_rss_kib"] for r in observed]) / 1024.0,
    }
    return with_units(values, SPEC["end_to_end"])


def samples(rounds):
    """The per-process values behind the medians, for judging their spread."""
    def each(mode, fn):
        return [fn(r[mode]) for r in rounds]
    return {
        "plain_sim_s": each("plain", lambda r: r["sim_s"]),
        "observed_sim_s":
            each("observed", lambda r: r["sim_s"] + r["report_s"]),
        "pipeline_s": each("observed", lambda r: r["pipeline_s"]),
        "setup_s": [p["setup_s"] for r in rounds for p in r.values()],
    }


def self_times(spans):
    """Per span name: summed self time (duration minus children) and the
    summed allocations made outside child spans."""
    dur = {s["id"]: s["end_s"] - s["start_s"] for s in spans}
    child_dur = {s["id"]: 0.0 for s in spans}
    child_allocs = {s["id"]: 0 for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            child_dur[s["parent"]] += dur[s["id"]]
            child_allocs[s["parent"]] += s["allocs"]
    out = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"self_s": 0.0, "allocs": 0})
        agg["self_s"] += dur[s["id"]] - child_dur[s["id"]]
        agg["allocs"] += s["allocs"] - child_allocs[s["id"]]
    return out


def stage_closure(traced):
    """Sum of span self times against the measured process wall time."""
    total_self = sum(v["self_s"] for v in self_times(traced["spans"]).values())
    wall = traced["wall_s"]
    return 100.0 * (wall - total_self) / wall


def per_layer(rounds):
    def med(fn):
        return median([fn(r) for r in rounds])

    def counters(r):
        return r["observed"]["report"]["outcome"]["counters"]

    def rejected(r):
        return sum(v for k, v in counters(r).items()
                   if k.startswith("offer.rejected."))

    def grant_ratio(r):
        matched = counters(r).get("offer.matched", 0)
        total = matched + rejected(r)
        return matched / total if total else 0.0

    def read_rate(r):
        o = r["observed"]
        return o["read_bytes"] / MIB / o["read_s"] if o["read_s"] > 0 else 0.0

    def profile(key):
        return lambda r: r["observed"]["profile"].get(key, 0.0)

    def predict(key):
        return lambda r: r["plain"]["predict"][key]

    def ckpt(key):
        return lambda r: r["observed"]["ckpt"][key]

    values = {
        "trace.read_s": med(lambda r: r["observed"]["read_s"]),
        "trace.read_mib_per_s": med(read_rate),
        "trace.read_rss_rise_mib":
            med(lambda r: r["observed"]["read_rss_rise_kib"] / 1024.0),
        "nn.train_s": med(lambda r: r["observed"]["train_s"]),
        "predict.observe_ns": med(predict("observe_ns")),
        "predict.predict_ns": med(predict("predict_ns")),
        "predict.allocs_per_call": med(predict("allocs_per_call")),
        "predict.observe_allocs_per_call":
            med(predict("observe_allocs_per_call")),
        "core.overalloc_pct":
            rounds[0]["observed"]["report"]["outcome"]["over_allocation_pct"],
        "core.underalloc_events":
            rounds[0]["observed"]["report"]["outcome"]["significant_events"],
        "dc.offers_matched": med(lambda r: counters(r).get("offer.matched", 0)),
        "dc.offers_rejected": med(rejected),
        "dc.grant_ratio": med(grant_ratio),
        "fault.windows":
            rounds[0]["observed"]["report"]["outcome"]["fault_windows"],
        "ckpt.captures": med(ckpt("captures")),
        "ckpt.bytes_last": med(ckpt("bytes_last")),
        "ckpt.bytes_total": med(ckpt("bytes_total")),
        "ckpt.serialize_s": med(ckpt("serialize_s")),
        "ckpt.parse_s": med(ckpt("parse_s")),
        "core.restore_s": med(ckpt("restore_s")),
        "obs.overhead_ratio":
            med(lambda r: (r["observed"]["sim_s"] + r["observed"]["report_s"])
                / r["plain"]["sim_s"]),
        "obs.report_s": med(lambda r: r["observed"]["report_s"]),
        "obs.audit_records":
            rounds[0]["observed"]["report"]["outcome"]["audit_records"],
        "tracing.overhead_ratio":
            med(lambda r: r["traced"]["wall_s"] / r["observed"]["wall_s"]),
        "tracing.stage_gap_pct": med(lambda r: stage_closure(r["traced"])),
    }
    for phase in ("step", "predict", "pad", "match", "match_commit",
                  "replace", "account"):
        values["core.%s_us" % phase] = med(profile(phase + "_us"))
    for phase in ("step", "predict", "account"):
        values["core.%s_allocs" % phase] = med(profile(phase + "_allocs"))
    values["tracing.stage_closed"] = (
        1 if abs(values["tracing.stage_gap_pct"]) <= STAGE_TOLERANCE_PCT
        else 0)
    per_round = [self_times(r["traced"]["spans"]) for r in rounds]
    for name in SPANS:
        for key in ("self_s", "allocs"):
            values["span.%s.%s" % (name, key)] = median(
                [spans.get(name, {}).get(key, 0) for spans in per_round])
    return with_units(values, SPEC["per_layer"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--inject",
                        choices=("corrupt-snapshot", "perturb-snapshot",
                                 "perturb-outcome"))
    args = parser.parse_args()

    build_dir = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        driver = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    work = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        runner = Runner(driver, work, args)
        runner.generate()
        modes = ("plain", "observed") + (("traced",) if args.trace else ())
        rounds = []
        attempted = 0
        start = time.monotonic()
        while attempted == 0 or time.monotonic() - start < args.seconds:
            result = runner.round(attempted, modes)
            attempted += 1
            if result is not None:
                rounds.append(result)
        failed = attempted - len(rounds)
        print(json.dumps({"provenance": provenance(build_dir, args),
                          "rounds": attempted,
                          "measured_s": time.monotonic() - start,
                          "samples": samples(rounds)}))
        if rounds and args.trace:
            metrics = per_layer(rounds)
            gap = metrics["tracing.stage_gap_pct"]["value"]
            if not metrics["tracing.stage_closed"]["value"]:
                log("stage closure gap %.2f%% exceeds %.1f%%: time outside "
                    "the traced layer spans" % (gap, STAGE_TOLERANCE_PCT))
            # Keep the last traced run's spans for inspection.
            shutil.copy(rounds[-1]["traced"]["spans_path"],
                        os.path.join(build_dir,
                                     "spans-%s.json" % args.workload))
        elif rounds:
            metrics = end_to_end(rounds)
        else:
            # Nothing to measure: every round failed, which "correct"
            # and "failed" below report.
            spec = SPEC["per_layer" if args.trace else "end_to_end"]
            metrics = {m["name"]: {"value": 0, "unit": m["unit"]}
                       for m in spec}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
