"""Benchmark of `hh cohomology|homology` reports.

    python3 perfbench/run.py --workload catalog|stress|structural \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
`src/`.  One client sends one report at a time to `hochschild.cli.main`
in this process (a closed loop, no threads), and every report is
checked by `checks.check_report`.  A pass is the workload's whole input
list; passes repeat until S seconds have gone, two at the least.  Times
are scaled to the host's reference speed (`HostClock`).

With --trace 0 the end-to-end metrics are printed; with --trace 1 one
untraced pass and one traced pass give the per-layer metrics, and the
two passes must print identical reports.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
WORKLOADS = ("catalog", "stress", "structural")
SETUP_REPEATS = 15
MIN_PASSES = 2
TAIL_BEYOND = 10
# `calibrate` on an idle host of the kind the baseline was taken on
# (2 cores, Python 3.11.7).
CALIBRATION_SECONDS = 0.00144
MAX_LISTED = 20


def import_package():
    """Import `hochschild.cli` afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "hochschild" / "cli.py").is_file():
        raise FileNotFoundError("no package at %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules
                if k == "hochschild" or k.startswith("hochschild.")]:
        del sys.modules[key]
    return importlib.import_module("hochschild.cli")


def calibrate() -> float:
    """Seconds this host takes now for a fixed piece of work of the kind
    the package does: Fraction arithmetic and dicts keyed by tuples."""
    t0 = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 600):
        total += Fraction(i % 97, i % 89 + 1)
        seen[i % 50, i % 7] = total.numerator % 1000
    return time.perf_counter() - t0


class HostClock:
    """Times work in seconds at the reference speed of the host.

    The host is shared, and its speed swings by up to 1.8x from one
    second to the next.  `calibrate` runs before and after each timed
    piece of work, and the work's time is scaled by CALIBRATION_SECONDS
    over the mean of the two, so the figures do not move with the
    host's load.  Calibration time itself is never counted.
    """

    def __init__(self):
        self.last = calibrate()
        self.factors: list = []

    def scale(self) -> float:
        """The factor for the work done since the previous call."""
        now = calibrate()
        factor = CALIBRATION_SECONDS / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor


def setup(workload: str, seed: int):
    """Import the package and build the inputs SETUP_REPEATS times;
    return the last module and inputs and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's garbage is not set-up work
        clock = HostClock()
        t0 = time.perf_counter()
        cli = import_package()
        argvs = workloads.build(workload, seed)
        seconds = time.perf_counter() - t0
        times.append(seconds * clock.scale())
    return cli, argvs, statistics.median(times)


def run_report(cli, argv):
    """(exit code, stdout, stderr, seconds) of one `hh` call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed report, not a failed run
        code = None
        err.write("%s: %s" % (type(exc).__name__, exc))
    seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def run_pass(cli, argvs, goldens) -> dict:
    """One checked report per input.  `times` and `wall` (reports plus
    checks) are at reference speed; `raw_wall` is as measured."""
    times, outputs, failures = [], [], []
    wall = raw_wall = 0.0
    gc.collect()
    clock = HostClock()
    for argv in argvs:
        code, stdout, stderr, seconds = run_report(cli, argv)
        t0 = time.perf_counter()
        key = " ".join(argv)
        reason = checks.check_report(argv, code, stdout, stderr,
                                     goldens.get(key))
        if reason is not None:
            failures.append("%s: %s" % (key, reason))
        outputs.append((code, checks.digest(stdout)))
        checked = seconds + time.perf_counter() - t0
        factor = clock.scale()
        times.append(seconds * factor)
        wall += checked * factor
        raw_wall += checked
    return {"wall": wall, "raw_wall": raw_wall, "times": times,
            "factors": clock.factors, "outputs": outputs,
            "failures": failures}


def tail(times) -> tuple:
    """(seconds, percentile): the highest percentile of `times` with
    TAIL_BEYOND values above it, or the largest value when there are too
    few for that."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(cli, argvs, goldens, seconds, setup_s):
    """(passes, end-to-end metrics, problems, notes) of an untraced run.
    Each input's time is its median over the passes."""
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(cli, argvs, goldens))
    per_input = [statistics.median(ts)
                 for ts in zip(*(p["times"] for p in passes))]
    tail_s, percentile = tail(per_input)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(p["wall"] for p in passes), "s"),
        "report_p50_s": metric(statistics.median(per_input), "s"),
        "report_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }
    factors = [f for p in passes for f in p["factors"]]
    notes = ["%d passes of %d reports; report_tail_s is p%.1f of %d inputs"
             % (len(passes), len(argvs), percentile, len(per_input)),
             "measured wall of a pass: median %.3f s; factor to reference "
             "host speed: median %.2f, range %.2f to %.2f"
             % (statistics.median(p["raw_wall"] for p in passes),
                statistics.median(factors), min(factors), max(factors))]
    return passes, metrics, [], notes


def per_layer(summary: dict, traced_pass: dict):
    """Per-layer metrics of one traced pass.  Times are scaled to the
    reference speed by the pass's overall factor."""
    calls, total, own = summary["calls"], summary["time"], summary["self"]
    counters = summary["counters"]
    values = {}
    for span in ("grading.detect_weights", "grading.quotient_basis",
                 "ideals.buchberger", "ideals.colon_ideal",
                 "ideals.normal_form", "koszul.build", "linalg.rank",
                 "engine.oracle"):
        values[span + ".calls"] = (calls.get(span, 0), "count")
    for span in ("parsing.parse", "grading.detect_weights",
                 "grading.quotient_basis", "ideals.buchberger",
                 "ideals.colon_ideal", "ideals.normal_form", "koszul.build",
                 "koszul.verify", "linalg.rank", "engine.route",
                 "engine.oracle", "engine.kernel"):
        values[span + ".time_s"] = (total.get(span, 0.0), "s")
    # Analysis.__init__ is measured by its self time: its Groebner bases
    # and weight detection are counted in their own layers.
    values["engine.analysis.time_s"] = (own.get("engine.analysis", 0.0), "s")
    for span in ("engine.oracle", "engine.analyze"):
        values[span + ".self_s"] = (own.get(span, 0.0), "s")
    for name in ("ideals.normal_form.terms_in", "linalg.rank.cells",
                 "linalg.rank.nonzeros", "linalg.rank.max_cells",
                 "engine.route.none"):
        values[name] = (counters.get(name, 0), "count")
    values["linalg.rank.distinct_ratio"] = (
        counters["linalg.rank.distinct_ratio"], "ratio")
    oracle_calls = calls.get("engine.oracle", 0)
    values["engine.oracle.rank_per_slice"] = (
        calls.get("linalg.rank", 0) / oracle_calls if oracle_calls else 0.0,
        "ratio")
    for layer, seconds in summary["layers"].items():
        values[layer + ".self_s"] = (seconds, "s")
    raw_wall = traced_pass["raw_wall"]
    values["trace.wall_s"] = (raw_wall, "s")
    values["trace.unattributed_s"] = (
        raw_wall - sum(summary["layers"].values()), "s")
    scale = traced_pass["wall"] / raw_wall
    return {name: metric(v * scale if unit == "s" else v, unit)
            for name, (v, unit) in values.items()}


def traced(cli, argvs, goldens):
    """(passes, per-layer metrics, problems, notes) of an untraced and a
    traced pass."""
    plain = run_pass(cli, argvs, goldens)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(cli, argvs, goldens)
    finally:
        tracer.restore()
    notes = ["not traced, no such entry point: %s" % name
             for name in tracer.missing]
    problems = ["left patched: %s" % name for name in tracing.patched_names()]
    if traced_pass["outputs"] != plain["outputs"]:
        problems.append("traced and untraced reports differ")
    summary = tracer.summary()
    metrics = per_layer(summary, traced_pass)
    metrics["trace.overhead_s"] = metric(traced_pass["wall"] - plain["wall"],
                                         "s")
    if min(list(summary["self"].values()) +
           [metrics["trace.unattributed_s"]["value"]]) < -1e-9:
        problems.append("negative self time: spans do not nest")
    return [plain, traced_pass], metrics, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli, argvs, setup_s = setup(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print("error: cannot import the package: %s" % exc, file=sys.stderr)
        return 1
    goldens = json.loads(GOLDENS.read_text())
    if args.trace:
        passes, metrics, problems, notes = traced(cli, argvs, goldens)
    else:
        passes, metrics, problems, notes = end_to_end(
            cli, argvs, goldens, args.seconds, setup_s)
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for line in notes:
        print(line)
    print("%s seed %d: %d reports, %d failed, error_rate %.4f"
          % (args.workload, args.seed, attempted, len(failures),
             len(failures) / attempted))
    for line in problems + sorted(set(failures))[:MAX_LISTED]:
        print("  " + line)
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
