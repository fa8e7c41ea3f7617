"""The skychow benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload final_report --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload is a closed loop: one client, one process, one thread, the
next op sent when the previous one returns.  An op is one ``skychow``
subcommand run in-process through ``skychow.cli.main(argv)`` with its output
captured to memory.  Every output is checked against the benchmark's own
reference after the timed loop.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same ops untraced and then traced, checks that the
two give equal outputs, and reports per-layer metrics and a scaling sweep.
The last line of standard output is one JSON object; the lines before it,
and a result file under ``.perfbench_out/``, say the same for people.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark-local module, found through HERE)

SETUP_REPEATS = 5  # fresh interpreters per run whose set-up times give setup_s
SPAN_CAP = 200_000  # the traced replay stops before its spans outgrow memory
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="skychow benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- calibration ---------------------------------------------------------
#
# Other tenants on a shared host change the machine's speed by tens of
# percent, in bursts of milliseconds and in drifts over seconds.  A short,
# fixed Python loop that allocates tuples and dict entries and multiplies
# integers, as skychow does, slows down with it.  The loop runs before the
# first op and after every op, for three tenths of the op's time and at
# least once.  Each op's time is scaled by CAL_REFERENCE_S over the mean
# pass time of the two calibrations around it and any others within
# CAL_WINDOW_S, so one fast or slow pass does not decide a short op's time.
# Times then read as on a machine where one pass takes CAL_REFERENCE_S.  A
# change in skychow moves the ops and not the loop, so it shows in full.  A
# run ends after `seconds` of scaled op time, so it holds the same ops
# however busy the machine is.  Raw wall times go to the result file.

CAL_REFERENCE_S = 0.0016  # about one pass's median on the 2-vCPU baseline host
CAL_SHARE = 0.3  # calibration time after an op, as a share of the op's time
CAL_WINDOW_S = 0.02  # short ops are scaled by every calibration this close


def _calibration_pass() -> float:
    t0 = time.perf_counter()
    rows = [tuple(range(k, k + 40)) for k in range(40)]
    table = {}
    for r in range(6):
        for k, row in enumerate(rows):
            table[k, r] = tuple([a * b + 1 for a, b in zip(row, rows[k - 1])])
        rows = list(table.values())[-40:]
    return time.perf_counter() - t0


def calibrate(budget: float = 0.0) -> float:
    """Mean time of one pass of the loop, over passes that fill `budget` seconds (at least one)."""
    times = []
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 < budget:
        times.append(_calibration_pass())
    return sum(times) / len(times)


# -- set-up and the timed loop ----------------------------------------


def setup(args, workdir: Path):
    """Import skychow.cli, then generate, write and load the workload's configs.

    Returns (calibrated seconds, raw seconds, cli module, ops).
    """
    before = calibrate(0.01)
    t0 = time.perf_counter()
    cli = importlib.import_module("skychow.cli")
    ops = workloads.make_ops(args.workload, args.seed, args.seconds, str(workdir))
    for op in ops:
        if "path" in op.data:
            cli.load_config(op.data["path"])
    raw = time.perf_counter() - t0
    return raw * CAL_REFERENCE_S * 2 / (before + calibrate(0.01)), raw, cli, ops


def probe_setup(args) -> tuple:
    """(calibrated, raw) set-up seconds of one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip())
    scaled, raw = done.stdout.split()[-2:]
    return float(scaled), float(raw)


def call(cli, argv):
    """Run one subcommand; returns (seconds, exit code or None, stdout, error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc, error = cli.main(argv), None
        except Exception as exc:  # an op that raises is a failed op, not a stopped run
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - t0
    return elapsed, rc, out.getvalue(), error


def verdict(op, rc, out, error):
    """None when the op passed its reference check, else the reason it failed."""
    if error:
        return "raised " + error
    try:
        op.check(op, rc, out)
    except Exception as exc:  # unreadable output is a mismatch, never an abort
        return "%s: %s" % (type(exc).__name__, exc)
    return None


class Loop:
    """Closed loop over ops until `seconds` of scaled op time or the pool is used up.

    Each op is checked right after it returns, outside its timing.  Outputs
    are kept only when asked, so memory does not grow with the op count.
    """

    def __init__(self, cli, ops, seconds, keep_outputs=False, after_op=None, stop=None):
        self.raw, self.failures, self.outputs = [], [], []
        spans = []  # (start, end) of each op
        start = time.perf_counter()
        self.cals = [calibrate()]
        cal_spans = [(start, time.perf_counter())]
        spent = 0.0  # scaled op time so far, from the two calibrations around each op
        for k, op in enumerate(ops):
            if self.raw and (spent >= seconds or (stop and stop())):
                break
            t0 = time.perf_counter()
            elapsed, rc, out, error = call(cli, op.argv)
            t1 = time.perf_counter()
            self.cals.append(calibrate(CAL_SHARE * elapsed))
            cal_spans.append((t1, time.perf_counter()))
            spans.append((t0, t1))
            if after_op:
                after_op(k)
            reason = verdict(op, rc, out, error)
            if reason:
                self.failures.append("op %d %s: %s" % (k, " ".join(op.argv), reason))
            if keep_outputs:
                self.outputs.append((rc, out))
            self.raw.append(elapsed)
            spent += elapsed * CAL_REFERENCE_S * 2 / (self.cals[-2] + self.cals[-1])
        self.wall = time.perf_counter() - start
        self.scaled = [
            s * CAL_REFERENCE_S / self._speed(k, spans[k], cal_spans) for k, s in enumerate(self.raw)
        ]

    def _speed(self, k, span, cal_spans):
        """Mean calibration around op k: the two next to it and any within CAL_WINDOW_S."""
        lo, hi = k, k + 1
        while lo > 0 and cal_spans[lo - 1][1] >= span[0] - CAL_WINDOW_S:
            lo -= 1
        while hi + 1 < len(cal_spans) and cal_spans[hi + 1][0] <= span[1] + CAL_WINDOW_S:
            hi += 1
        return statistics.fmean(self.cals[lo : hi + 1])


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = max(50, min(99, int(100 - 1000 / n))) if n > 10 else 50
    rank = -(-pct * n // 100)  # nearest rank, ceil(pct/100 * n)
    return pct, ordered[max(rank, 1) - 1]


# -- reporting --------------------------------------------------------


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def write_result(args, doc: dict) -> Path:
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WORKLOADS[args.workload]["why"],
        "generator": workloads.WORKLOADS[args.workload]["params"],
        "environment": environment(),
        **doc,
        "seed_commit_baseline": json.loads((HERE / "baseline.json").read_text()),
        "layer_map": json.loads((HERE / "layer_map.json").read_text()),
    }
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def emit(correct, attempted, failed, metrics: dict, units: dict):
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(line))


def run_timed(args, workdir: Path) -> int:
    setup_s, setup_raw, cli, ops = setup(args, workdir)
    setups = [(setup_s, setup_raw)] + [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]
    loop = Loop(cli, ops, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = len(loop.raw), len(loop.failures)
    pct, tail_s = tail(loop.scaled)
    metrics = {
        "ops_per_s": (attempted - failed) / sum(loop.scaled),
        "op_p50_ms": statistics.median(loop.scaled) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mib": peak_rss_mib,
    }
    raw = {
        "ops_per_s": (attempted - failed) / loop.wall,
        "op_p50_ms": statistics.median(loop.raw) * 1e3,
        "op_tail_ms": tail(loop.raw)[1] * 1e3,
        "setup_s": statistics.median(r for _, r in setups),
        "calibration_loop_ms": statistics.median(loop.cals) * 1e3,
    }
    notes = {
        "op_tail_ms": "p%d of %d ops" % (pct, attempted),
        "setup_s": "median of %d fresh interpreters" % len(setups),
    }
    fail_ratio = failed / attempted
    print("workload %s  seed %d  ops %d of a pool of %d  loop %.2f s  calibration loop %.2f ms"
          % (args.workload, args.seed, attempted, workloads.pool_size(args.workload, args.seconds),
             loop.wall, raw["calibration_loop_ms"]))
    for name, unit in END_TO_END.items():
        print("  %-13s %12.4f %-4s raw %10.4f  %s"
              % (name, metrics[name], unit, raw.get(name, metrics[name]), notes.get(name, "")))
    print("  %-13s %12.4f %-4s (%d of %d ops)" % ("fail_ratio", fail_ratio, "", failed, attempted))
    for reason in loop.failures[:10]:
        print("  FAIL " + reason)
    path = write_result(args, {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
        "raw_wall": raw,
        "notes": notes,
        "tail_percentile": pct,
        "setup_runs_s": [list(s) for s in setups],
        "failures": loop.failures[:100],
    })
    print("  result file %s" % path.relative_to(ROOT))
    emit(failed == 0, attempted, failed, metrics, END_TO_END)
    return 0


def run_traced(args, workdir: Path) -> int:
    import tracing

    _, _, cli, ops = setup(args, workdir)
    plain = Loop(cli, ops, args.seconds, keep_outputs=True)
    # Replay the same configs cold: empty every functools cache in the package.
    for name, mod in list(sys.modules.items()):
        if name == "skychow" or name.startswith("skychow."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def after_op(k):
            tracer.finish_op()
            tracer.current_op = k + 1

        tracer.current_op = 0
        traced = Loop(cli, ops[: len(plain.raw)], args.seconds, True, after_op,
                      lambda: len(tracer) > SPAN_CAP)
        metrics = tracing.op_metrics(tracer, len(traced.raw))
        sweep_metrics, sweep_table = tracing.run_sweep(tracer)
    finally:
        tracer.uninstall()
    failures = plain.failures + traced.failures
    for k, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
        if a != b:
            failures.append("op %d %s: traced output differs from untraced" % (k, " ".join(ops[k].argv)))
    m = len(traced.raw)
    plain_s, traced_s = sum(plain.scaled[:m]), sum(traced.scaled)
    metrics.update({
        "trace.ops": m,
        "trace.untraced_ops_per_s": m / plain_s,
        "trace.traced_ops_per_s": m / traced_s,
        "trace.ops_per_s_ratio": plain_s / traced_s,
    })
    metrics.update(sweep_metrics)
    units = tracing.per_layer_metric_units()
    attempted, failed = len(plain.raw) + m, len(failures)
    print("workload %s  seed %d  traced %d of %d ops  spans %d  ops/s traced %.3f untraced %.3f"
          % (args.workload, args.seed, m, len(plain.raw), len(tracer),
             metrics["trace.traced_ops_per_s"], metrics["trace.untraced_ops_per_s"]))
    for name, unit in units.items():
        print("  %-44s %14.4f %s" % (name, metrics[name], unit))
    for entry in sweep_table:
        print("  sweep %s n=%d s=%s: ms %s slope %.2f" % (
            entry["sweep"], entry["n"], entry["sizes"],
            " ".join("%.1f" % v for v in entry["ms"]), entry["slopes"]["total"]))
    for reason in failures[:10]:
        print("  FAIL " + reason)
    spans = OUT / ("%s-seed%d-spans.json" % (args.workload, args.seed))
    tracer.dump(str(spans))
    path = write_result(args, {
        "attempted": attempted,
        "failed": failed,
        "per_layer": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "sweep": sweep_table,
        "spans_file": spans.name,
        "failures": failures[:100],
    })
    print("  result file %s" % path.relative_to(ROOT))
    emit(failed == 0, attempted, failed, metrics, units)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another, then a summary table."""
    rows, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print("workload %s failed: %s" % (name, done.stderr.strip()), file=sys.stderr)
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
    if args.trace == 0 and rows:
        print("\n%-14s %10s %10s %10s %9s %12s %10s" % (
            "workload", "ops_per_s", "p50_ms", "tail_ms", "setup_s", "rss_MiB", "fail_ratio"))
        for name, row in rows.items():
            m = {k: v["value"] for k, v in row["metrics"].items()}
            print("%-14s %10.3f %10.2f %10.2f %9.4f %12.1f %10.4f" % (
                name, m["ops_per_s"], m["op_p50_ms"], m["op_tail_ms"], m["setup_s"],
                m["peak_rss_mib"], row["failed"] / row["attempted"]))
    print(json.dumps({"workloads": rows}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skychow" / "cli.py").is_file():
        print("error: no skychow sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir()
    try:
        if args.setup_probe:
            scaled, raw, _, _ = setup(args, workdir)
            print("%.9f %.9f" % (scaled, raw))
            return 0
        return (run_traced if args.trace else run_timed)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
