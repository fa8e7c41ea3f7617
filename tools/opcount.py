"""Count the bytecodes each benchmark op executes: a deterministic cost proxy.

Wall-clock pairs on a shared host can swing by tens of percent; the number
of bytecodes an op executes does not.  For each tree and each perfbench
workload, a fresh interpreter (PYTHONHASHSEED=0) imports skychow from that
tree's src/, builds the workload's ops with this checkout's
perfbench/workloads.py (only read, so every tree runs the same ops), runs
two warm-up ops, then counts the opcode events of `skychow.cli.main` on
each of the next N ops under sys.settrace.  Every op, warm-ups included,
must pass its own reference check.  The table gives opcodes per op and the
ratio to the first tree.  Standard library only.

    python tools/opcount.py . ../parent            # every workload, 5 ops each
    python tools/opcount.py --ops 20 --workload verify_oracle . ../parent
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WARMUP = 2
SEED = 4242
TIMEOUT_S = 1200


def _count_in_process(tree: str, workload: str, ops: int, seed: int) -> list:
    """Opcodes of each counted op; runs in the child interpreter."""
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(PERFBENCH)]
    import workloads
    from skychow import cli

    seconds = (WARMUP + ops) / workloads.WORKLOADS[workload]["pool_per_s"]
    counts = []
    with tempfile.TemporaryDirectory(prefix="opcount-") as workdir:
        pool = workloads.make_ops(workload, seed, seconds, workdir)[: WARMUP + ops]
        for k, op in enumerate(pool):
            count = [0]

            def local(frame, event, arg):
                if event == "opcode":
                    count[0] += 1
                return local

            def trace(frame, event, arg):
                frame.f_trace_opcodes = True
                frame.f_trace_lines = False
                return local

            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                sys.settrace(trace)
                try:
                    rc = cli.main(op.argv)
                finally:
                    sys.settrace(None)
            op.check(op, rc, out.getvalue())
            if k >= WARMUP:
                counts.append(count[0])
    return counts


def count_opcodes(tree, workload: str, ops: int, seed: int = SEED) -> list:
    """Opcodes of each of the first `ops` ops after the warm-up, counted in a
    fresh interpreter on the given tree."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            str(tree), workload, str(ops), str(seed)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("opcount on %s, %s failed:\n%s" % (tree, workload, done.stderr))
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        tree, workload, ops, seed = argv[1:]
        print(json.dumps(_count_in_process(tree, workload, int(ops), int(seed))))
        return 0
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", help="checkout roots; the first is the reference")
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS),
                        help="repeatable; every workload by default")
    parser.add_argument("--ops", type=int, default=5, help="ops counted after the warm-up")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    print("%-14s %-30s %14s %8s" % ("workload", "tree", "opcodes/op", "ratio"))
    for workload in args.workload or list(workloads.WORKLOADS):
        first = None
        for tree in args.trees:
            per_op = sum(count_opcodes(tree, workload, args.ops, args.seed)) / args.ops
            first = first or per_op
            print("%-14s %-30s %14.1f %8.4f" % (workload, tree, per_op, per_op / first), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
