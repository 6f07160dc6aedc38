"""qlevy benchmark: seeded workloads run through qlevy's public API.

    python3 bench/run.py --workload cocycle_long --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; qlevy is imported from ``src/``.
Every workload is a closed loop in one process: the next op starts only
after the previous one returns, and its output is checked before the next
starts.  The loop runs whole passes over the workload's op pool until
``--seconds`` have passed and there have been MIN_PASSES passes (for each
tracer).  Each run of an op is scaled to a reference machine speed by a
calibration kernel timed between ops (see calibration.py).  An op's latency
is the median of its scaled runs; op_p50_ms and op_p90_ms are percentiles
over the pool's ops, and ops_per_s is the pool size over the sum of their
latencies.  setup_s is scaled the same way.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
with tracing on and off for alternate ops, one traced pass of the other
workloads' pools and the scaling sweeps, writes the spans to
``.bench_out/trace-<workload>-<seed>.jsonl`` and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pinned before numpy is first imported: the ops are small dense linear
# algebra, and one thread keeps their timings independent of what else
# runs on the machine.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from tracing import NullTracer, Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cocycle_long", "validate_scale", "lab_mixed")
HELD_OUT_SEED = 7919   # for checking a claimed gain on a seed nobody tuned against
SETUP_RUNS = 3         # fresh interpreters whose set-up is timed (this one included)
MIN_PASSES = 3         # each op's latency is the median of at least three runs
MAX_REPORTED_ERRORS = 5


def setup(workload, seed, tr, workdir):
    """Import qlevy, build the bundled fixtures cold and generate the
    workload's inputs; returns (pool, fixtures, seconds taken scaled to the
    reference machine speed).  The calibration kernel runs after the import
    and after the rest, outside the timing; not before the import, since
    set-up must pay for importing numpy."""
    t0 = time.perf_counter()
    with tr.span("import"):
        import qlevy
    if Path(qlevy.__file__).resolve().parent != SRC / "qlevy":
        raise RuntimeError(f"imported qlevy from {qlevy.__file__}, not from {SRC}")
    import calibration
    import workloads
    seconds = time.perf_counter() - t0
    cal = calibration.Calibration()
    cal.sample(calibration.SETUP_SAMPLES)
    t0 = time.perf_counter()
    with tr.span("fixtures.bundled_fixtures"):
        fx = qlevy.fixtures.bundled_fixtures()
    pool = workloads.POOLS[workload](seed, fx, workdir)
    seconds += time.perf_counter() - t0
    cal.sample(calibration.SETUP_SAMPLES)
    return pool, fx, seconds * cal.factor()


def setup_in_fresh_interpreter(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """Runs ops, times each one alone and counts the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_op(self, op, tr):
        """Runs and checks one op; returns when it started and how long its
        run (not its check) took."""
        tr.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tr.span("op", kind=op.kind):
                result = op.run(tr)
        except Exception:  # an op that raises counts as failed; the loop goes on
            self._fail(op, traceback.format_exc())
            return t0, time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            ok = op.check(result, tr)
        except Exception:
            self._fail(op, traceback.format_exc())
        else:
            if not ok:
                self._fail(op, "output check failed")
        return t0, elapsed

    def _fail(self, op, why):
        self.failed += 1
        if self.failed <= MAX_REPORTED_ERRORS:
            print(f"op {self.attempted - 1} ({op.kind}) failed: {why}", file=sys.stderr)

    def warm_up(self, pool, tr):
        """One untimed op of each kind, so lazy imports and caches are ready."""
        kinds = set()
        for op in pool:
            if op.kind not in kinds:
                kinds.add(op.kind)
                self.run_op(op, tr)

    def measure(self, pool, seconds, tracers, cal):
        """Whole passes over ``pool``.  In pass k op i runs under
        ``tracers[(i + k) % len(tracers)]``, so with two tracers every op
        alternates between them and both see the same machine state.  The
        calibration kernel ``cal`` runs between ops, outside their timing.

        Returns the number of passes and, for each tracer, every op's
        latencies scaled to the reference machine speed, as one list per op
        of the pool."""
        n = len(tracers)
        runs = [[[] for _ in pool] for _ in tracers]
        cal.sample()
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes < MIN_PASSES * n or passes % n or time.perf_counter() < deadline:
            for i, op in enumerate(pool):
                cal.maybe_sample()
                k = (i + passes) % n
                runs[k][i].append(self.run_op(op, tracers[k]))
            passes += 1
        cal.sample()
        return passes, [[[t * cal.scale(t0, t) for t0, t in op_runs] for op_runs in per_op]
                        for per_op in runs]


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment():
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlevy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads": BLAS_THREADS, "held_out_seed": HELD_OUT_SEED}


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(args, loop):
    tr = NullTracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        pool, _, setup_s = setup(args.workload, args.seed, tr, workdir)
        setups = [setup_s] + [setup_in_fresh_interpreter(args.workload, args.seed)
                              for _ in range(SETUP_RUNS - 1)]
        import calibration
        cal = calibration.Calibration()
        loop.warm_up(pool, tr)
        passes, (per_op,) = loop.measure(pool, args.seconds, [tr], cal)
    # an op's latency is the median of its scaled runs; the percentiles are over ops
    ms = [1e3 * statistics.median(t) for t in per_op]
    p90 = percentile(ms, 90)
    beyond = sum(t > p90 for t in ms)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(1e3 * len(ms) / sum(ms), "1/s"),
        "op_p50_ms": metric(percentile(ms, 50), "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(pool)} ops, "
          f"{beyond} ops beyond op_p90_ms")
    print(f"  setup_s runs: {' '.join(f'{s:.3f}' for s in setups)}")
    print(f"  calibration kernel: median {cal.median_ms():.3f} ms over "
          f"{len(cal.durations)} runs (reference {1e3 * calibration.CAL_REF_S:g} ms)")
    print(f"  fail_ratio {loop.failed / loop.attempted:.4g} "
          f"({loop.failed} of {loop.attempted} ops)")
    return metrics


def traced_run(args, loop):
    tr = Tracer()
    off = NullTracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        pool, fx, _ = setup(args.workload, args.seed, tr, workdir)
        import workloads
        pools = {w: (pool if w == args.workload
                     else workloads.POOLS[w](args.seed, fx, workdir)) for w in WORKLOADS}
        import calibration
        loop.warm_up(pool, off)
        _, (times_off, times_on) = loop.measure(pool, args.seconds, [off, tr],
                                                calibration.Calibration())
        for w, other in pools.items():
            if w != args.workload:
                loop.warm_up(other, off)
                for op in other:
                    loop.run_op(op, tr)
        workloads.sweeps(tr, fx, args.seed)
    pieces = sum(op.pieces for op in pools["cocycle_long"])
    # traced over untraced ops per second; every op ran equally often under each
    overhead = sum(map(sum, times_off)) / sum(map(sum, times_on))
    path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tr.write(path, {"workload": args.workload, "seed": args.seed, "env": environment()})
    print(f"{args.workload} seed {args.seed}: {len(tr.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    print(f"  fail_ratio {loop.failed / loop.attempted:.4g} "
          f"({loop.failed} of {loop.attempted} ops)")
    return {name: metric(value, unit)
            for name, (value, unit) in layer_metrics(tr, pieces, overhead).items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up alone in this interpreter and print it, scaled")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qlevy" / "__init__.py").is_file():
        print(f"no qlevy sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            _, _, setup_s = setup(args.workload, args.seed, NullTracer(), workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    loop = Loop()
    metrics = (traced_run if args.trace else untraced_run)(args, loop)
    # after the run: environment() imports numpy, which set-up must time
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
