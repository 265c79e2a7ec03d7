"""tauberlab benchmark: one workload in one process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload {pnt,battery,points} --seed N \
        --seconds S --trace {0,1}

--trace 0 times units of the workload back to back for S seconds (at least
one unit) and reports the end-to-end metrics listed in BENCHMARK.json.
--trace 1 alternates untraced and traced units instead and reports the
per-layer metrics; `trace.overhead_s` is the median traced unit wall time
minus the median untraced one. Every op's output is checked outside the
timed region. The last line of stdout is the result object; the line
before it is a record of the run (machine, versions, error_rate ...).

The program is imported from src/ of the checkout this file sits in; the
run exits non-zero without a result when that is missing. BLAS and OpenMP
pools are pinned to one thread before numpy is imported, and every file
the run writes (the prime-table cache included) lives under perfbench/.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5

# One set-up sample in a fresh interpreter: imports, then (pnt) a cold
# prime table into an empty cache directory.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tauberlab.tauber
from tauberlab.arith import build_prime_table
t1 = time.perf_counter()
if int(sys.argv[2]):
    build_prime_table(int(sys.argv[2]), cache_dir=sys.argv[3])
print(json.dumps({"import_s": t1 - t0, "table_s": time.perf_counter() - t1}))
"""


def measure_setup(limit, workdir):
    """Median over fresh interpreters of import time plus cold table build."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cache = workdir / f"setup-{i}"
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(limit), str(cache)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        rec = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(rec["import_s"] + rec["table_s"])
        shutil.rmtree(cache, ignore_errors=True)
    return statistics.median(samples), samples


def run_unit(workload, call, errors):
    """Run one unit; (seconds, result or exception, check) per op."""
    out = []
    for op, check in workload.ops(call):
        t0 = time.perf_counter()
        try:
            res = op()
        except errors as exc:
            res = exc
        out.append((time.perf_counter() - t0, res, check))
    return out


class Tally:
    """Op times and check outcomes across the run.

    `by_op[j]` holds the times of the j-th op of every unit, that is of
    one input repeated, so `typical()` is robust to the run's jitter."""

    def __init__(self, errors):
        self.errors = errors
        self.times = []
        self.by_op = collections.defaultdict(list)
        self.failed = 0
        self.worst = 0.0

    def typical(self):
        """Median over the unit's ops of each op's median time."""
        return statistics.median(statistics.median(t) for t in self.by_op.values())

    def add(self, unit):
        for j, (dt, res, check) in enumerate(unit):
            self.times.append(dt)
            self.by_op[j].append(dt)
            if isinstance(res, self.errors):
                print(f"op failed: {type(res).__name__}: {res}", file=sys.stderr)
                self.failed += 1
                continue
            passed, ratio = check(res)
            self.failed += not passed
            self.worst = max(self.worst, ratio)
        return sum(dt for dt, _, _ in unit)


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def counters_repeat(name, seed, counters):
    """True unless an earlier traced run of the same sources and seed
    recorded different work counters."""
    outdir = HERE / "_out"
    outdir.mkdir(exist_ok=True)
    path = outdir / f"counters-{name}-seed{seed}-{src_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counters:
            diff = {k: (before.get(k), v) for k, v in counters.items() if before.get(k) != v}
            print(f"work counters differ from {path.name}: {diff}", file=sys.stderr)
            return False
        return True
    path.write_text(json.dumps(counters, sort_keys=True))
    return True


def environment(np, scipy, mpmath):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # points runs by name but is not in BENCHMARK.json; see README.md
    p.add_argument("--workload", required=True, choices=("pnt", "battery", "points"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "tauberlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tauberlab sources under {SRC}; nothing to measure")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    # anything that falls back to the default cache lands in the private dir
    os.environ["TAUBERLAB_CACHE_DIR"] = str(workdir / "default-cache")
    sys.path.insert(0, str(SRC))
    try:
        return measure(spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(spec, args, workdir):
    import logging

    import mpmath
    import numpy as np
    import scipy

    import tauberlab
    from tauberlab.errors import TauberlabError

    if not Path(tauberlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported tauberlab from {tauberlab.__file__}, not {SRC}")
    import spans
    import workloads

    branch = spans.BranchWarnings()
    logging.getLogger("tauberlab.special").addHandler(branch)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = Tally(TauberlabError)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(np, scipy, mpmath)}

    if args.trace == 0:
        setup_s, record["setup_samples_s"] = measure_setup(workload.table_limit, workdir)
        workload.prepare(workloads.plain_call)
        start = time.perf_counter()
        while not tally.times or time.perf_counter() - start < args.seconds:
            tally.add(run_unit(workload, workloads.plain_call, TauberlabError))
        times = tally.times
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(times) / sum(times),
            "op_s_p50": tally.typical(),
            "op_s_p90": float(np.percentile(times, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
        correct = tally.failed == 0
    else:
        declared = spec["per_layer"]
        names = [m["name"] for m in declared]
        setup_tracer = spans.Tracer()
        workload.prepare(setup_tracer.call)
        base = setup_tracer.layer_metrics(names)
        walls = {False: [], True: []}
        per_unit = []
        start = time.perf_counter()
        while not walls[True] or time.perf_counter() - start < args.seconds:
            walls[False].append(tally.add(run_unit(workload, workloads.plain_call, TauberlabError)))
            tracer = spans.Tracer()
            branch.count = 0
            with spans.patched(workloads.instrumentation(tracer, workload.table)):
                unit = run_unit(workload, tracer.call, TauberlabError)
            tracer.counts["special.uncertified_branch"] = branch.count
            walls[True].append(tally.add(unit))
            per_unit.append(tracer.layer_metrics(names))
            if len(per_unit) == 1:
                write_spans(args, tracer)
        counts = {n: per_unit[0][n] for n in names if not n.endswith("_s")}
        repeat = all({n: u[n] for n in counts} == counts for u in per_unit)
        repeat = repeat and counters_repeat(args.workload, args.seed, counts)
        metrics = {n: base[n] + (per_unit[0][n] if n in counts else
                                 statistics.median(u[n] for u in per_unit)) for n in names}
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        record["units"] = len(per_unit)
        record["counters_repeat"] = repeat
        correct = tally.failed == 0 and repeat

    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    attempted = len(tally.times)
    # printed, not bounded: error_rate is 0 whenever nothing fails, and the
    # worst error ratio on points moves with the seed far more than 25%
    record["error_rate"] = tally.failed / attempted
    record["ref_err_ratio_max"] = tally.worst
    record["metrics"] = metrics
    for m in declared:
        print(f"{args.workload:8s} {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{args.workload:8s} {'ref_err_ratio_max':40s} {tally.worst:.6g} ratio")
    print(f"{args.workload:8s} {'error_rate':40s} {record['error_rate']:.6g} "
          f"({tally.failed} failed of {attempted})")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


def write_spans(args, tracer):
    """Spans of the first traced unit, for reading where the time went."""
    outdir = HERE / "_out"
    outdir.mkdir(exist_ok=True)
    path = outdir / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)}))


if __name__ == "__main__":
    sys.exit(main())
