"""psdmask benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload preserved_full --seed 0 --seconds 15 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/`` directory.  The workload's call list is run in whole passes until
``--seconds`` have elapsed.  With ``--trace 0`` the run reports end-to-end
metrics; with ``--trace 1`` it runs untraced for half the time, then traced
for the other half, and reports per-layer metrics.  Times are reported in
reference seconds (see reference.py); raw wall times are printed beside
them.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run is
also written under ``perfbench/out/``.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import os

# One process, BLAS pinned to one thread; set before numpy is imported.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """The metrics BENCHMARK.json gates for this mode: name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_library():
    """Import psdmask from this checkout's src/, and only from there."""
    if not (SRC / "psdmask" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'psdmask'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import psdmask

    if Path(psdmask.__file__).resolve().parent != (SRC / "psdmask").resolve():
        sys.exit(f"error: imported psdmask from {psdmask.__file__}, not from {SRC}")


def measure_setup(args) -> tuple[Gauge, list[float]]:
    """Fresh processes that import psdmask and build the inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    # No timeout: with one, subprocess polls the child in sleeps of up to 50 ms.
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)  # warm-up
    gauge, raw = Gauge(), []
    gauge.prime()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        raw.append(perf_counter() - t0)
        gauge.after_call("setup", raw[-1])
    gauge.flush()
    return gauge, raw


class Passes:
    """Whole passes over the call list: per-call times, failures, digests."""

    def __init__(self, cases, first_pass: list[str] | None = None, tracer=None):
        self.cases = cases
        self.tracer = tracer
        self.gauge = Gauge()
        self.times: list[list[float]] = [[] for _ in cases]
        self.checks: list[int] = [0] * len(cases)
        # Canonical outputs of the first pass; later passes must match them.
        self.digests: list[str | None] = list(first_pass) if first_pass else [None] * len(cases)
        self.count = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, budget_s: float, before_pass=None) -> "Passes":
        import cases as C

        self.gauge.prime()
        t_start = perf_counter()
        while self.count == 0 or perf_counter() - t_start < budget_s:
            if before_pass is not None:
                before_pass(self.count)
            for i, case in enumerate(self.cases):
                self.attempted += 1
                t0 = perf_counter()
                try:
                    result = C.invoke(case)
                except Exception as exc:  # a raising call is a failed call
                    self._timed(i, perf_counter() - t0)
                    self.failures.append(f"{case.label}: raised {type(exc).__name__}: {exc}")
                    if self.digests[i] is None:
                        self.digests[i] = f"raised {type(exc).__name__}"
                    continue
                self._timed(i, perf_counter() - t0)
                if self.tracer is not None:
                    self.tracer.paused = True
                self._check(i, case, result)
                if self.tracer is not None:
                    self.tracer.paused = False
            self.count += 1
        self.gauge.flush()
        return self

    def _timed(self, i: int, call_s: float) -> None:
        self.times[i].append(call_s)
        self.gauge.after_call(i, call_s)

    def _check(self, i, case, result) -> None:
        import cases as C

        first = self.digests[i] is None
        if first:
            self.digests[i] = "unreadable"  # replaced below if the output reads
        try:
            text = C.digest(case, result)
            if first:
                self.digests[i] = text
                reason = C.judge(case, result)
                if case.call != "cli":
                    self.checks[i] = int(result.stats["checked"])
            else:
                reason = None if text == self.digests[i] else f"{case.label}: output differs from pass 1"
        except Exception as exc:  # a malformed output is a failed call
            reason = f"{case.label}: unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            self.failures.append(reason)

    def _per_call(self, scaled: bool) -> list[list[float]]:
        return [self.gauge.scaled[i] for i in range(len(self.cases))] if scaled else self.times

    def wall(self, scaled: bool = True) -> float:
        """One pass, each call timed by the median of its repeats."""
        return sum(statistics.median(t) for t in self._per_call(scaled))

    def calls(self, scaled: bool = True) -> list[float]:
        return sorted(t for ts in self._per_call(scaled) for t in ts)

    def mean_pass_s(self) -> float:
        return sum(sum(t) for t in self.times) / self.count

    def report_sha256(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def environment(args, np) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


def end_to_end(args, passes: Passes, setup: Gauge, setup_raw: list[float]) -> dict:
    """Every end-to-end metric: name -> (value, unit)."""
    calls, raw_calls = passes.calls(), passes.calls(scaled=False)
    wall = passes.wall()
    out = {
        "setup_s": (statistics.median(setup.scaled["setup"]), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "call_p50_ms": (1e3 * statistics.median(calls), "ms"),
    }
    if len(calls) >= 100:
        out["call_p90_ms"] = (1e3 * statistics.quantiles(calls, n=10)[-1], "ms")
    if args.workload != "suite_cli":
        out["checks_per_s"] = (sum(passes.checks) / wall, "1/s")
    out.update({
        "fail_frac": (len(passes.failures) / passes.attempted, "ratio"),
        "calls": (len(calls), "count"),
        "passes": (passes.count, "count"),
        "raw.setup_s": (statistics.median(setup_raw), "s"),
        "raw.wall_s": (passes.wall(scaled=False), "s"),
        "raw.call_p50_ms": (1e3 * statistics.median(raw_calls), "ms"),
        "raw.chunk_ms": (1e3 * statistics.median(passes.gauge.times), "ms"),
    })
    return out


def traced(args, case_list, units):
    """Untraced passes, then traced passes; per-layer metrics of the latter."""
    import spans

    base = Passes(case_list).run(args.seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        def start_pass(k):
            tracer.recording = k == 0

        run = Passes(case_list, base.digests, tracer).run(args.seconds / 2, start_pass)
    finally:
        tracer.uninstall()
        tracer.recording = False
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    untraced_s = base.mean_pass_s() * base.gauge.scale
    metrics = tracer.metrics(run.count, run.mean_pass_s(), untraced_s, run.gauge.scale)
    out = {name: (v, units[name]) for name, v in metrics.items()}
    out["passes"] = (run.count, "count")
    return run, out, base.failures + run.failures, base.attempted + run.attempted


def main(argv=None) -> int:
    import_library()
    import numpy as np

    import cases as C

    args = parse_args(argv, C.WORKLOADS)
    if args.setup_probe:
        C.build(args.workload, args.seed)
        return 0

    gated = declared_metrics(args.trace)
    if not args.trace:
        setup, setup_raw = measure_setup(args)
    case_list = C.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        timed, metrics, failures, attempted = traced(args, case_list, gated)
    else:
        timed = Passes(case_list).run(args.seconds)
        failures, attempted = timed.failures, timed.attempted
        metrics = end_to_end(args, timed, setup, setup_raw)
    for name, unit in gated.items():
        if name not in metrics or metrics[name][1] != unit:
            sys.exit(f"error: metric {name} ({unit}) of BENCHMARK.json was not measured")
    digest = timed.report_sha256()
    defects = C.known_defects()

    record = {
        "environment": environment(args, np),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "report_sha256": digest,
        "known_defects": defects,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "call_times_s": {f"{i}:{c.label}": t for i, (c, t) in enumerate(zip(case_list, timed.times))},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:.6g} {unit}{'' if name in gated else '  (not gated)'}")
    print(f"  {'report_sha256':30s} {digest}")
    for name, d in defects.items():
        print(f"  known defect {name}: {d['status']} (expected {d['expected']}, got {d['got']}; not gated)")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: record["metrics"][n] for n in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
