"""Benchmark of the stci CLI on seeded workloads.

    python3 bench/run.py --workload powers --seed 1 --seconds 36 --trace 0

Runs ``stci.cli.main`` in this process, one call at a time with stdout
captured, on calls generated from ``--seed`` (see ``workloads.py``).  Every
call starts from cold caches, like one ``stci`` process.  Passes over the
calls repeat, at least MIN_PASSES times, while another pass fits in
``--seconds`` counted from the start of the run; the workloads are sized so
that MIN_PASSES passes fit in the ``run_seconds`` of BENCHMARK.json.  Every
output is checked.  It prints the end-to-end metrics; ``--trace 1`` adds one
traced pass (``spans.py``) and prints the per-layer metrics as well.  The
last line of stdout is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``, whose metrics are the end-to-end ones with
``--trace 0`` and the per-layer ones with ``--trace 1``.  A summary with the
raw timings, and the spans of a traced run, go to ``bench/out/``.

Times are scaled to a reference core speed.  On a shared machine the speed
of a core drifts by up to a third over tens of seconds, the same for this
program and for any other Python code.  So a fixed pure-Python job that
does not touch stci (``speed_probe``) runs after every call, and each call
time is multiplied by ``REFERENCE_PROBE_S`` over the mean of the probes
just before and after it.  The probe runs after stci's caches are cleared
and its garbage collected, with the collector off, so that the heap a call
leaves behind does not slow the probe and cancel part of the call's own
cost.  This keeps the median of a metric within a few percent from run to
run, where raw times moved by 30%.

The package is imported from ``src/`` next to this directory; the run
fails without printing a result when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
# passes made even when --seconds is shorter; call_tail_s is the highest
# percentile with TAIL_SAMPLES calls above it in MIN_PASSES passes, so the
# percentile does not change when more passes fit
MIN_PASSES = 3
TAIL_SAMPLES = 10
# speed_probe time that defines the reference core speed (an idle core of
# an Intel Xeon at 2.1 GHz takes 4.1-4.5 ms)
REFERENCE_PROBE_S = 0.0045


def speed_probe() -> float:
    """Time a fixed job in three parts that stand for the kinds of work stci
    does: dict and integer updates, Fraction arithmetic, and frozenset faces
    keyed by tuples."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    for i in range(6000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + k * i
    best = Fraction(0)
    for i in range(1, 250):
        a, b = Fraction(i, i % 13 + 1), Fraction(3 * i + 1, 17)
        c = a * b - a / b
        if c > best:
            best = c
    faces: dict[tuple[int, ...], frozenset[int]] = {}
    for i in range(1200):
        face = frozenset(j for j in range(6) if i >> j & 1)
        faces[tuple(sorted(face))] = face
    return perf_counter() - t0


def quiet_probe(clear_caches) -> float:
    """``speed_probe`` on a heap with stci's caches cleared and its garbage
    collected, with the collector off while it runs."""
    clear_caches()
    gc.collect()
    gc.disable()
    try:
        return speed_probe()
    finally:
        gc.enable()


def import_stci():
    """Import the package from ``src/``, never from an installed copy."""
    if not (SRC / "stci" / "__init__.py").is_file():
        raise SystemExit(f"error: no stci package at {SRC / 'stci'}")
    sys.path.insert(0, str(SRC))
    import stci.cli
    import stci.invariants

    if Path(stci.__file__).resolve().parent != (SRC / "stci").resolve():
        raise SystemExit(f"error: imported stci from {stci.__file__}")
    return stci


def measure_setup(stci, workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh processes that import stci, build
    the workload's calls and the output checker."""
    clear_caches = stci.invariants.clear_caches
    raw, scaled = [], []
    before = quiet_probe(clear_caches)
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        dt = perf_counter() - t0
        after = quiet_probe(clear_caches)
        raw.append(dt)
        scaled.append(dt * REFERENCE_PROBE_S / ((before + after) / 2))
        before = after
    return raw, scaled


@dataclass
class Pass:
    """One pass over the calls: raw call times, their speed scales, and
    each call's output and problems."""

    call_s: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)

    @property
    def scaled_call_s(self) -> list[float]:
        return [t * f for t, f in zip(self.call_s, self.scale)]

    @property
    def wall_s(self) -> float:
        return sum(self.scaled_call_s)


def run_pass(stci, calls, checker, tracer=None) -> Pass:
    """One pass over ``calls``; outputs are checked after the clock stops.
    With a tracer, each call's spans carry the call's index as request."""
    clear_caches = stci.invariants.clear_caches
    result = Pass()
    codes = []
    before = quiet_probe(clear_caches)
    for k, call in enumerate(calls):
        if tracer is not None:
            tracer.current_request = k
        clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = stci.cli.main(list(call.argv))
            except Exception as exc:  # a traceback is a failed call, not a crash
                rc = f"raised {exc!r}"
            result.call_s.append(perf_counter() - t0)
        after = quiet_probe(clear_caches)
        result.scale.append(REFERENCE_PROBE_S / ((before + after) / 2))
        before = after
        result.outputs.append(out.getvalue())
        codes.append((rc, err.getvalue().strip()))
    for call, (rc, err_text), text in zip(calls, codes, result.outputs):
        if isinstance(rc, str):
            result.problems.append([rc])
        elif rc in (2, 3):
            result.problems.append([f"exit {rc}: {err_text[:200]}"])
        else:
            result.problems.append(checker.problems(call, rc, text))
    return result


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density at each
    one's rank.  A workload's calls have a few fixed costs, with gaps between
    them; the plain order statistic next to such a gap jumped by 10% from run
    to run, while this weighted mean moved by a few percent."""
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_w = [(a - 1) * math.log(u) + (b - 1) * math.log(1 - u)
             for u in ((i + 0.5) / n for i in range(n))]
    top = max(log_w)
    w = [math.exp(v - top) for v in log_w]
    return sum(wi * xi for wi, xi in zip(w, x)) / sum(w)


def digest(outputs: list[str]) -> str:
    """SHA-256 of the outputs in sorted order, so that every seed of a
    workload, which differ only in call order, gives the same digest."""
    h = hashlib.sha256()
    for text in sorted(outputs):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    started = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        raise SystemExit("error: run without -O; the program's asserts are checks")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, OutputCheck, verdict_counts

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    make_calls = WORKLOADS[args.workload]
    if args.setup_probe:
        stci = import_stci()
        make_calls(args.seed)
        OutputCheck(stci.cli.REPORT_SCHEMA)
        return 0

    # one core for this process and its setup probes, so that speed_probe
    # measures the core the calls run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    stci = import_stci()
    calls = make_calls(args.seed)
    checker = OutputCheck(stci.cli.REPORT_SCHEMA)
    setup_raw, setup = measure_setup(stci, args.workload, args.seed)

    # --seconds counts from the start, set-up included
    t_start = perf_counter()
    passes = [run_pass(stci, calls, checker)]
    pass_s = perf_counter() - t_start
    while (len(passes) < MIN_PASSES
           or perf_counter() - started + pass_s <= args.seconds):
        passes.append(run_pass(stci, calls, checker))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(stci, calls, checker, tracer)
        finally:
            tracer.uninstall()

    all_passes = passes + ([traced] if traced else [])
    problems = [p for ps in all_passes for p in ps.problems]
    failed = sum(1 for p in problems if p)
    attempted = len(problems)
    first = passes[0]
    verdicts = verdict_counts(first.outputs)
    n_verdicts = sum(verdicts.values())
    items = n_verdicts if args.workload == "checks" else len(calls)
    # one pass with every call at its median time over the passes
    wall_s = sum(statistics.median(ts)
                 for ts in zip(*(p.scaled_call_s for p in passes)))
    pooled = [t for p in passes for t in p.scaled_call_s]
    samples = MIN_PASSES * len(calls)
    tail_p = max(1, 100 * (samples - TAIL_SAMPLES) // samples)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall_s, "s"),
        "items_per_s": (items / wall_s, "1/s"),
        "call_p50_s": (hd_quantile(pooled, 0.5), "s"),
        "call_tail_s": (hd_quantile(pooled, tail_p / 100), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = {}
    if traced:
        per_layer = tracer.layer_metrics(traced.scale)
        for verdict, count in verdict_counts(traced.outputs).items():
            per_layer[f"verification.verdicts.{verdict}"] = (count, "count")
        per_layer["trace.overhead_frac"] = (traced.wall_s / wall_s - 1, "ratio")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "calls_per_pass": len(calls),
        "call_samples": len(pooled),
        "call_tail_percentile": tail_p,
        "failed_frac": failed / attempted,
        "check_fail_frac": verdicts["fail"] / n_verdicts if n_verdicts else 0.0,
        "verdicts": verdicts,
        "output_digest": digest(first.outputs),
        "outputs_repeat": all(p.outputs == first.outputs for p in all_passes),
        "setup_raw_s": setup_raw,
        "raw_call_s": [p.call_s for p in all_passes],
        "speed_scale": [p.scale for p in all_passes],
        "problems": [
            {"call": k % len(calls), "argv": calls[k % len(calls)].argv, "problems": p}
            for k, p in enumerate(problems) if p
        ][:20],
    }

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        tracer.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"end_to_end": as_json(end_to_end), "per_layer": as_json(per_layer),
         "info": info}, indent=2) + "\n")

    raw_wall = statistics.median(sum(p.call_s) for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"{' + 1 traced' if traced else ''}  calls/pass {len(calls)}  "
          f"failed {failed}/{attempted}")
    print(f"  unscaled pass {raw_wall:.3f} s (median); times below are scaled to a core "
          f"where speed_probe takes {REFERENCE_PROBE_S * 1000:g} ms")
    print(f"  call_p50_s and call_tail_s are Harrell-Davis quantiles of "
          f"{len(pooled)} pooled calls; call_tail_s is p{tail_p}")
    print(f"  failed_frac {info['failed_frac']:.4f}  "
          f"check_fail_frac {info['check_fail_frac']:.4f} "
          f"({verdicts['fail']} of {n_verdicts} verdicts)")
    print(f"  output_digest {info['output_digest']}  "
          f"outputs_repeat {info['outputs_repeat']}")
    for entry in info["problems"]:
        print(f"  problem: call {entry['call']}: {'; '.join(entry['problems'])}")
    for key, (value, unit) in (end_to_end | per_layer).items():
        print(f"  {key:<46} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": as_json(per_layer if traced else end_to_end),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
