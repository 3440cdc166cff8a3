"""quadkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {certify,basis,sample,classify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is loaded from ``src/``.
Everything happens in this process with ``jobs=1``, except the set-up probes,
which are fresh interpreters started one at a time.

``--trace 0`` runs the workload's minimum number of passes, then more passes
until about S seconds of passes (at reference host speed, see speed.py) have
run, and prints the end-to-end metrics.  ``--trace 1`` runs the minimum
passes untraced and then again under the tracer, checks that both give the
same outputs, writes the spans to ``.perfbench_out/`` and prints the
per-layer metrics with the tracing overhead.  Outputs of every pass are
checked exactly outside the timed region; the last stdout line is the JSON
result.  ``--smoke`` shrinks every workload to a tiny size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from setup_probe import setup
from speed import SpeedProbe
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify", "basis", "sample", "classify")
SETUP_PROBES = 7


def _proc_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def machine_context() -> dict:
    """nproc, CPU model and load average, read from /proc."""
    status = _proc_text("/proc/self/status")
    cpus = 0
    for line in status.splitlines():
        if line.startswith("Cpus_allowed_list:"):
            for part in line.split(":", 1)[1].strip().split(","):
                lo, _, hi = part.partition("-")
                cpus += int(hi or lo) - int(lo) + 1
    model = next((line.split(":", 1)[1].strip()
                  for line in _proc_text("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    return {"nproc": cpus, "cpu_model": model,
            "python": sys.version.split()[0],
            "loadavg": _proc_text("/proc/loadavg").split()[:3]}


def peak_rss_mb() -> float:
    for line in _proc_text("/proc/self/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def setup_seconds(probe) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, started one after another, raw and
    normalized by reference samples taken just before and after each."""
    raw, norm = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        probe.sample()
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        probe.sample()
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        norm.append(raw[-1] * probe.factor(start))
    return raw, norm


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (the median
    when there are too few samples for any)."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100 - q) / 100 >= 10:
            return q
    return 50.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def report_problems(chk, label: str) -> None:
    for line in chk.problems[:20]:
        print(f"FAIL [{label}] {line}", file=sys.stderr)


def timed_pass(wl, probe: SpeedProbe, inp):
    """One pass, with its op times normalized to reference host speed."""
    start = perf_counter()
    probe.sample()
    res = wl.run(inp)
    probe.sample()
    f = probe.factor(start)
    norm = [b + (t - b) * f for t, b in zip(res.op_seconds, res.budget_seconds)]
    return res, norm, f, perf_counter() - start


def run_untraced(wl, seed: int, seconds: float):
    probe = SpeedProbe()
    wl.tick = probe.tick
    walls, raw_walls, ops, raw_ops, factors = [], [], [], [], []
    attempted = failed = 0
    spent = 0.0
    k = 0
    q = None
    wl.prepare(seed)
    while True:
        inp = wl.inputs(seed, k)
        res, norm, f, elapsed = timed_pass(wl, probe, inp)
        spent += elapsed
        walls.append(sum(norm))
        raw_walls.append(sum(res.op_seconds))
        ops.extend(norm)
        raw_ops.extend(res.op_seconds)
        factors.append(f)
        chk = wl.check(inp, res)
        report_problems(chk, f"pass {k}")
        attempted += chk.attempted
        failed += chk.failed
        k += 1
        if k == wl.min_passes:
            # both fixed by the guaranteed work, so that they cannot change
            # with host speed from one run to the next
            q = tail_percentile(len(ops))
            rss = peak_rss_mb()
        done = sum(walls)
        if k >= wl.min_passes and (done + done / k > seconds
                                   or spent > 1.5 * seconds):
            break
    print(f"# {wl.name}: {k} passes, {len(ops)} ops, fail_share "
          f"{failed}/{attempted}, op_p99_ms "
          f"{1000 * percentile(ops, q):.4f} ms (p{q:g} of {len(ops)} ops)")
    print(f"# raw (not normalized): wall_s {statistics.median(raw_walls):.4f}"
          f", op_p50_ms {1000 * percentile(raw_ops, 50):.4f}, op_p99_ms "
          f"{1000 * percentile(raw_ops, q):.4f}; speed factors "
          f"{[round(f, 3) for f in factors]}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000 * percentile(ops, 50), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return attempted, failed, True, metrics


def _run_passes(wl, probe: SpeedProbe, inputs: list):
    """Passes back to back: results, and total time at reference speed."""
    timed = [timed_pass(wl, probe, inp) for inp in inputs]
    return [t[0] for t in timed], sum(sum(t[1]) for t in timed)


def _check_passes(wl, inputs: list, results: list, label: str):
    attempted = failed = 0
    for k, (inp, res) in enumerate(zip(inputs, results)):
        chk = wl.check(inp, res)
        report_problems(chk, f"{label} pass {k}")
        attempted += chk.attempted
        failed += chk.failed
    return attempted, failed


def run_traced(wl, seed: int, setup_tracer):
    """The first min_passes passes untraced, then again traced."""
    from quadkit import radicals
    from workloads import CERTIFY_CLAIMS

    probe = SpeedProbe()
    wl.tick = probe.tick
    inputs = [wl.inputs(seed, k) for k in range(wl.min_passes)]
    wl.prepare(seed)
    plain, wall_plain = _run_passes(wl, probe, inputs)
    _, failed_plain = _check_passes(wl, inputs, plain, "untraced")

    wl.prepare(seed)
    tracer = Tracer(op_spans=wl.OP_SPANS)
    before = radicals.factorize.cache_info()
    tracer.install()
    try:
        traced, wall_traced = _run_passes(wl, probe, inputs)
    finally:
        tracer.uninstall()
    after = radicals.factorize.cache_info()
    attempted, failed = _check_passes(wl, inputs, traced, "traced")
    same = [r.outputs for r in traced] == [r.outputs for r in plain]
    if not same:
        print("FAIL traced outputs differ from untraced outputs",
              file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        setup_tracer.write_spans(fh, "setup")
        tracer.write_spans(fh, "pass")
    records = [rec for r in traced for rec in r.records]
    metrics = layer_metrics(tracer, setup_tracer, records,
                            (after.hits - before.hits,
                             after.misses - before.misses), CERTIFY_CLAIMS)
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    statuses = {r.claim: r.status for r in records}
    print(f"# {wl.name} traced: {len(inputs)} passes take {wall_plain:.3f} s "
          f"untraced and {wall_traced:.3f} s traced at reference speed; "
          f"{len(tracer.spans)} spans -> {spans_path}")
    if statuses:
        print(f"# traced statuses {json.dumps(statuses)}")
    return attempted, failed + failed_plain, same, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking the harness itself")
    args = ap.parse_args(argv)
    if not (SRC / "quadkit" / "__init__.py").is_file():
        print(f"error: no quadkit sources under {SRC}", file=sys.stderr)
        return 2

    context = {"start": machine_context()}
    if args.trace:
        sys.path.insert(0, str(SRC))
        import quadkit  # noqa: F401  (imported before wrapping)
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            setup()
        finally:
            setup_tracer.uninstall()
    else:
        setup_raw, setup_norm = setup_seconds(SpeedProbe())
        setup()

    import workloads
    wl = workloads.make(args.workload, args.smoke,
                        OUT / f"classify-inputs-{os.getpid()}")
    try:
        if args.trace:
            attempted, failed, same, metrics = run_traced(wl, args.seed,
                                                          setup_tracer)
        else:
            attempted, failed, same, metrics = run_untraced(
                wl, args.seed, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_norm), "s")
            print(f"# setup_s probes, raw {[round(t, 4) for t in setup_raw]}, "
                  f"normalized {[round(t, 4) for t in setup_norm]}")
    finally:
        wl.close()

    context["end"] = {"loadavg": machine_context()["loadavg"]}
    print(f"# context {json.dumps(context)}")
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
