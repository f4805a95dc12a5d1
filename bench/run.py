"""sglab benchmark: one closed-loop client driving sglab's public functions.

    python3 bench/run.py --workload manifold-cells --seed 1 --seconds 20 --trace 0

Every input is generated from ``--seed``.  A run repeats the workload's fixed
list of operations (a pass) until ``--seconds`` have elapsed, checks every
operation's output against the acceptance suite's tolerances, asserts that
the exact work counts repeat from pass to pass, and prints as its last stdout
line one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans with
``--trace 1``.  The line before it is a JSON report with the environment
manifest, work counts, check margins and ungated figures.  The exit code is
non-zero when a check failed or sglab cannot be imported from ``src/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, in this process and in its set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60
#: computed traffic of one kick-drift-kick point-step: u, v and the
#: acceleration, each read and written once as 8-byte floats
STATE_BYTES_PER_POINT_STEP = 48


def _import_sglab():
    sys.path.insert(0, str(SRC))
    try:
        import sglab
    except ImportError as exc:
        sys.exit(f"bench: cannot import sglab from {SRC}: {exc}")
    if SRC not in Path(sglab.__file__).resolve().parents:
        sys.exit(f"bench: imported sglab from {sglab.__file__}, not from {SRC}")


class Context:
    """What an operation sees: spans, exact work counts, checks and notes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.span = tracer.span
        self.reset()

    def reset(self):
        self.counts = Counter()
        self.checks = []  # (name, measured, tolerance)
        self.failures = []
        self.notes = defaultdict(list)

    def count(self, key, n):
        self.counts[key] += n

    def check(self, name, measured, tolerance):
        measured = float(measured)
        self.checks.append((name, measured, tolerance))
        if not measured <= tolerance:
            self.failures.append(f"{name}: {measured:.3e} > {tolerance:.1e}")

    def require(self, name, ok):
        if not ok:
            self.failures.append(name)

    def note(self, key, value):
        self.notes[key].append(value)


def run_pass(ops, ctx):
    """Run one pass; return its wall and CPU seconds and one record per
    operation."""
    records = []
    t_pass, cpu_pass = time.perf_counter(), time.process_time()
    for op_id, (name, fn) in enumerate(ops):
        ctx.reset()
        ctx.tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            with ctx.span("op"):
                fn(ctx)
        except Exception as exc:  # an operation's exception is a counted failure
            ctx.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - t0
        records.append({"name": name, "latency_s": latency, "counts": dict(ctx.counts),
                        "checks": list(ctx.checks), "failures": list(ctx.failures),
                        "notes": dict(ctx.notes)})
    ctx.tracer.op_id = None
    return time.perf_counter() - t_pass, time.process_time() - cpu_pass, records


def time_setup_probes(args) -> list:
    """Seconds from interpreter start to inputs ready, each in a fresh
    process, one process at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def manifest(args) -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    head = read(ROOT / ".git" / "HEAD")
    commit = read(ROOT / ".git" / head[5:]) if head and head.startswith("ref: ") else head
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in (read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), None)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(idx / f) for f in ("level", "type", "size"))
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = size
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cpu0_caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _digest(inputs) -> str:
    """sha256 over every array and number of a workload's inputs."""
    import numpy as np

    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, dict):
            for k in sorted(obj, key=str):
                h.update(str(k).encode())
                feed(obj[k])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        elif isinstance(obj, np.ndarray):
            h.update(np.ascontiguousarray(obj).tobytes())
        elif hasattr(obj, "u"):  # FieldState
            feed([obj.t, obj.u, obj.v, obj.grid])
        else:
            h.update(repr(obj).encode())

    feed(inputs)
    return h.hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(self_times, counts, pass_counts, op_counts, overhead_s):
    """Per-layer figures from span self times and exact counts.

    A time per unit of work is the layer's self time over the work it did in
    the same spans (set-up plus traced passes); counts are per pass.  Layers
    a workload never calls read 0.
    """
    from workloads import BACKLUND_MAPS, FAMILIES, SPECTRA

    def per(layer, count_key, scale):
        n = counts.get(count_key, 0)
        return self_times.get(layer, 0.0) * scale / n if n else 0.0

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    m = {}
    for kind in ("kink_static", "plain", "kink_moving"):
        key = f"evolution.{kind}"
        m[f"{key}.ns_per_point_step"] = _metric(per(key, f"{key}.point_steps", 1e9), "ns")
    steps = sum(pass_counts.get(f"evolution.{k}.point_steps", 0)
                for k in ("kink_static", "plain", "kink_moving"))
    m["evolution.point_steps"] = _metric(steps, "count")
    snap_bytes = pass_counts.get("evolution.snapshot_bytes", 0)
    m["evolution.bytes_per_point_step"] = _metric(
        STATE_BYTES_PER_POINT_STEP + snap_bytes / steps if steps else 0.0, "B")
    m["evolution.snapshot_mb"] = _metric(
        max(oc.get("evolution.snapshot_bytes", 0) for oc in op_counts) / 1e6, "MB")
    m["modulation.track.ms_per_snapshot"] = _metric(
        per("modulation.track", "modulation.track.snapshots", 1e3), "ms")
    m["modulation.track.completion"] = _metric(
        ratio("modulation.track.records", "modulation.track.snapshots"), "ratio")
    m["modulation.rate_check.ms"] = _metric(
        per("modulation.rate_check", "modulation.rate_check.calls", 1e3), "ms")
    for name in BACKLUND_MAPS:
        key = f"backlund.{name}"
        m[f"{key}.ms"] = _metric(per(key, f"{key}.solves", 1e3), "ms")
        m[f"{key}.iters"] = _metric(ratio(f"{key}.iters", f"{key}.solves"), "count")
    m["backlund.stalled_frac"] = _metric(ratio("backlund.stalled", "backlund.solves"), "ratio")
    for name, *_ in FAMILIES:
        key = f"solutions.{name}"
        m[f"{key}.ns_per_point"] = _metric(per(key, f"{key}.points", 1e9), "ns")
    m["grids.pde_residual.ns_per_point"] = _metric(
        per("grids.pde_residual", "grids.pde_residual.points", 1e9), "ns")
    for name, *_ in SPECTRA:
        key = f"spectra.discrete_spectrum.{name}"
        m[f"{key}.ms"] = _metric(per(key, f"{key}.calls", 1e3), "ms")
    m["spectra.eigenpairs"] = _metric(pass_counts.get("spectra.eigenpairs", 0), "count")
    m["conserved.energy.ns_per_point"] = _metric(
        per("conserved.energy", "conserved.energy.points", 1e9), "ns")
    m["inputs.smooth_random.ms"] = _metric(
        per("inputs.smooth_random", "inputs.smooth_random.calls", 1e3), "ms")
    m["trace.overhead_s"] = _metric(overhead_s, "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _import_sglab()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        workload.setup(args.seed, Context(Tracer(False)))
        print("ready", flush=True)
        return 0

    setup_samples = time_setup_probes(args)
    tracer = Tracer(bool(args.trace))
    ctx = Context(tracer)
    t0 = time.perf_counter()
    with tracer.span("setup"):
        inputs = workload.setup(args.seed, ctx)
    in_process_setup_s = time.perf_counter() - t0
    setup_counts = Counter(ctx.counts)
    setup_spans = len(tracer.spans)
    ops = workload.ops(inputs)

    # a traced run alternates untraced and traced passes, so the tracing
    # overhead is measured on the same inputs in the same process; a pass
    # starts only if it is expected to end by the deadline
    min_passes = 4 if args.trace else 2
    passes = []
    deadline = time.perf_counter() + args.seconds
    while (len(passes) < min_passes
           or time.perf_counter() + passes[-1]["wall_s"] <= deadline):
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.enabled = traced
        first_span = len(tracer.spans)
        wall, cpu, records = run_pass(ops, ctx)
        passes.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "records": records,
                       "spans": (first_span, len(tracer.spans))})
    tracer.enabled = False
    # before the inputs are regenerated below
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness: every check, exact work counts repeating from pass to
    # pass, and inputs regenerated from the seed identical to those used
    attempted = sum(len(ps["records"]) for ps in passes)
    failed = sum(1 for ps in passes for r in ps["records"] if r["failures"])
    op_counts = [[r["counts"] for r in ps["records"]] for ps in passes]
    counts_repeat = all(oc == op_counts[0] for oc in op_counts)
    inputs_repeat = _digest(workload.setup(args.seed, Context(Tracer(False)))) == _digest(inputs)
    correct = failed == 0 and counts_repeat and inputs_repeat

    check_ratios = defaultdict(float)
    for ps in passes:
        for r in ps["records"]:
            for name, measured, tol in r["checks"]:
                check_ratios[name] = max(check_ratios[name], measured / tol)
    latencies = [r["latency_s"] * 1e3 for ps in passes for r in ps["records"]]
    untraced = [ps for ps in passes if not ps["traced"]]
    untraced_walls = [ps["wall_s"] for ps in untraced]
    pass_counts = Counter()
    for oc in op_counts[0]:
        pass_counts.update(oc)
    notes = defaultdict(list)
    for r in passes[0]["records"]:
        for key, values in r["notes"].items():
            notes[key].extend(values)

    report = {
        "manifest": manifest(args),
        "passes": len(passes),
        "pass_wall_s": [ps["wall_s"] for ps in passes],
        "pass_cpu_s": [ps["cpu_s"] for ps in passes],
        "setup_s_samples": setup_samples,
        "in_process_setup_s": in_process_setup_s,
        "fail_frac": failed / attempted,
        "failures": sorted({f for ps in passes for r in ps["records"] for f in r["failures"]}),
        "counts_repeat": counts_repeat,
        "inputs_repeat": inputs_repeat,
        "work_counts_per_pass": dict(sorted(pass_counts.items())),
        "work_counts_per_op": [{"op": r["name"], **r["counts"]} for r in passes[0]["records"]],
        "work_counts_sha256": hashlib.sha256(
            json.dumps(op_counts[0], sort_keys=True).encode()).hexdigest(),
        "check_ratios": dict(sorted(check_ratios.items())),
        "op_latency_samples": len(latencies),
        "ungated": workload.summary(notes),
    }
    # a p90 needs at least ten samples beyond it
    if len(latencies) >= 100:
        report["op_p90_ms"] = statistics.quantiles(latencies, n=10)[-1]

    if args.trace:
        traced = [ps for ps in passes if ps["traced"]]
        self_times = Counter(tracer.self_times(0, setup_spans))
        counts = Counter(setup_counts)
        layer_s = 0.0
        for ps in traced:
            pass_self = tracer.self_times(*ps["spans"])
            self_times.update(pass_self)
            layer_s += sum(s for name, s in pass_self.items() if name != "op")
            for r in ps["records"]:
                counts.update(r["counts"])
        overhead_s = (statistics.median(ps["wall_s"] for ps in traced)
                      - statistics.median(untraced_walls))
        report["trace_overhead_s"] = overhead_s
        report["span_coverage"] = layer_s / sum(ps["wall_s"] for ps in traced)
        metrics = per_layer_metrics(self_times, counts, pass_counts, op_counts[0], overhead_s)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        report["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    else:
        metrics = {
            "wall_s": _metric(statistics.median(untraced_walls), "s"),
            "cpu_s": _metric(statistics.median(ps["cpu_s"] for ps in untraced), "s"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "op_p50_ms": _metric(statistics.median(latencies), "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "worst_check_ratio": _metric(max(check_ratios.values(), default=0.0), "ratio"),
        }

    report["metrics"] = metrics
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
