"""Blowdown benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from this process and prints, as its
last stdout line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones listed in
BENCHMARK.json, measured with tracing off; with `--trace 1` they are the
per-layer ones, taken from spans and counts recorded around the package's
public functions (tracing.py). Every pass's output is checked
(validate.py). Fresh-interpreter probes (probe.py) run one at a time, so the
load never exceeds this process plus one child.
"""

import os

# Pin numerical libraries to one thread before numpy is imported, here and
# in every probe, so the load stays within one core per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

#: Fresh-interpreter probes per run; set-up, cold-pass and memory figures
#: are their medians.
PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
MIN_PASSES = 5
#: Traced passes per run: spans of every call are kept in memory, and the
#: per-pass counts are exact, so a few passes suffice.
TRACED_PASSES = 3


class BenchmarkError(Exception):
    """The run cannot produce its metrics; no result is printed."""


class Tally:
    """Operations attempted and failed, and the output digests seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.problems = []

    def add(self, result) -> None:
        self.attempted += result.ops
        self.failed += result.failed
        if result.digest:
            self.digests.add(result.digest)
        self.problems += result.problems

    def fail(self, problem: str, ops: int = 1) -> None:
        self.attempted += ops
        self.failed += ops
        self.problems.append(problem)


def load_program() -> None:
    """Import the package from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import blowdown
    location = Path(blowdown.__file__).resolve()
    if not location.is_relative_to(SRC.resolve()):
        raise ImportError(f"blowdown was imported from {location}, "
                          f"not from {SRC}")


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime`."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if (line.startswith("import time:") and len(parts) == 3
                and parts[2].strip() == module):
            return int(parts[1]) / 1e6
    return 0.0


def run_probe(workload, out_dir: Path, tally, importtime: bool = False):
    """One fresh interpreter doing set-up and one pass; None if it failed.

    With `importtime` the interpreter reports its import times, and an
    ensemble pass is cut to its first member: enough to trigger every
    import the program makes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = {"src": str(SRC), "workload": workload.name,
            "out_dir": str(out_dir), "one_op": importtime,
            "document_file": str(workload.document_file)}
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(BENCH_DIR / "probe.py"), json.dumps(spec)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.fail(f"probe exceeded {PROBE_TIMEOUT_S} s",
                   len(workload.scenarios))
        return None
    if proc.returncode != 0:
        tally.fail(f"probe exited with {proc.returncode}: "
                   f"{proc.stderr.strip().splitlines()[-1:]}",
                   len(workload.scenarios))
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["cold_s"] = report["finished"] - started
    tally.attempted += report["ops"]
    tally.failed += report["failed"]
    tally.problems += report["problems"]
    if importtime:
        report["imports"] = {name: import_seconds(proc.stderr, name)
                             for name in ("blowdown", "scipy.integrate")}
    elif report["digest"]:
        tally.digests.add(report["digest"])
    return report


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics: steadier from run to run than
    a single order statistic when, as on the simulate workloads, a run has
    only tens of samples.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    cdf = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def end_to_end(workload, tally, seconds: float, out_dir: Path):
    """Warm passes for `seconds`, with the probes spread evenly among them."""
    timeline = calibrate.Timeline()
    tally.add(workload.run_pass())  # warm-up, checked like any other pass
    passes, probes, probes_run, busy = [], [], 0, 0.0
    while len(passes) < MIN_PASSES or busy < seconds or probes_run < PROBES:
        if probes_run < PROBES and busy >= probes_run * seconds / PROBES:
            report, scale = timeline.run(lambda: run_probe(
                workload, out_dir / f"probe-{probes_run}", tally))
            probes_run += 1
            if report is not None:
                probes.append((report, scale))
        else:
            result = workload.run_pass(timeline=timeline)
            tally.add(result)
            passes.append(result)
            busy += result.raw_elapsed
    if not probes:
        raise BenchmarkError(f"every probe failed: {tally.problems[:3]}")

    wall = statistics.median(p.elapsed for p in passes)
    ops = np.concatenate([p.op_s for p in passes])
    p50, p95 = (1e3 * quantile(ops, p) for p in (0.50, 0.95))
    # Only the pass inside a probe is scaled: interpreter start-up and
    # imports did not follow the calibration kernel (scaling them widened
    # their spread), so setup_s and that part of cold_s are as measured.
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p, _ in probes),
        "cold_s": statistics.median(
            p["cold_s"] + (k - 1.0) * p["pass_s"] for p, k in probes),
        "wall_s": wall,
        "sim_s_per_s": workload.horizon / wall,
        "rows_per_s": workload.rows / wall,
        "op_ms_p50": p50,
        "op_ms_p95": p95,
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p, _ in probes),
    }
    counts = {
        "probes": len(probes), "passes": len(passes) + 1,
        "op_samples": int(ops.size),
        "op_samples_beyond_p95": int(np.sum(ops * 1e3 > p95)),
        "unscaled_wall_s": statistics.median(p.raw_elapsed for p in passes),
        "unscaled_cold_s": statistics.median(p["cold_s"] for p, _ in probes),
        "calibration_kernel_s": statistics.median(timeline.kernel_s),
        "probe_setup_cold_pass_scale": [
            (p["setup_s"], p["cold_s"], p["pass_s"], k) for p, k in probes],
    }
    return metrics, counts


def solver_segments(scenario) -> int:
    """Solver segments `integrate` must run: one per breakpoint interval."""
    if scenario.t_end == 0.0:
        return 0
    edges = {t for t, _ in scenario.schedule if t <= scenario.t_end}
    return len(edges | {0.0, scenario.t_end}) - 1


def per_layer(workload, tally, seconds: float, out_dir: Path):
    """Untraced, then traced passes; per-layer figures from the spans."""
    import blowdown
    import workloads
    from tracing import Tracer, instrument

    timeline = calibrate.Timeline()
    imports = []
    for i in range(IMPORT_PROBES):
        report = run_probe(workload, out_dir / f"imports-{i}", tally,
                           importtime=True)
        if report is not None:
            imports.append(report["imports"])
    if not imports:
        raise BenchmarkError(f"every probe failed: {tally.problems[:3]}")
    tally.add(workload.run_pass())  # warm-up
    untraced, busy = [], 0.0
    while len(untraced) < 3 or busy < seconds / 2:
        result = workload.run_pass(timeline=timeline)
        tally.add(result)
        untraced.append(result.elapsed)
        busy += result.raw_elapsed

    tracer = Tracer()
    traced, per_pass_counts = [], []
    size = len(workload.scenarios)
    with instrument(tracer):
        for i in range(TRACED_PASSES):
            before = Counter(tracer.counts)
            result = workload.run_pass(tracer, i * size, timeline)
            tally.add(result)
            traced.append(result)
            counts = Counter(tracer.counts)
            counts.subtract(before)
            per_pass_counts.append(counts)
    tracer.dump(out_dir / "spans.npz")
    spans = tracer.arrays()
    for i, counts in enumerate(per_pass_counts):
        in_pass = (spans["run"] >= i * size) & (spans["run"] < (i + 1) * size)
        counts.update(tracer.names[k] for k in spans["name_id"][in_pass])
    # One more pass counts the physics-module calls; its times are not used.
    kernel_tracer = Tracer()
    with instrument(kernel_tracer, kernels=True):
        result = workload.run_pass(kernel_tracer)
    tally.add(result)
    kernel_counts = kernel_tracer.counts
    solver_keys = ("solver.constructions", "solver.steps")
    if any(c != per_pass_counts[0] for c in per_pass_counts) or any(
            kernel_counts[k] != per_pass_counts[0][k] for k in solver_keys):
        tally.problems.append("traced passes did different amounts of work")

    n = len(traced)
    summary = tracer.summary()
    # Span times are scaled to reference speed like every other time.
    scale = statistics.median(p.elapsed / p.raw_elapsed for p in traced)

    def span(name, key="s"):
        value = summary.get(name, {}).get(key, 0) / n
        return value if key == "calls" else value * scale

    counts = per_pass_counts[0]
    rhs_calls = span("engine.assemble_rhs", "calls")
    csv_bytes = (workload.csv_path.stat().st_size
                 if workload.name != "ensemble" else 0)
    metrics = {
        "import.scipy_integrate_s": statistics.median(
            p["scipy.integrate"] for p in imports),
        "import.blowdown_s": statistics.median(p["blowdown"] for p in imports),
        "cli.yaml_load_s": span("cli.yaml_load"),
        "cli.write_s": span("cli.write"),
        "scenario_io.parse_scenario.calls": span("scenario_io.parse_scenario",
                                                 "calls"),
        "scenario_io.parse_scenario.s": span("scenario_io.parse_scenario"),
        "scenario_io.trajectory_csv.s": span("scenario_io.trajectory_csv"),
        "scenario_io.trajectory_csv.bytes": csv_bytes,
        "scenario_io.format_value.calls": span("scenario_io.format_value",
                                               "calls"),
        "scenario_io.format_value.s": span("scenario_io.format_value"),
        "engine.integrate.s": span("engine.integrate"),
        "engine.integrate.self_s": span("engine.integrate", "self_s"),
        "engine.assemble_rhs.calls": rhs_calls,
        "engine.assemble_rhs.s": span("engine.assemble_rhs"),
        "engine.assemble_rhs.us_per_call": (
            1e6 * span("engine.assemble_rhs") / rhs_calls
            if rhs_calls else 0.0),
        "engine.evaluate_snapshot.calls": span("engine.evaluate_snapshot",
                                               "calls"),
        "engine.evaluate_snapshot.s": span("engine.evaluate_snapshot"),
        "engine.inputs_at.calls": span("engine.inputs_at", "calls"),
        "engine.inputs_at.s": span("engine.inputs_at"),
        "solver.constructions": counts["solver.constructions"],
        "solver.steps": counts["solver.steps"],
        "solver.protection_restarts": counts["solver.constructions"] - sum(
            solver_segments(s) for s in workload.scenarios),
    }
    for module in ("state", "rheology", "hydraulics", "smc", "energetics"):
        metrics[f"kernels.{module}.calls"] = kernel_counts[
            f"kernels.{module}.calls"]
    metrics["trace.overhead_s"] = (
        statistics.median(p.elapsed for p in traced)
        - statistics.median(untraced))
    for kind, share in workload.member_shares().items():
        metrics[f"members.{kind}_frac"] = share

    if workload.name != "ensemble":
        # The log interval changes what is recorded, not how the solver
        # steps: both CSV workloads must show the same solver work.
        other = workloads.build(
            "dense_log" if workload.name == "default_simulate"
            else "default_simulate", out_dir / "cross-check").scenarios[0]
        check = Tracer()
        with instrument(check):
            blowdown.integrate(other)
        seen = (check.counts["solver.steps"],
                check.summary()["engine.assemble_rhs"]["calls"])
        if seen != (metrics["solver.steps"], rhs_calls):
            tally.problems.append(
                f"trace check: solver steps and RHS calls {seen} at log "
                f"interval {other.log_interval} differ from "
                f"{(metrics['solver.steps'], rhs_calls)}")
    run_counts = {"import_probes": len(imports), "untraced_passes":
                  len(untraced), "traced_passes": n + 1,
                  "spans": len(tracer.start),
                  "calibration_kernel_s": statistics.median(
                      timeline.kernel_s)}
    return metrics, run_counts


def provenance(args, counts):
    import numpy
    import scipy
    import yaml

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts \
                and ".egg-info" not in str(path):
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit or None,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        load_program()
        import workloads
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    document_file = (workloads.ensemble_file(args.seed, out_dir)
                     if args.workload == "ensemble" else None)
    workload = workloads.build(args.workload, out_dir / "warm", document_file)

    # Keep this process and its probes on one CPU, the one the calibration
    # kernel measures; the probes run one at a time while this process waits.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tally = Tally()
    try:
        if args.trace:
            metrics, counts = per_layer(workload, tally, args.seconds, out_dir)
            wanted = definition["per_layer"]
        else:
            metrics, counts = end_to_end(workload, tally, args.seconds,
                                         out_dir)
            wanted = definition["end_to_end"]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if {m["name"] for m in wanted} != set(metrics):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted({m['name'] for m in wanted} ^ set(metrics))}",
              file=sys.stderr)
        return 2
    if len(tally.digests) > 1:
        tally.problems.append(f"{len(tally.digests)} different outputs from "
                              "identical passes")
    correct = tally.failed == 0 and not tally.problems

    counts["ensemble_members"] = (len(workload.scenarios)
                                  if args.workload == "ensemble" else 0)
    record = {
        "provenance": provenance(args, counts),
        "output_sha256": sorted(tally.digests),
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "problems": tally.problems[:20],
    }
    (out_dir / "result.json").write_text(json.dumps(
        {**record, "metrics": metrics}, indent=1))
    for m in wanted:
        print(f"{m['name']:36s} {metrics[m['name']]:>16.6g} {m['unit']}",
              file=sys.stderr)
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
