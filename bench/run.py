"""ikernel benchmark: run one workload, or compare and merge result files.

Run from the repository root:

    python3 bench/run.py --workload scenarios-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare OLD.json NEW.json
    python3 bench/run.py --merge .bench_out/*-trace0.json --out merged.json

`--trace 0` measures the end-to-end metrics with nothing wrapped, each time
reported at reference machine speed (see calibrate.py). `--trace 1` sets up a
plain and a wrapped copy of the package (see layers.py), runs one pass on
each, op by op, and reports per-layer metrics. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; a fuller result file, with the environment and raw timings, goes
to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
import results
import stats
import workloads
from calibrate import REFERENCE_SECONDS, reference_load
from tracer import SETUP_OP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_CALIBRATION_REPEATS = 10


def load_ikernel():
    """Import a fresh copy of the package from this checkout's `src`.

    Earlier copies are dropped from `sys.modules` first, so every call pays
    the full import and starts with empty caches.
    """
    for name in [n for n in sys.modules if n == "ikernel" or n.startswith("ikernel.")]:
        del sys.modules[name]
    start = time.perf_counter()
    package = importlib.import_module("ikernel")
    importlib.import_module("ikernel.cli")
    elapsed = time.perf_counter() - start
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise RuntimeError(f"imported ikernel from {package.__file__}, not {SRC}")
    return package, elapsed


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """Attempt and failure accounting shared by both kinds of run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0

    def fail_setup(self, problems: list[str]) -> None:
        """Set-up checks count as one more failed op when any fails."""
        self.failures += [f"setup: {p}" for p in problems]
        self.failed_ops += bool(problems)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.failures += problems

    def call(self, state, op):
        """Run one op; an exception is its result, reported by `judge`."""
        try:
            return self.workload.run_op(state, op)
        except Exception as exc:  # one failed op must not end the run
            return _Raised(exc)

    def judge(self, state, checker, op, result) -> list[str]:
        if isinstance(result, _Raised):
            return [f"{self.workload.op_name(op)} raised: {result.text}"]
        return self.workload.check_op(state, checker, op, result)


class _Raised:
    def __init__(self, exc: Exception):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _setup(workload, seed: int, workdir: Path):
    ik, import_s = load_ikernel()
    start = time.perf_counter()
    state = workload.setup(ik, seed, workdir)
    return ik, state, import_s + time.perf_counter() - start


def run_untraced(workload, seed: int, seconds: float, workdir: Path) -> tuple[Run, dict, dict]:
    run = Run(workload)
    setup_times = []
    setup_norm = []
    state = None
    ref_before = reference_load(SETUP_CALIBRATION_REPEATS)
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.teardown(state)
        ik, state, elapsed = _setup(workload, seed, workdir)
        ref_after = reference_load(SETUP_CALIBRATION_REPEATS)
        setup_times.append(elapsed)
        setup_norm.append(elapsed / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    try:
        run.fail_setup(workload.check_setup(state))
        checker = workloads.ReportChecker(ik)
        ops = workload.ops(state)
        rng = random.Random(seed)
        per_op: dict[int, list[float]] = {index: [] for index in range(len(ops))}
        per_ref: dict[int, list[float]] = {index: [] for index in range(len(ops))}
        passes = 0
        order: list[int] = []
        deadline = time.perf_counter() + seconds
        ref_before = reference_load(workload.calibration_repeats)
        while passes < workload.min_passes or time.perf_counter() < deadline:
            if not order:
                order = rng.sample(range(len(ops)), len(ops))
            index = order.pop()
            start = time.perf_counter()
            result = run.call(state, ops[index])
            elapsed = time.perf_counter() - start
            ref_after = reference_load(workload.calibration_repeats)
            per_op[index].append(elapsed)
            per_ref[index].append((ref_before + ref_after) / 2)
            ref_before = ref_after
            run.record(run.judge(state, checker, ops[index], result))
            passes += not order
    finally:
        workload.teardown(state)

    unit = REFERENCE_SECONDS
    norm = {i: [t / r * unit for t, r in zip(per_op[i], per_ref[i])] for i in per_op}
    latencies = workload.latency_samples(norm)
    metrics = {
        "setup_s": results.median(setup_norm) * unit,
        "wall_s": sum(results.median(v) for v in norm.values()),
        "op_p50_ms": stats.percentile(latencies, 50) * 1000,
        "op_p90_ms": stats.percentile(latencies, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = workload.latency_samples(per_op)
    extra = {
        "raw": {
            "setup_s": results.median(setup_times),
            "wall_s": sum(results.median(v) for v in per_op.values()),
            "op_p50_ms": stats.percentile(raw, 50) * 1000,
            "op_p90_ms": stats.percentile(raw, 90) * 1000,
        },
        "refload_s": results.median([r for rs in per_ref.values() for r in rs]),
        "setup_samples_s": setup_times,
        "complete_passes": passes,
        "latency_samples": len(latencies),
        "reportable_percentiles": stats.reportable(len(latencies)),
        "op_names": [workload.op_name(op) for op in ops],
        "op_times_s": [per_op[i] for i in range(len(ops))],
        "refload_times_s": [per_ref[i] for i in range(len(ops))],
    }
    return run, metrics, extra


def run_traced(workload, seed: int, workdir: Path) -> tuple[Run, dict, dict]:
    """One pass on a plain copy of the package and one on a traced copy.

    The two copies are separate imports, so wrapping the second leaves the
    first untouched. Their ops alternate, each op once per copy with the
    order flipped every op, so both passes see the same machine conditions
    and their ratio is the tracing overhead.
    """
    run = Run(workload)
    plain_ik, plain_state, _ = _setup(workload, seed, workdir)
    tracer = Tracer()
    state = None
    try:
        ik, _ = load_ikernel()
        tracer.install(ik, layers.TARGETS)
        tracer.op_id = SETUP_OP
        start = time.perf_counter()
        state = workload.setup(ik, seed, workdir)
        setup_wall = time.perf_counter() - start
        plain_ops, ops = workload.ops(plain_state), workload.ops(state)
        order = random.Random(seed).sample(range(len(ops)), len(ops))
        plain, traced = [], []
        plain_wall = timed_wall = 0.0

        def timed(st, op):
            start = time.perf_counter()
            return run.call(st, op), time.perf_counter() - start

        for op_id, index in enumerate(order, start=1):
            tracer.op_id = op_id
            if op_id % 2:  # alternate which copy goes first
                (p, p_s), (t, t_s) = timed(plain_state, plain_ops[index]), timed(state, ops[index])
            else:
                (t, t_s), (p, p_s) = timed(state, ops[index]), timed(plain_state, plain_ops[index])
            plain.append(p)
            traced.append(t)
            plain_wall += p_s
            timed_wall += t_s
    finally:
        tracer.uninstall()
    try:
        for package, st, op_list, results_ in (
            (plain_ik, plain_state, plain_ops, plain),
            (ik, state, ops, traced),
        ):
            run.fail_setup(workload.check_setup(st))
            checker = workloads.ReportChecker(package)
            for index, result in zip(order, results_):
                run.record(run.judge(st, checker, op_list[index], result))
    finally:
        workload.teardown(plain_state)
        if state is not None:
            workload.teardown(state)

    metrics = layers.layer_metrics(
        tracer, {"setup": setup_wall, "timed": timed_wall}, timed_wall / plain_wall
    )
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path)
    extra = {
        "untraced_pass_s": plain_wall,
        "traced_pass_s": timed_wall,
        "traced_setup_s": setup_wall,
        "absent": tracer.absent,
        "spans_file": str(trace_path.relative_to(ROOT)),
    }
    return run, metrics, extra


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--merge", nargs="+", metavar="RESULT")
    parser.add_argument("--out", help="output file for --merge")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current code")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        print(results.compare_text(results.load(args.compare[0]), results.load(args.compare[1])))
        return 0
    if args.merge:
        merged = results.merge([results.load_run(p) for p in args.merge])
        text = json.dumps(merged, indent=2, sort_keys=True)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
        return 0
    if not (SRC / "ikernel" / "__init__.py").is_file():
        print(f"error: no ikernel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 3

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work"
    workdir.mkdir(exist_ok=True)
    if args.trace:
        run, metrics, extra = run_traced(workload, args.seed, workdir)
        units = layers.metric_units()
    else:
        run, metrics, extra = run_untraced(workload, args.seed, args.seconds, workdir)
        units = END_TO_END_UNITS

    for problem in run.failures[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    record = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed_ops,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    full = dict(record, env=environment(args), extra=extra, failures=run.failures[:100])
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")

    env = full["env"]
    print(f"# {workload.name} seed={args.seed} trace={args.trace} python={env['python']} "
          f"nproc={env['nproc']} platform={env['platform']}")
    print(f"# why: {workload.why}")
    for key, entry in record["metrics"].items():
        print(f"{key} {entry['value']:.6g} {entry['unit']}")
    print(f"fail_ratio {record['failed'] / max(record['attempted'], 1):.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    if "latency_samples" in extra:
        print(f"# op percentiles from {extra['latency_samples']} samples; "
              f"reportable: {extra['reportable_percentiles']}")
        raw = ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items())
        print(f"# times above are at reference speed; as measured: {raw}; one reference "
              f"load took {extra['refload_s'] * 1000:.4g} ms against "
              f"{REFERENCE_SECONDS * 1000:.4g} ms at reference speed")
    if extra.get("absent"):
        print(f"# absent (reported as 0): {', '.join(extra['absent'])}")
    print(f"# result file: {path.relative_to(ROOT)}")
    print(json.dumps(record, sort_keys=True))
    return 0


def record_digests() -> int:
    ik, _ = load_ikernel()
    digests = {}
    for scenario, n, m, d in workloads.all_report_keys(ik):
        report = ik.run_scenario(ik.ScenarioConfig(scenario, n=n, m=m, max_degree=d))
        if report.verdict != "pass" or not ik.verify_report(report.to_dict()).ok:
            print(f"error: {scenario} at {(n, m, d)} does not pass", file=sys.stderr)
            return 1
        key = workloads.digest_key(scenario, n, m, d)
        digests[key] = workloads.oracle.report_digest(report.to_json(include_wall_time=False))
        print(key, digests[key])
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
