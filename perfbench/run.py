#!/usr/bin/env python3
"""Outside-in benchmark for dawin.

    python3 perfbench/run.py --workload eval_dynamic --seed 0 --seconds 10 --trace 0

Run from the repository root. The suite is generated from ``--seed``; the
program under test is imported from ``src/`` of this checkout. With
``--trace 0`` the run prints the end-to-end metrics (set-up time, pass time
with quartiles, samples per second, peak memory); with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics,
derived from spans recorded around calls into each dawin module, plus the
tracing overhead. The spans are written to ``.perfbench/`` as JSONL.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every line before it
is for people: the environment record and the metrics with their spread.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "tests", "data", "reference_seed0.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Set-up is timed several times per run and reported as the median. Training
# the experts costs seconds, so runs that train repeat it fewer times;
# reproduce's set-up only generates the suite (about 20 ms).
SETUP_REPEATS = {"reproduce": 20, "eval_dynamic": 3, "eval_static": 3, "check": 2}


def _spread_line(name: str, values: list[float]) -> str:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    q1, q3 = quartiles[0], quartiles[2]
    return (
        f"{name} median {statistics.median(values):.6f} s "
        f"(q1 {q1:.6f}, q3 {q3:.6f}, n={len(values)})"
    )


class Ledger:
    """Counts operations attempted and failed, and holds each operation's
    first digest so that later passes can be compared against it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.samples_per_pass: int | None = None

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail}", file=sys.stderr)


def run_pass(workload, state, ledger, label: str) -> float:
    """One pass over the operation list; returns the seconds spent in calls.

    The first pass in a process measured up to a fifth slower than later ones
    on a 2-vCPU VM, so every run starts with an untimed "warmup" pass, checked
    like the others."""
    from workloads import OutputMismatch

    spent = 0.0
    samples = 0
    for op in workload.ops:
        ledger.attempted += 1
        start = time.perf_counter()
        try:
            op.call(state)
        except Exception:
            spent += time.perf_counter() - start
            ledger.fail(f"{label}/{op.name}", traceback.format_exc(limit=-3).strip())
            return spent  # later operations depend on this one's output
        spent += time.perf_counter() - start
        try:
            digest, n = op.check(state)
        except OutputMismatch as exc:
            ledger.fail(f"{label}/{op.name}", str(exc))
            continue
        samples += n
        first = ledger.first.setdefault(op.name, digest)
        if digest != first:
            ledger.fail(f"{label}/{op.name}", "output differs from the first pass")
    if ledger.samples_per_pass is None:
        ledger.samples_per_pass = samples
    elif samples != ledger.samples_per_pass:
        ledger.fail(label, f"{samples} samples, first pass had {ledger.samples_per_pass}")
    return spent


def _blas() -> dict:
    """Build-time BLAS of numpy, and the thread count and configuration that
    each OpenBLAS library mapped into this process reports at run time."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "loaded": []}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for stem in ("scipy_openblas_get_{}64_", "scipy_openblas_get_{}",
                     "openblas_get_{}64_", "openblas_get_{}"):
            threads = getattr(lib, stem.format("num_threads"), None)
            config = getattr(lib, stem.format("config"), None)
            if threads is None or config is None:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            info["loaded"].append(
                {
                    "library": os.path.basename(path),
                    "threads": int(threads()),
                    "config": config().decode("utf-8", "replace").strip(),
                }
            )
            break
    return info


def _git_revision() -> str:
    """The commit HEAD names, from a loose ref or from packed-refs."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if os.path.isfile(os.path.join(git, name)):
            with open(os.path.join(git, name), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, packed = line.strip().partition(" ")
                if packed == name:
                    return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, workload, state, ledger, t) -> dict:
    import numpy as np
    import scipy

    spec = state.ctx.spec
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_revision": _git_revision(),
        "input": {
            "samples_per_pass": ledger.samples_per_pass,
            "test_domains": 1 + len(spec.ood_shifts),
            "n_test": spec.n_test,
            "task_count": spec.task_count,
            "n_task_test": spec.n_task_test,
            "n_id_train": spec.n_id_train,
        },
        "timed_passes": len(t.untraced) + len(t.traced),
        "setups": len(t.setup) or 1,
    }


@dataclass
class Timings:
    setup: list[float] = field(default_factory=list)
    untraced: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    traced_scopes: list[str] = field(default_factory=list)
    cpu: float = 0.0  # process CPU seconds over the untraced passes
    wall: float = 0.0  # wall seconds over the same passes


def run_passes(workload, state, ledger, t: Timings, until: float, patches=None) -> None:
    """Run passes until ``until`` seconds of calls are timed in ``t``. With
    ``patches``, untraced and traced passes alternate, one of each at least;
    the wrappers are installed only for the traced ones."""
    while sum(t.untraced) + sum(t.traced) < until or not t.untraced or (
        patches is not None and not t.traced
    ):
        label = f"pass{len(t.untraced) + len(t.traced)}"
        if patches is not None and len(t.traced) < len(t.untraced):
            with patches.active(label):
                t.traced.append(run_pass(workload, state, ledger, label))
            t.traced_scopes.append(label)
            continue
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        t.untraced.append(run_pass(workload, state, ledger, label))
        t.cpu += time.process_time() - cpu_start
        t.wall += time.perf_counter() - wall_start


def run(args, spec=None) -> dict:
    """Run one workload; return the result fields, the environment record and
    the readable lines. ``spec`` overrides the default suite spec (the
    self-test's tiny suite); the frozen seed-0 reference applies only to the
    default spec."""
    import layers
    import workloads
    from dawin import databench
    from spans import Patches, Tracer

    workload = workloads.WORKLOADS[args.workload]
    reference = None
    if spec is None and args.seed == 0:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    ctx = workloads.Context(
        seed=args.seed,
        spec=spec or databench.SuiteSpec(),
        workdir=workdir,
        reference=reference,
    )
    ledger = Ledger()
    tracer = Tracer()
    patches = Patches(tracer, layers.TARGETS)
    t = Timings()
    try:
        if args.trace:
            with patches.active("setup"):
                state = workload.setup(ctx)
            run_pass(workload, state, ledger, "warmup")
            run_passes(workload, state, ledger, t, args.seconds, patches)
        else:
            # Set-ups alternate with slices of the timed passes, so that both
            # medians sample the whole run: the speed of a shared 2-vCPU VM
            # drifts by tens of percent within a minute.
            repeats = SETUP_REPEATS[workload.name]
            for i in range(repeats):
                start = time.perf_counter()
                state = workload.setup(ctx)
                t.setup.append(time.perf_counter() - start)
                if i == 0:
                    run_pass(workload, state, ledger, "warmup")
                run_passes(workload, state, ledger, t, args.seconds * (i + 1) / repeats)
        if workload.once is not None:
            ledger.attempted += 1
            try:
                with patches.active("once") if args.trace else contextlib.nullcontext():
                    workload.once(state)
            except Exception as exc:
                ledger.fail(workload.once.__name__, f"{type(exc).__name__}: {exc}")
    finally:
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    pass_s = statistics.median(t.untraced)
    lines = [_spread_line("pass_s", t.untraced)]
    if args.trace:
        metrics = layers.layer_metrics(tracer.spans, t.traced_scopes, workloads.param_count(state))
        if workload is workloads.CHECK:
            metrics.update(layers.property_suite_metrics(tracer.spans, t.traced_scopes))
        metrics["process.cpu_per_wall"] = t.cpu / t.wall
        metrics["trace.overhead_share"] = statistics.median(t.traced) / pass_s - 1.0
        trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
        tracer.write_jsonl(trace_path)
        lines.append(_spread_line("traced pass_s", t.traced))
        lines.append(f"spans {len(tracer.spans)} -> {os.path.relpath(trace_path, ROOT)}")
        if patches.missing:
            lines.append("not wrapped (no longer defined): " + ", ".join(patches.missing))
    else:
        lines.append(_spread_line("setup_s", t.setup))
        metrics = {
            "setup_s": statistics.median(t.setup),
            "pass_s": pass_s,
            "samples_per_s": (ledger.samples_per_pass or 0) / pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    lines.append(
        f"failed_share {ledger.failed}/{ledger.attempted} = {ledger.failed / ledger.attempted:.6f}"
    )
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "env": environment(args, workload, state, ledger, t),
        "lines": lines,
    }


def units() -> dict[str, str]:
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    named = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return {**named, **layers.PROPERTY_SUITE_UNITS}


def report_lines(result: dict) -> list[str]:
    """The environment, the readable metric lines, then the JSON result line."""
    unit = units()
    lines = ["# env " + json.dumps(result["env"], sort_keys=True), *result["lines"]]
    lines += [f"{name} {value!r} {unit[name]}" for name, value in result["metrics"].items()]
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit[name]} for name, value in result["metrics"].items()
        },
    }
    return lines + [json.dumps(final)]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "eval_dynamic", "eval_static", "check"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dawin", "__init__.py")):
        print(f"error: no dawin package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCE):
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    print("\n".join(report_lines(run(args))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
