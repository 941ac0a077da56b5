"""The workloads: what each sets up, and the fixed operation list one pass
runs.

BENCHMARK.json gates ``reproduce``, ``eval_dynamic`` and ``eval_static``.
``check`` (the property suite) is run by hand: one pass takes 14-18 s and
varies by a fifth between runs on a 2-vCPU VM, which neither fits the gated
run budget nor holds a bound. Its ``once`` operation, the task-expert
property suite, raises NameError today and is counted as a failed operation.

An operation is a timed ``call`` into dawin followed by an untimed ``check``
of what it produced. The check returns a digest, which must repeat exactly
in every pass, and the number of samples the call pushed through strategy
evaluations. Calls go through module attributes (``harness.run_main``, not a
name imported into this file) so that a traced pass sees them.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dawin import databench, harness, merge, params
from layers import KINDS

LAMBDA0 = 0.3  # dynamic task arithmetic scale used by run_main and the demos


class OutputMismatch(Exception):
    """An operation returned, but its output failed a correctness check."""


@dataclass
class Context:
    seed: int
    spec: "databench.SuiteSpec"
    workdir: str
    reference: dict | None  # frozen seed-0 numbers; None unless seed 0, default spec


@dataclass
class State:
    ctx: Context
    suite: object = None
    experts: object = None
    values: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[State], None]
    check: Callable[[State], tuple[str, int]]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Context], State]
    ops: tuple[Op, ...]
    # Called once per run after the passes, counted as one operation and
    # kept out of pass_s.
    once: Callable[[State], None] | None = None


# ----- digests and checks -----------------------------------------------------


def digest(obj) -> str:
    def default(value):
        if isinstance(value, np.ndarray):
            return hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        if isinstance(value, np.generic):
            return value.item()
        return repr(value)

    text = json.dumps(obj, sort_keys=True, default=default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _suite_digest(suite) -> str:
    return digest(
        {
            "seed": suite.seed,
            "spec": suite.spec.to_dict(),
            "domains": {
                name: [d.x, d.y, d.shift_spec] for name, d in sorted(suite.domains().items())
            },
        }
    )


def _experts_digest(experts) -> str:
    ckpts = (experts.pretrain, experts.finetune, *experts.task_experts)
    return digest([[c.arch, c.meta, c.payload.values] for c in ckpts])


def _report_digest(report) -> str:
    return digest(harness.report_signature(report))


def _row_samples(report, suite) -> int:
    sizes = {name: d.n_samples for name, d in suite.domains().items()}
    return sum(sizes[row["domain"]] for row in report.rows)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OutputMismatch(what)


def _check_rows_against_reference(report, reference, strategies) -> None:
    """Rows the frozen pilot also has must match it exactly."""
    frozen = {(r["strategy"], r["domain"]): r["accuracy"] for r in reference["pilot_rows"]}
    for row in report.rows:
        key = (row["strategy"], row["domain"])
        if row["strategy"] in strategies:
            _expect(row["accuracy"] == frozen[key], f"{key} differs from the frozen seed-0 pilot")


def _new_state(ctx: Context, with_tasks: bool) -> State:
    state = State(ctx)
    state.suite = databench.generate(ctx.seed, ctx.spec)
    state.experts = harness.build_experts(state.suite, with_tasks=with_tasks)
    return state


# ----- reproduce --------------------------------------------------------------


def _generate(st: State) -> None:
    st.values["generated"] = databench.generate(st.ctx.seed, st.ctx.spec)


def _check_generate(st: State):
    return _suite_digest(st.values["generated"]), 0


def _round_trip(st: State) -> None:
    directory = os.path.join(st.ctx.workdir, "suite")
    databench.save_suite(st.values["generated"], directory)
    st.suite = databench.load_suite(directory)


def _check_round_trip(st: State):
    loaded = _suite_digest(st.suite)
    _expect(loaded == _suite_digest(st.values["generated"]), "suite changed in save/load")
    return loaded, 0


def _build(st: State) -> None:
    st.values["trained"] = harness.build_experts(st.suite, with_tasks=True)


def _check_build(st: State):
    return _experts_digest(st.values["trained"]), 0


def _checkpoint_round_trip(st: State) -> None:
    trained = st.values["trained"]
    loaded = []
    for i, ckpt in enumerate((trained.pretrain, trained.finetune, *trained.task_experts)):
        path = os.path.join(st.ctx.workdir, f"role{i}.dwin")
        params.save_checkpoint(ckpt, path)
        loaded.append(params.load_checkpoint(path))
    st.experts = harness.ExpertSet(
        arch=trained.arch, pretrain=loaded[0], finetune=loaded[1], task_experts=tuple(loaded[2:])
    )


def _check_checkpoint_round_trip(st: State):
    loaded = _experts_digest(st.experts)
    _expect(loaded == _experts_digest(st.values["trained"]), "checkpoint changed in save/load")
    return loaded, 0


def _pilot(st: State) -> None:
    st.values["pilot"] = harness.run_pilot(st.suite, st.experts)


def _check_pilot(st: State):
    pilot, reference = st.values["pilot"], st.ctx.reference
    if reference is not None:
        rows = [{k: r[k] for k in ("strategy", "domain", "accuracy")} for r in pilot.rows]
        _expect(rows == reference["pilot_rows"], "pilot rows differ from the frozen seed-0 pilot")
        _expect(
            pilot.config["best_static_lam"] == reference["best_static_lam"],
            "best_static_lam differs from the frozen seed-0 pilot",
        )
    return _report_digest(pilot), _row_samples(pilot, st.suite)


def _main_all(st: State) -> None:
    st.values["main"] = harness.run_main(st.suite, list(KINDS), experts=st.experts)


def _check_main_all(st: State):
    main = st.values["main"]
    _expect(
        {row["strategy"] for row in main.rows} == set(KINDS), "a strategy kind produced no rows"
    )
    return _report_digest(main), _row_samples(main, st.suite)


def _analysis(st: State) -> None:
    st.values["analysis"] = harness.run_analysis(st.suite, st.experts)


def _check_analysis(st: State):
    return _report_digest(st.values["analysis"]), 0


def _emit(st: State) -> None:
    for name in ("pilot", "main", "analysis"):
        harness.emit_report(st.values[name], os.path.join(st.ctx.workdir, f"{name}.json"))


def _check_emit(st: State):
    digests = []
    for name in ("pilot", "main", "analysis"):
        emitted = harness.load_report(os.path.join(st.ctx.workdir, f"{name}.json"))
        digests.append(_report_digest(emitted))
        _expect(digests[-1] == _report_digest(st.values[name]), f"{name} report changed on disk")
    return digest(digests), 0


REPRODUCE = Workload(
    name="reproduce",
    setup=lambda ctx: State(ctx, suite=databench.generate(ctx.seed, ctx.spec)),
    ops=(
        Op("generate", _generate, _check_generate),
        Op("suite_round_trip", _round_trip, _check_round_trip),
        Op("build_experts", _build, _check_build),
        Op("checkpoint_round_trip", _checkpoint_round_trip, _check_checkpoint_round_trip),
        Op("pilot", _pilot, _check_pilot),
        Op("main", _main_all, _check_main_all),
        Op("analysis", _analysis, _check_analysis),
        Op("emit", _emit, _check_emit),
    ),
)


# ----- eval_dynamic -----------------------------------------------------------

DYNAMIC = (
    merge.MergeStrategy("dawin_sample"),
    merge.MergeStrategy("dawin_clustered", k=3),
    merge.MergeStrategy("oracle_sample"),
    merge.MergeStrategy("dawin_task_arith", k=1, lambda0=LAMBDA0),
)


def _main_dynamic(st: State) -> None:
    st.values["main"] = harness.run_main(st.suite, DYNAMIC, experts=st.experts)


def _check_main_dynamic(st: State):
    main, reference = st.values["main"], st.ctx.reference
    if reference is not None:
        _check_rows_against_reference(main, reference, {"oracle_sample"})
    return _report_digest(main), _row_samples(main, st.suite)


def _task_arith_exact(st: State) -> None:
    # Per-sample task arithmetic (k=None), called directly as
    # demos/multitask_arithmetic.py does: MergeStrategy rejects k=None.
    ex = st.experts
    task_params, taus = ex.task_params(), ex.task_vectors()
    st.values["exact"] = [
        merge.dawin_task_arith_eval(
            ex.arch, ex.theta0, task_params, taus, split.test, lambda0=LAMBDA0, k=None
        )
        for split in st.suite.mtl_tasks
    ]


def _check_task_arith_exact(st: State):
    results = st.values["exact"]
    for result, split in zip(results, st.suite.mtl_tasks):
        _expect(result.merge_count == split.test.n_samples, "k=None must merge once per sample")
    return (
        digest([[r.probs, r.chosen, merge.accuracy(r, s.test.y)]
                for r, s in zip(results, st.suite.mtl_tasks)]),
        sum(r.n for r in results),
    )


EVAL_DYNAMIC = Workload(
    name="eval_dynamic",
    setup=lambda ctx: _new_state(ctx, with_tasks=True),
    ops=(
        Op("main", _main_dynamic, _check_main_dynamic),
        Op("task_arith_exact", _task_arith_exact, _check_task_arith_exact),
    ),
)


# ----- eval_static ------------------------------------------------------------

STATIC = (
    merge.MergeStrategy("zs"),
    merge.MergeStrategy("ft"),
    merge.MergeStrategy("static", lam=0.5),
    merge.MergeStrategy("wise_sweep"),
    merge.MergeStrategy("uniform_soup"),
    merge.MergeStrategy("greedy_soup"),
    merge.MergeStrategy("dcs"),
    merge.MergeStrategy("doe"),
    merge.MergeStrategy("oracle_domain"),
)


def _main_static(st: State) -> None:
    st.values["main"] = harness.run_main(st.suite, STATIC, experts=st.experts)


def _check_main_static(st: State):
    main, reference = st.values["main"], st.ctx.reference
    if reference is not None:
        _check_rows_against_reference(main, reference, {"zs", "ft", "oracle_domain"})
        for row in main.rows:
            if row["strategy"] == "static":
                _expect(
                    row["accuracy"] == reference["static_half_accuracy"][row["domain"]],
                    f"static 0.5 on {row['domain']} differs from the frozen seed-0 value",
                )
    return _report_digest(main), _row_samples(main, st.suite)


EVAL_STATIC = Workload(
    name="eval_static",
    setup=lambda ctx: _new_state(ctx, with_tasks=False),
    ops=(Op("main", _main_static, _check_main_static),),
)


# ----- check ------------------------------------------------------------------


def _generalist_pair(experts):
    return harness.ExpertSet(arch=experts.arch, pretrain=experts.pretrain, finetune=experts.finetune)


def _property_suite(st: State) -> None:
    # The ZS/FT pair only, as `dawin suite --theta0 --theta1` runs it.
    st.values["checks"] = harness.run_property_suite(st.suite, _generalist_pair(st.experts))


def _check_property_suite(st: State):
    checks = st.values["checks"]
    return digest([vars(c) for c in checks]), sum(c.samples for c in checks)


def task_expert_suite(st: State) -> None:
    """The default `dawin suite` path: the property suite with task experts.
    Today it raises NameError: harness calls _lemma1_violations, which it
    no longer defines."""
    harness.run_property_suite(st.suite, st.experts)


CHECK = Workload(
    name="check",
    setup=lambda ctx: _new_state(ctx, with_tasks=True),
    ops=(Op("property_suite", _property_suite, _check_property_suite),),
    once=task_expert_suite,
)

WORKLOADS = {w.name: w for w in (REPRODUCE, EVAL_DYNAMIC, EVAL_STATIC, CHECK)}


def param_count(state: State) -> int:
    return state.experts.arch.param_count if state.experts is not None else 0
