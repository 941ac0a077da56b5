"""Command-line entry point.

Subcommands bind the modules into reproducible pipelines: gen, train, coeffs,
fit-mixture, eval, analyze, suite. Exit codes: 1 for usage errors, 2 for
data/format errors, and 3 when `suite` finds any failed property check.
Outputs are written atomically; every report embeds the effective config.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import harness
from .classifier import MlpArchitecture, TrainConfig, calibrate_temperature, forward_batch, train
from .databench import SuiteSpec, generate, load_suite, read_domain_csv, save_suite
from .errors import DataFormatError, DawinError
from .expertise import (
    COEFF_MODES,
    CoefficientBatch,
    coeff_multi,
    coeff_pair,
    coeff_pair_offset,
    entropy,
    load_coefficients,
    oracle_coeff,
    pseudo_label_coeff,
    save_coefficients,
)
from .merge import STRATEGIES, MergeOptions, MergeStrategy
from .mixture import dirichlet_em_fit, em_fit, save_mixture
from .params import Checkpoint, checkpoint_id, interpolate_pair, load_checkpoint, save_checkpoint
from .util import get, get_dataclass, read_json

ROLES = ("pretrain", "finetune", "task")
# `suite` exit status when any property check fails; 1 and 2 stay the
# usage and data error statuses, so a crash never reads as a failure count.
SUITE_FAILED_EXIT = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for data
    # errors, so usage failures are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_checkpoint(path: str) -> tuple[Checkpoint, MlpArchitecture]:
    """A checkpoint and the architecture its header names; a header field of
    the wrong type or out of range is a data error naming the file and the field."""
    ckpt = load_checkpoint(path)
    return ckpt, MlpArchitecture.from_header(ckpt.arch, path)


def _resolve(args: argparse.Namespace, config: dict, name: str, kind, default):
    """CLI flag > config file > default; a config value not of kind (see
    util.get) is a data error naming the config file and the key."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    return get(config, args.config, (name,), kind, default)


def _out_path(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(harness.report_root(), path)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}")


# ----- subcommands ----------------------------------------------------------------


def cmd_gen(args, config) -> int:
    seed = _resolve(args, config, "seed", int, 0)
    if args.spec:
        spec = get_dataclass(SuiteSpec, read_json(args.spec), args.spec)
    else:  # the config's spec, all defaults when it has none
        spec = get_dataclass(SuiteSpec, {"spec": {}, **config}, args.config, ("spec",))
    suite = generate(seed, spec)
    save_suite(suite, args.out)
    print(f"suite seed {seed} written to {args.out}")
    return 0


def cmd_train(args, config) -> int:
    suite = load_suite(args.suite)
    role = args.role
    if role == "task":
        if args.task_index is None:
            raise DawinError("role task needs --task-index")
        index = args.task_index
        if not 0 <= index < len(suite.mtl_tasks):
            raise DawinError(f"task index {index} outside 0..{len(suite.mtl_tasks) - 1}")
        base_config = harness.task_config(index)
        domain = suite.mtl_tasks[index].train
    elif role == "pretrain":
        base_config = harness.PRETRAIN_CONFIG
        domain = suite.pretrain_mix
    else:
        base_config = harness.FINETUNE_CONFIG
        domain = suite.id_train

    cfg = TrainConfig(
        epochs=_resolve(args, config, "epochs", int, base_config.epochs),
        batch_size=_resolve(args, config, "batch_size", int, base_config.batch_size),
        learning_rate=_resolve(args, config, "learning_rate", float, base_config.learning_rate),
        momentum=_resolve(args, config, "momentum", float, base_config.momentum),
        weight_decay=_resolve(args, config, "weight_decay", float, base_config.weight_decay),
        seed=_resolve(args, config, "train_seed", int, base_config.seed),
    )
    init = parent = None
    if args.init:
        parent, arch = _load_checkpoint(args.init)
        init = parent.payload
    else:
        if role in ("finetune", "task"):
            raise DawinError(f"role {role} fine-tunes from a checkpoint; pass --init")
        arch = MlpArchitecture(
            input_dim=suite.spec.dim,
            hidden_widths=_resolve(args, config, "hidden_widths", [int], (64, 64)),
            class_count=suite.spec.class_count,
        )
    ckpt = train(arch, domain.x, domain.y, cfg, init=init, dataset_id=domain.name, parent=parent)
    save_checkpoint(ckpt, args.out)
    print(f"{role} checkpoint {checkpoint_id(ckpt)} written to {args.out}")
    return 0


def _resolve_domain(suite, spec_text: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Suite domain name, or a labeled or feature-only domain CSV path
    (labels come back as None for the latter)."""
    if suite is not None:
        domains = suite.domains()
        if spec_text in domains:
            d = domains[spec_text]
            return d.x, d.y
    if not os.path.exists(spec_text):
        raise DataFormatError(f"{spec_text!r} is neither a suite domain nor a CSV path")
    return read_domain_csv(spec_text)


def cmd_coeffs(args, config) -> int:
    mode = args.mode
    if mode not in COEFF_MODES:
        raise ValueError(f"unknown mode {mode!r}; have {', '.join(COEFF_MODES)}")
    if len(args.model) < 2:
        raise ValueError("need at least two --model checkpoints")
    if len(args.model) > 2 and mode != "plain":
        raise ValueError("more than two models only supports --mode plain")
    suite = load_suite(args.suite) if args.suite else None
    x, y = _resolve_domain(suite, args.domain)
    checkpoints, archs = zip(*(_load_checkpoint(p) for p in args.model))
    arch = archs[0]
    if x.shape[1] != arch.input_dim:
        raise DataFormatError(
            f"{args.domain}: {x.shape[1]} features per row, but the models take {arch.input_dim}"
        )
    probs = [forward_batch(arch, c.payload, x) for c in checkpoints]
    ids = tuple(checkpoint_id(c) for c in checkpoints)
    if len(checkpoints) > 2:
        rows = coeff_multi(np.stack([entropy(p) for p in probs], axis=1))
        batch = CoefficientBatch(rows, mode="plain", model_ids=ids)
    elif mode == "plain":
        lam = coeff_pair(entropy(probs[0]), entropy(probs[1]))
        batch = CoefficientBatch(np.asarray(lam), mode=mode, model_ids=ids)
    elif mode == "offset_adjusted":
        lam, _ = coeff_pair_offset(entropy(probs[0]), entropy(probs[1]))
        batch = CoefficientBatch(lam, mode=mode, model_ids=ids)
    elif mode == "oracle":
        if y is None:
            raise DataFormatError(f"oracle mode needs labels; {args.domain} has none")
        rows_idx = np.arange(len(y))
        lam = oracle_coeff(probs[0][rows_idx, y], probs[1][rows_idx, y])
        batch = CoefficientBatch(np.asarray(lam), mode=mode, model_ids=ids)
    else:  # pseudo_label:<variant>
        variant = mode.split(":", 1)[1]
        p_mid = None
        if variant.startswith("mid_"):
            merged = interpolate_pair(checkpoints[0].payload, checkpoints[1].payload, 0.5)
            p_mid = forward_batch(arch, merged, x)
        lam = pseudo_label_coeff(variant, probs[0], probs[1], p_mid=p_mid)
        batch = CoefficientBatch(np.asarray(lam), mode=mode, model_ids=ids)
    save_coefficients(batch, args.out)
    print(f"{batch.coefficients.shape[0]} coefficients ({mode}) written to {args.out}")
    return 0


def cmd_fit_mixture(args, config) -> int:
    batch = load_coefficients(args.coeffs)
    k = _resolve(args, config, "k", int, 3)
    if batch.coefficients.ndim == 1:
        model = em_fit(batch.coefficients, k)
    else:
        model = dirichlet_em_fit(batch.coefficients, k)
    save_mixture(model, args.out)
    print(
        f"K={k} mixture (loglik {model.loglik_trace[-1]:.4f}, "
        f"{model.iterations} iters) written to {args.out}"
    )
    return 0


def _merge_options(args, config, suite, experts=None) -> MergeOptions:
    temperatures = None
    if _resolve(args, config, "calibrate", bool, False):
        if experts is None:
            raise DawinError("--calibrate needs explicit --theta0/--theta1 checkpoints")
        temperatures = tuple(
            calibrate_temperature(experts.arch, theta, suite.id_val.x, suite.id_val.y)
            for theta in (experts.theta0, experts.theta1)
        )
    return MergeOptions(
        offset_adjust=_resolve(args, config, "offset", bool, True),
        temperatures=temperatures,
        batch_size=_resolve(args, config, "batch_size", int, None),
        posterior_membership=_resolve(args, config, "posterior_membership", bool, False),
    )


def _experts_from_args(args, suite):
    """Either both checkpoint paths are supplied or the roles are trained."""
    if args.theta0 and args.theta1:
        zs, arch = _load_checkpoint(args.theta0)
        ft, _ = _load_checkpoint(args.theta1)
        tasks = tuple(_load_checkpoint(p)[0] for p in getattr(args, "task_expert", None) or ())
        return harness.ExpertSet(arch=arch, pretrain=zs, finetune=ft, task_experts=tasks)
    if args.theta0 or args.theta1:
        raise DawinError("pass both --theta0 and --theta1, or neither")
    return None


def cmd_eval(args, config) -> int:
    suite = load_suite(args.suite)
    kinds = args.strategy or get(config, args.config, ("strategies",), [str], None)
    overrides = {}
    for name, value_kind in (("lam", float), ("grid", [float]), ("k", int), ("lambda0", float)):
        value = _resolve(args, config, name, value_kind, None)
        if value is not None:
            overrides[name] = value
    strategies = [MergeStrategy(kind, **overrides) for kind in kinds or ["dawin_sample"]]
    experts = _experts_from_args(args, suite)
    options = _merge_options(args, config, suite, experts)
    report = harness.run_main(suite, strategies, options=options, experts=experts)
    report.config["cli"] = _effective_config(args, config, options)
    out = _out_path(args.out)
    harness.emit_report(report, out)
    if args.csv:
        harness.emit_report(report, _out_path(args.csv), format="csv")
    print(f"report written to {out}")
    return 0


def cmd_analyze(args, config) -> int:
    suite = load_suite(args.suite)
    experts = _experts_from_args(args, suite)
    options = _merge_options(args, config, suite, experts)
    report = harness.run_analysis(suite, experts, options=options)
    report.config["cli"] = _effective_config(args, config, options)
    out = _out_path(args.out)
    harness.emit_report(report, out)
    print(f"analysis written to {out}")
    return 0


def cmd_suite(args, config) -> int:
    suite = load_suite(args.suite)
    experts = _experts_from_args(args, suite)
    options = _merge_options(args, config, suite, experts)
    checks = harness.run_property_suite(suite, experts, options=options)
    for check in checks:
        line = f"{check.verdict.upper():4s} {check.name} ({check.violations}/{check.samples})"
        if check.measured is not None:
            line += f" measured={check.measured:.6g}"
        print(line)
    if args.out:
        report = harness.EvalReport(suite_seed=suite.seed)
        report.config = {"operation": "property_suite",
                         "cli": _effective_config(args, config, options)}
        report.property_checks = list(checks)
        harness.emit_report(report, _out_path(args.out))
    failed = harness.failed_checks(checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed, {failed} failed")
    return SUITE_FAILED_EXIT if failed else 0


def _effective_config(args, config, options: MergeOptions) -> dict:
    effective = dict(config)
    for key, value in vars(args).items():
        if key in ("func", "config") or value is None:
            continue
        effective[key] = value
    effective["options"] = vars(options)
    return {k: effective[k] for k in sorted(effective)}


# ----- parser wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dawin", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark suite to a directory")
    p.add_argument("--seed", type=int, help="root seed (default 0)")
    p.add_argument("--spec", help="JSON file with suite-spec overrides")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a role model on a generated suite")
    p.add_argument("--suite", required=True, help="suite directory from gen")
    p.add_argument("--role", required=True, choices=ROLES)
    p.add_argument("--task-index", dest="task_index", type=int,
                   help="which task split (role task)")
    p.add_argument("--init", help="checkpoint to fine-tune from")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--train-seed", dest="train_seed", type=int,
                   help="training shuffle/init seed (default: the role's frozen seed)")
    p.add_argument("--hidden", dest="hidden_widths", type=int, nargs="+",
                   help="hidden layer widths when training from scratch (default 64 64)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("coeffs", help="compute per-sample interpolation coefficients")
    p.add_argument("--suite", help="suite directory (needed when --domain is a name)")
    p.add_argument("--domain", required=True,
                   help="domain name inside the suite, or a domain CSV path")
    p.add_argument("--model", action="append", required=True,
                   help="checkpoint path; repeat (two for pair modes, more for plain rows)")
    p.add_argument("--mode", default="plain",
                   help="plain | offset_adjusted | oracle | pseudo_label:<variant>")
    p.add_argument("--out", required=True, help="coefficients CSV path")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("fit-mixture", help="fit a Beta/Dirichlet mixture to coefficients")
    p.add_argument("--coeffs", required=True, help="coefficients CSV from coeffs")
    p.add_argument("--k", type=int, help="component count (default 3)")
    p.add_argument("--out", required=True, help="mixture JSON path")
    p.set_defaults(func=cmd_fit_mixture)

    def eval_like(p, with_tasks=False):
        p.add_argument("--suite", required=True)
        p.add_argument("--theta0", help="generalist checkpoint (default: train the role)")
        p.add_argument("--theta1", help="specialist checkpoint (default: train the role)")
        if with_tasks:
            p.add_argument("--task-expert", dest="task_expert", action="append",
                           help="task expert checkpoint; repeat per task")
        offs = p.add_mutually_exclusive_group()
        offs.add_argument("--offset", dest="offset", action="store_true", default=None,
                          help="enable the offset adjustment (default)")
        offs.add_argument("--no-offset", dest="offset", action="store_false", default=None,
                          help="disable the offset adjustment")
        p.add_argument("--calibrate", action="store_true", default=None,
                       help="temperature-scale the --theta0/--theta1 pair on the ID validation "
                       "split (task experts stay at T=1)")
        p.add_argument("--batch-size", dest="batch_size", type=int,
                       help="streaming batch size for coefficient estimation (default: full)")
        p.add_argument("--posterior-membership", dest="posterior_membership",
                       action="store_true", default=None,
                       help="soft mixture membership instead of hard assignment")

    p = sub.add_parser("eval", help="evaluate merging strategies and write a report")
    eval_like(p, with_tasks=True)
    p.add_argument("--strategy", action="append",
                   help=f"strategy kind; repeat. one of: {', '.join(STRATEGIES)}")
    p.add_argument("--k", type=int, help="mixture components for clustered strategies")
    p.add_argument("--lam", type=float, help="coefficient for the static strategy")
    p.add_argument("--lambda0", type=float, help="task-arithmetic scale (default 0.3)")
    p.add_argument("--grid", type=_parse_grid,
                   help="comma-separated static grid (default 0.1..0.9)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", help="also write the strategy table as CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="split/correlation/entropy analysis report")
    eval_like(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "suite", help=f"run the property suite; exit {SUITE_FAILED_EXIT} on any failure",
        description=f"Property checks, run in this order: {', '.join(harness.CHECKS)}. "
        "entropy_valley prints a pooled_static, a pooled_dawin and one [<domain>] verdict "
        "per test domain.",
    )
    eval_like(p, with_tasks=True)
    p.add_argument("--out", help="optional property-check report JSON path")
    p.set_defaults(func=cmd_suite)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON config file; flags override its values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse help/usage paths exit directly; fold them into the int API
        return int(exc.code or 0)
    try:
        config = get(read_json(args.config), args.config, (), dict) if args.config else {}
        return args.func(args, config)
    except DawinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
