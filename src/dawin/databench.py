"""Deterministic synthetic distribution-shift benchmark.

Base distribution: class-conditional unit-covariance Gaussians whose means sit
on a radius-R sphere. Covariate shifts are label-preserving input transforms
applied identically to every sample: block-plane rotation by a fixed angle,
additive Gaussian feature noise, and per-coordinate scaling. A multi-task
variant reuses the same clusters with per-task (rotation, class-mean
reshuffle) pairs so task experts genuinely disagree.

Domains serialize to CSV with header "label,f0,...,f{d-1}" and 17 significant
digits per feature, which round-trips float64 exactly. Unlabeled samples, such
as the test points a training-free merge runs on, use the feature-only header
"f0,...,f{d-1}"; read_domain_csv reads both. A suite serializes to a directory
of labeled CSVs plus a manifest.json.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .util import atomic_write, bad_field, build, get, get_dataclass, read_csv, read_json, substream

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Domain:
    """A named, immutable set of labeled samples plus the shift that made it."""

    name: str
    x: np.ndarray
    y: np.ndarray
    shift_spec: dict

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64, copy=True, order="C")
        y = np.array(self.y, dtype=np.int64, copy=True)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(f"inconsistent domain shapes: x {x.shape}, y {y.shape}")
        if x.shape[0] == 0:
            raise ValueError("domain has no samples")
        if not np.all(np.isfinite(x)):
            raise ValueError("domain features must be finite")
        if y.min() < 0:
            raise ValueError("labels must be non-negative")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if not isinstance(self.shift_spec, dict) or "kind" not in self.shift_spec:
            raise ValueError("shift_spec must be a dict with a 'kind' key")

    @property
    def n_samples(self) -> int:
        return int(self.x.shape[0])

    @property
    def dim(self) -> int:
        return int(self.x.shape[1])


@dataclass(frozen=True)
class TaskSplit:
    train: Domain
    test: Domain


@dataclass(frozen=True)
class SuiteSpec:
    """Generation knobs for the default benchmark."""

    class_count: int = 10
    dim: int = 16
    radius: float = 4.0
    n_id_train: int = 5000
    n_id_val: int = 1000
    n_test: int = 2000
    ood_shifts: tuple[dict, ...] = (
        {"kind": "rotation", "angle_deg": 30.0},
        {"kind": "rotation", "angle_deg": 60.0},
        {"kind": "noise", "sigma": 1.0},
        {"kind": "scale", "low": 0.5, "high": 2.0},
    )
    pretrain_angles: tuple[float, ...] = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0)
    n_pretrain_per_angle: int = 1000
    task_count: int = 4
    task_angles: tuple[float, ...] = (0.0, 25.0, 50.0, 75.0)
    n_task_train: int = 2000
    n_task_test: int = 1000

    def __post_init__(self) -> None:
        object.__setattr__(self, "ood_shifts", tuple(dict(s) for s in self.ood_shifts))
        object.__setattr__(self, "pretrain_angles", tuple(float(a) for a in self.pretrain_angles))
        object.__setattr__(self, "task_angles", tuple(float(a) for a in self.task_angles))
        if self.class_count < 2 or self.dim < 1:
            raise ValueError("need at least 2 classes and 1 dimension")
        if min(self.n_id_train, self.n_id_val, self.n_test) < 1:
            raise ValueError("domain sizes must be positive")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.task_count > 0:
            if len(self.task_angles) < self.task_count:
                raise ValueError("need a task angle per task")
            if min(self.n_task_train, self.n_task_test) < 1:
                raise ValueError("task split sizes must be positive")

    def to_dict(self) -> dict:
        return {
            "class_count": self.class_count,
            "dim": self.dim,
            "radius": self.radius,
            "n_id_train": self.n_id_train,
            "n_id_val": self.n_id_val,
            "n_test": self.n_test,
            "ood_shifts": [dict(s) for s in self.ood_shifts],
            "pretrain_angles": list(self.pretrain_angles),
            "n_pretrain_per_angle": self.n_pretrain_per_angle,
            "task_count": self.task_count,
            "task_angles": list(self.task_angles),
            "n_task_train": self.n_task_train,
            "n_task_test": self.n_task_test,
        }


@dataclass(frozen=True)
class BenchmarkSuite:
    seed: int
    spec: SuiteSpec
    pretrain_mix: Domain
    id_train: Domain
    id_val: Domain
    id_test: Domain
    ood_tests: tuple[Domain, ...]
    mtl_tasks: tuple[TaskSplit, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ood_tests", tuple(self.ood_tests))
        object.__setattr__(self, "mtl_tasks", tuple(self.mtl_tasks))
        for dom in (self.id_train, self.id_val, self.id_test):
            if dom.shift_spec.get("kind") != "identity":
                raise ValueError(f"{dom.name}: in-distribution domains must carry the identity shift")
        seen = set()
        for dom in self.ood_tests:
            if dom.shift_spec.get("kind") == "identity":
                raise ValueError(f"{dom.name}: OOD domain carries the identity shift")
            key = json.dumps(dom.shift_spec, sort_keys=True)
            if key in seen:
                raise ValueError(f"{dom.name}: duplicate shift spec")
            seen.add(key)

    @property
    def test_domains(self) -> tuple[Domain, ...]:
        return (self.id_test, *self.ood_tests)

    def domains(self) -> dict[str, Domain]:
        out = {
            d.name: d
            for d in (self.pretrain_mix, self.id_train, self.id_val, self.id_test, *self.ood_tests)
        }
        for split in self.mtl_tasks:
            out[split.train.name] = split.train
            out[split.test.name] = split.test
        return out


# ----- transforms -------------------------------------------------------------

def rotation_matrix(dim: int, angle_deg: float) -> np.ndarray:
    """Rotation by the same angle in every consecutive coordinate plane.

    Block-diagonal Givens structure: planes (0,1), (2,3), ... each rotate by
    angle_deg; a trailing odd coordinate is left fixed. A 360 degree angle is
    the identity up to float eps.
    """
    theta = np.deg2rad(angle_deg)
    mat = np.eye(dim)
    c, s = np.cos(theta), np.sin(theta)
    for i in range(0, dim - 1, 2):
        mat[i, i] = c
        mat[i, i + 1] = -s
        mat[i + 1, i] = s
        mat[i + 1, i + 1] = c
    return mat


def apply_shift(x: np.ndarray, spec: dict, rng: np.random.Generator | None = None) -> np.ndarray:
    """Apply a shift spec to raw features. Noise needs an explicit rng."""
    kind = spec["kind"]
    if kind == "identity":
        return np.array(x, copy=True)
    if kind == "rotation":
        return x @ rotation_matrix(x.shape[1], float(spec["angle_deg"])).T
    if kind == "noise":
        if rng is None:
            raise ValueError("noise shift requires an rng")
        return x + float(spec["sigma"]) * rng.standard_normal(x.shape)
    if kind == "scale":
        factors = np.asarray(spec["factors"], dtype=np.float64)
        if factors.shape != (x.shape[1],):
            raise ValueError("scale factors must match the feature dimension")
        return x * factors
    raise ValueError(f"unknown shift kind {kind!r}")


# ----- generation -------------------------------------------------------------

def _class_means(rng: np.random.Generator, spec: SuiteSpec) -> np.ndarray:
    raw = rng.standard_normal((spec.class_count, spec.dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return spec.radius * raw


def _nearest_disjoint_pairs(means: np.ndarray, count: int) -> list[tuple[int, int]]:
    """Greedily pick `count` disjoint class pairs, closest means first."""
    if 2 * count > len(means):
        raise ValueError(f"{count} disjoint pairs need {2 * count} classes, have {len(means)}")
    d2 = ((means[:, None, :] - means[None, :, :]) ** 2).sum(-1)
    order = sorted(
        (d2[i, j], i, j) for i in range(len(means)) for j in range(i + 1, len(means))
    )
    used: set[int] = set()
    pairs = []
    for _, i, j in order:
        if i in used or j in used:
            continue
        pairs.append((i, j))
        used.update((i, j))
        if len(pairs) == count:
            break
    return pairs


def _uniform_labels(n: int, class_count: int, rng: np.random.Generator) -> np.ndarray:
    # Exactly balanced counts (up to remainder), then shuffled: keeps class
    # priors uniform by construction.
    reps = -(-n // class_count)
    labels = np.tile(np.arange(class_count, dtype=np.int64), reps)[:n]
    rng.shuffle(labels)
    return labels


def _draw(means: np.ndarray, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    class_count, dim = means.shape
    y = _uniform_labels(n, class_count, rng)
    x = means[y] + rng.standard_normal((n, dim))
    return x, y


def _shift_tag(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "rotation":
        return f"rot{spec['angle_deg']:g}"
    if kind == "noise":
        return f"noise{spec['sigma']:g}"
    if kind == "scale":
        return "scale"
    return kind


def generate(seed: int, spec: SuiteSpec | None = None) -> BenchmarkSuite:
    """Build the full suite from one root seed via named substreams."""
    spec = spec or SuiteSpec()
    means = _class_means(substream(seed, "suite.means"), spec)

    def identity_domain(name: str, n: int) -> Domain:
        x, y = _draw(means, n, substream(seed, f"suite.{name}"))
        return Domain(name, x, y, {"kind": "identity"})

    id_train = identity_domain("id_train", spec.n_id_train)
    id_val = identity_domain("id_val", spec.n_id_val)
    id_test = identity_domain("id_test", spec.n_test)

    ood = []
    for shift in spec.ood_shifts:
        shift = dict(shift)
        tag = _shift_tag(shift)
        name = f"ood_{tag}"
        rng = substream(seed, f"suite.{name}")
        x, y = _draw(means, spec.n_test, rng)
        if shift["kind"] == "scale" and "factors" not in shift:
            # Drawn once per domain, log-uniform in [low, high], then frozen
            # into the spec so the manifest fully describes the transform.
            low, high = float(shift["low"]), float(shift["high"])
            factors = np.exp(rng.uniform(np.log(low), np.log(high), size=spec.dim))
            shift["factors"] = [float(f) for f in factors]
        x = apply_shift(x, shift, rng)
        ood.append(Domain(name, x, y, shift))

    parts_x, parts_y = [], []
    for angle in spec.pretrain_angles:
        rng = substream(seed, f"suite.pretrain.rot{angle:g}")
        x, y = _draw(means, spec.n_pretrain_per_angle, rng)
        parts_x.append(apply_shift(x, {"kind": "rotation", "angle_deg": angle}, rng))
        parts_y.append(y)
    mix_x = np.concatenate(parts_x)
    mix_y = np.concatenate(parts_y)
    order = substream(seed, "suite.pretrain.shuffle").permutation(len(mix_y))
    pretrain_mix = Domain(
        "pretrain_mix",
        mix_x[order],
        mix_y[order],
        {"kind": "rotation_mixture", "angles_deg": list(spec.pretrain_angles)},
    )

    tasks = []
    pairs = _nearest_disjoint_pairs(means, spec.task_count)
    for j in range(spec.task_count):
        angle = spec.task_angles[j]
        # Swap the j-th closest disjoint pair of class means. Nearest pairs
        # keep the generalist competent on every task while the experts' head
        # edits genuinely conflict with each other.
        a, b = pairs[j]
        perm = np.arange(spec.class_count)
        perm[a], perm[b] = perm[b], perm[a]
        task_means = means[perm]
        task_spec = {
            "kind": "task",
            "angle_deg": float(angle),
            "class_permutation": [int(p) for p in perm],
        }
        rot = {"kind": "rotation", "angle_deg": angle}
        splits = {}
        for role, n in (("train", spec.n_task_train), ("test", spec.n_task_test)):
            rng = substream(seed, f"suite.task{j}.{role}")
            x, y = _draw(task_means, n, rng)
            splits[role] = Domain(f"task{j}_{role}", apply_shift(x, rot, rng), y, task_spec)
        tasks.append(TaskSplit(splits["train"], splits["test"]))

    return BenchmarkSuite(
        seed=int(seed),
        spec=spec,
        pretrain_mix=pretrain_mix,
        id_train=id_train,
        id_val=id_val,
        id_test=id_test,
        ood_tests=tuple(ood),
        mtl_tasks=tuple(tasks),
    )


# ----- serialization ----------------------------------------------------------

def domain_to_csv(domain: Domain) -> str:
    """The domain as CSV: a label,f0,...,f{dim-1} header, then one row per
    sample with every feature at 17 significant digits (exact round trip)."""
    row = "%d" + ",%.17g" * domain.dim + "\n"
    header = ",".join(["label"] + [f"f{i}" for i in range(domain.dim)]) + "\n"
    return header + "".join(
        [row % (label, *values) for label, values in zip(domain.y.tolist(), domain.x.tolist())]
    )


def save_domain(domain: Domain, path: str) -> None:
    atomic_write(path, domain_to_csv(domain))


def _bad_field(header: list[str], row: list[str]) -> str:
    """The column of the first value in row that does not parse: the label
    as an int, a feature as a float."""
    for column, value in zip(header, row):
        try:
            int(value) if column == "label" else float(value)
        except ValueError:
            return column
    raise AssertionError("every field parses")


def read_domain_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """A domain CSV's features and labels. The header is label,f0,...,f{d-1},
    or f0,...,f{d-1} for a feature-only file, whose labels come back as None.
    Every malformed file is a DataFormatError naming the path."""
    rows = read_csv(path)
    if not rows:
        raise DataFormatError(f"{path}: empty domain file")
    header = rows[0]
    labeled = int(header[:1] == ["label"])  # so row[labeled:] are a row's features
    dim = len(header) - labeled
    if dim < 1 or header[labeled:] != [f"f{i}" for i in range(dim)]:
        raise DataFormatError(
            f"{path}: header must be label,f0,...,f{{d-1}} or f0,...,f{{d-1}}, got {header!r}"
        )
    if len(rows) == 1:
        raise DataFormatError(f"{path}: no data rows")
    x = np.empty((len(rows) - 1, dim))
    y = np.empty(len(x), dtype=np.int64) if labeled else None
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {i}: expected {len(header)} fields, got {len(row)}")
        try:
            if labeled:
                y[i - 1] = int(row[0])
            x[i - 1] = [float(v) for v in row[labeled:]]
        except ValueError as exc:
            raise DataFormatError(
                f"{path}: row {i}: field {_bad_field(header, row)!r}: {exc}"
            ) from exc
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise DataFormatError(f"{path}: row {np.argmin(finite) + 1}: non-finite feature value")
    if labeled and y.min() < 0:
        raise DataFormatError(f"{path}: row {np.argmax(y < 0) + 1}: negative label")
    return x, y


def load_domain(path: str, name: str | None = None, shift_spec: dict | None = None) -> Domain:
    """A labeled domain CSV (header label,f0,...,f{d-1}) as a Domain."""
    x, y = read_domain_csv(path)
    if y is None:
        raise DataFormatError(f"{path}: no label column; a domain needs label,f0,...")
    return Domain(
        name or os.path.splitext(os.path.basename(path))[0],
        x,
        y,
        shift_spec or {"kind": "unknown"},
    )


def save_suite(suite: BenchmarkSuite, directory: str) -> None:
    os.makedirs(os.path.join(directory, "domains"), exist_ok=True)
    manifest: dict = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "seed": suite.seed,
        "spec": suite.spec.to_dict(),
        "domains": {},
        "roles": {
            "pretrain_mix": "pretrain_mix",
            "id_train": "id_train",
            "id_val": "id_val",
            "id_test": "id_test",
            "ood_tests": [d.name for d in suite.ood_tests],
        },
        "mtl_tasks": [
            {"train": split.train.name, "test": split.test.name} for split in suite.mtl_tasks
        ],
    }
    for name, domain in suite.domains().items():
        rel = os.path.join("domains", f"{name}.csv")
        save_domain(domain, os.path.join(directory, rel))
        manifest["domains"][name] = {"path": rel, "shift_spec": domain.shift_spec}
    atomic_write(
        os.path.join(directory, MANIFEST_NAME),
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )


def load_suite(directory: str) -> BenchmarkSuite:
    """The suite that save_suite wrote to directory. A manifest field of the
    wrong type or value is a DataFormatError naming the manifest and the
    field; a bad domain CSV is one naming that CSV."""
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = read_json(path)
    version = get(manifest, path, ("schema_version",), int)
    if version != MANIFEST_SCHEMA_VERSION:
        raise bad_field(path, ("schema_version",), f"unsupported version {version}")
    spec = get_dataclass(SuiteSpec, manifest, path, ("spec",))

    def load_named(keys: tuple) -> Domain:
        name = get(manifest, path, keys, str)
        if name not in get(manifest, path, ("domains",), dict):
            raise bad_field(path, keys, f"no domains entry {name!r}")
        entry = ("domains", name)
        shift_spec = get(manifest, path, (*entry, "shift_spec"), dict)
        get(manifest, path, (*entry, "shift_spec", "kind"), str)
        csv_path = os.path.join(directory, get(manifest, path, (*entry, "path"), str))
        dom = load_domain(csv_path, name, shift_spec)
        if dom.dim != spec.dim:
            raise DataFormatError(f"{csv_path}: dimension {dom.dim} does not match spec {spec.dim}")
        if dom.y.max() >= spec.class_count:
            raise DataFormatError(f"{csv_path}: label exceeds class count {spec.class_count}")
        return dom

    ood_names = get(manifest, path, ("roles", "ood_tests"), list)
    tasks = get(manifest, path, ("mtl_tasks",), list, [])
    return build(BenchmarkSuite, dict(
        seed=get(manifest, path, ("seed",), int),
        spec=spec,
        pretrain_mix=load_named(("roles", "pretrain_mix")),
        id_train=load_named(("roles", "id_train")),
        id_val=load_named(("roles", "id_val")),
        id_test=load_named(("roles", "id_test")),
        ood_tests=tuple(load_named(("roles", "ood_tests", i)) for i in range(len(ood_names))),
        mtl_tasks=tuple(
            TaskSplit(load_named(("mtl_tasks", j, "train")), load_named(("mtl_tasks", j, "test")))
            for j in range(len(tasks))
        ),
    ), path, ("domains",))
