"""In-memory span recorder and the call wrappers that feed it.

A traced run rebinds the names that dawin's modules look up at call time
(for example ``dawin.merge.em_fit`` or ``dawin.classifier.logits_batch``) to
wrappers that record one span per call. Nothing in the package is edited, and
``Patches.restore`` puts every original object back.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    scope: str
    start: float
    end: float = 0.0
    attrs: dict | None = None
    error: str | None = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap. ``attrs(args, kwargs, result)`` pulls the
    few numbers the metrics need out of a call, so no array is kept alive."""

    module: str
    attr: str
    span: str
    attrs: Callable | None = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    """Records spans for calls made while a scope is open. Single-threaded:
    the parent of a span is the innermost span still open, and a span's id
    is its index in ``spans``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.scope: str | None = None
        self._open: list[int] = []

    def call(self, target: Target, fn, args, kwargs):
        span = Span(
            id=len(self.spans),
            parent=self._open[-1] if self._open else None,
            name=target.span,
            scope=self.scope,
            start=0.0,
        )
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if target.attrs is not None:
            span.attrs = target.attrs(args, kwargs, result)
        return result

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "pass": s.scope,
                            "start": s.start,
                            "end": s.end,
                            "attrs": s.attrs,
                            "error": s.error,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover. Calls nest
    on one thread, so children never overlap and their durations add up."""
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += s.ms
    return [s.ms - covered for s, covered in zip(spans, child_ms)]


class Patches:
    """Installs tracing wrappers over a list of targets and restores them.

    A target whose module no longer defines the attribute is skipped and
    listed in ``missing``; its metrics then read zero instead of crashing the
    run, so the benchmark survives refactors of the code it measures.
    """

    def __init__(self, tracer: Tracer, targets: list[Target]) -> None:
        self.tracer = tracer
        self.targets = targets
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def active(self, scope: str):
        """Wrap every target and record spans under ``scope`` until exit."""
        self.install()
        self.tracer.scope = scope
        try:
            yield
        finally:
            self.tracer.scope = None
            self.restore()

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        self.missing = []
        for target in self.targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if not callable(original):
                self.missing.append(target.qualname)
                continue
            setattr(module, target.attr, self._wrap(target, original))
            self._installed.append((module, target.attr, original))

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, target: Target, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(target, fn, args, kwargs)

        return wrapper
