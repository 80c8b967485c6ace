"""Span tracing of compulse's public functions, applied from outside.

The tracer replaces each traced function by a wrapper in every compulse
module namespace that holds it (``from .sequences import build`` copies the
name into ``verify`` and ``cli``), so calls between modules are seen too.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Each span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the enclosing span or -1, and ``note`` is whatever the span's observer
extracted from its arguments and result.  Self time is the span's duration
minus the durations of its children; calls are strictly nested in a single
thread, so the children never overlap.
"""

from __future__ import annotations

import sys
import time

MODULES = ("su2", "series", "sequences", "verify", "cli")


def _propagator_key(args, kwargs, result):
    pulse, model = args[0], args[1]
    degree = args[2] if len(args) > 2 else kwargs.get("degree", 8)
    return (pulse.angle, getattr(model, "kind", model), degree)


def _infidelity_value(args, kwargs, result):
    return float(result)


def _fit_window_counts(args, kwargs, result):
    lo, hi = sys.modules["compulse.verify"].FIT_WINDOW
    infid = result.infidelities
    return int(((infid >= lo) & (infid <= hi)).sum()), len(infid)


def _scan_grid_size(args, kwargs, result):
    return len(list(args[0])) * len(result.thetas)


def _compose_pulses(args, kwargs, result):
    return len(tuple(args[0]))


def _cli_subcommand(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


#: (module, qualified name, observer) of every traced function
TARGETS = (
    ("su2", "propagator", None),
    ("su2", "compose", _compose_pulses),
    ("series", "propagator_series", _propagator_key),
    ("series", "sequence_series", None),
    ("series", "residual", None),
    ("series", "leading_error", None),
    ("series", "fidelity_series", None),
    ("series", "MatrixSeries.__mul__", None),
    ("sequences", "build", None),
    ("sequences", "solve_third_order", None),
    ("verify", "infidelity_ld", _infidelity_value),
    ("verify", "estimate_order", _fit_window_counts),
    ("verify", "fit_leading_coefficient", None),
    ("verify", "crossover_scan", _scan_grid_size),
    ("verify", "fidelity_surface", None),
    ("verify", "inverse_quality", None),
    ("cli", "main", _cli_subcommand),
    ("cli", "parse_document", None),
    ("cli", "serialize_document", None),
    ("cli", "build_document", None),
    ("cli", "document_to_sequence", None),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('.__mul__', '.mul')}"


class Tracer:
    """Records spans while installed; keeps them in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                rec[4] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded compulse namespace."""
        if self._patches:
            return
        namespaces = [sys.modules["compulse"]] + [
            sys.modules[f"compulse.{m}"] for m in MODULES if f"compulse.{m}" in sys.modules
        ]
        for module, qualname, observe in TARGETS:
            mod = sys.modules.get(f"compulse.{module}")
            if mod is None:
                continue
            name = span_name(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, fn, observe))
                continue
            fn = getattr(mod, qualname)
            wrapped = self._wrap(name, fn, observe)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Self time of every span, seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def descendants(spans, root: int, name: str) -> list[int]:
    """Indices of the spans called ``name`` below ``root``."""
    out = []
    for i in range(root + 1, len(spans)):
        p = spans[i][3]
        while p > root:
            p = spans[p][3]
        if p != root:
            break
        if spans[i][0] == name:
            out.append(i)
    return out
