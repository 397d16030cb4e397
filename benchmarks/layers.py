"""Per-layer numbers for the traced run: spans, self times and work counts.

The layers are torspec's modules.  A span is recorded around each call into
the public functions listed in ``SPANNED``, into ``SparseField``
construction (``__post_init__``) and into ``numpy.fft.fftn``/``ifftn`` (the
``fft`` layer).  torspec imports with ``from .x import y``, so a wrapper is
installed on every ``torspec.*`` module attribute that *is* the original
function, not only on the defining module.  ``Term.mult_at`` and
``CutoffProfile.radial`` stay unwrapped: they run 10^5-10^6 times per case,
and their time stays in the caller's self time.

Spans and counts come from different passes.  ``SpanRecorder`` only reads
the clock, while ``WorkCounter`` evaluates extra work (such as which
multiplier values are nonzero) in a pass whose time is not measured.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter
from statistics import median

import numpy as np

from torspec import experiments
from torspec.fields import SparseField

SPANNED = {
    "operator": (
        "apply",
        "apply_modulated",
        "vanishing_limit",
        "pi_product",
        "support_rule_xi",
        "norm_ratio_probe",
    ),
    "symbols": (
        "symbol_modulate",
        "symbol_full_modulate",
        "ching_symbol",
        "twisted_diagonal_check",
        "meyer_symbol",
        "lp_project_dense",
    ),
    "cutoffs": ("modulate", "lp_project", "telescope_check"),
    "fields": ("pointwise_mul", "sparse_to_dense", "dense_to_sparse"),
    "norms": ("sobolev_norm", "besov_norm", "hsp_norm_dense", "cone_report"),
    "constructions": ("random_band_limited", "vanishing_family", "lacunary_field"),
    "serialize": ("write_json", "atomic_write_text"),
    "cli": ("run_suite",),
}

# Counts beyond ``<span>.calls``; WorkCounter's hooks fill them.
COUNT_KEYS = (
    "operator.apply.pairs",
    "operator.apply.mult_evals",
    "operator.apply.mult_nonzero",
    "operator.apply.out_modes",
    "fields.SparseField.in_coeffs",
    "fields.SparseField.kept_coeffs",
    "fields.pointwise_mul.pairs",
    "fft.points",
    "serialize.bytes_written",
)


def _targets():
    """(span name, original, [(owner, key), ...]) for every wrapped callable."""
    mods = [m for n, m in sorted(sys.modules.items()) if n == "torspec" or n.startswith("torspec.")]

    def sites(fn):
        return [(m, key) for m in mods for key, value in vars(m).items() if value is fn]

    out = []
    for layer, names in SPANNED.items():
        home = sys.modules[f"torspec.{layer}"]
        for fname in names:
            fn = getattr(home, fname)
            out.append((f"{layer}.{fname}", fn, sites(fn)))
    for key, fn in experiments.REGISTRY.items():
        out.append((f"experiments.{key}", fn, sites(fn) + [(experiments.REGISTRY, key)]))
    out.append(("fields.SparseField", SparseField.__post_init__, [(SparseField, "__post_init__")]))
    for fname in ("fftn", "ifftn"):
        out.append(("fft", getattr(np.fft, fname), [(np.fft, fname)]))
    return out


def span_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in _targets()))


def _rebind(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextlib.contextmanager
def installed(make_wrapper):
    """Replace every target by ``make_wrapper(name, original)``; restore on exit."""
    undo = []
    try:
        for name, fn, where in _targets():
            wrapper = make_wrapper(name, fn)
            for owner, key in where:
                _rebind(owner, key, wrapper)
                undo.append((owner, key, fn))
        yield
    finally:
        for owner, key, fn in reversed(undo):
            _rebind(owner, key, fn)


class SpanRecorder:
    """Keeps spans in memory: (name, start_ns, end_ns, parent index, case id).

    Each case is one root span named ``case``.  Self time is a span's
    duration minus the time its child spans cover; calls run on one thread,
    so children nest strictly and their durations can simply be summed.
    """

    def __init__(self):
        self.spans: list = []
        self.per_case: list[dict[str, list[int]]] = []
        self._stack: list[list] = []
        self._case = -1
        self._agg: dict[str, list[int]] = {}

    def _enter(self, name: str) -> None:
        self._stack.append([len(self.spans), name, time.perf_counter_ns(), 0])
        self.spans.append(None)

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        index, name, start, child = self._stack.pop()
        duration = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans[index] = (name, start, end, parent, self._case)
        agg = self._agg.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child

    @contextlib.contextmanager
    def case(self, case_id: int):
        self._case = case_id
        self._agg = {}
        self._enter("case")
        try:
            yield
        finally:
            self._exit()
            self.per_case.append(self._agg)

    @contextlib.contextmanager
    def recording(self, case_id: int):
        """Spans on every target for the duration of one case."""
        with installed(self.wrap), self.case(case_id):
            yield

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        blob = {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "case"],
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
        }
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(blob, handle, separators=(",", ":"))


def _call(c, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _count_apply(c, fn, a, u, *args, **kwargs):
    c["operator.apply.pairs"] += sum(len(t.xpart) for t in a.terms) * len(u)
    c["operator.apply.mult_evals"] += len(a.terms) * len(u)
    etas = [eta for eta, _ in u.items()]
    c["operator.apply.mult_nonzero"] += sum(
        1 for t in a.terms for eta in etas if t.mult_at(eta) != 0.0
    )
    out = fn(a, u, *args, **kwargs)
    c["operator.apply.out_modes"] += len(out)
    return out


def _count_sparse_field(c, fn, field):
    c["fields.SparseField.in_coeffs"] += len(field.coeffs)
    fn(field)
    c["fields.SparseField.kept_coeffs"] += len(field.coeffs)


def _count_pointwise_mul(c, fn, u, v, *args, **kwargs):
    c["fields.pointwise_mul.pairs"] += len(u) * len(v)
    return fn(u, v, *args, **kwargs)


def _count_fft(c, fn, a, *args, **kwargs):
    c["fft.points"] += int(np.size(a))
    return fn(a, *args, **kwargs)


def _count_text(c, fn, path, text):
    c["serialize.bytes_written"] += len(text.encode())
    return fn(path, text)


_COUNT_HOOKS = {
    "operator.apply": _count_apply,
    "fields.SparseField": _count_sparse_field,
    "fields.pointwise_mul": _count_pointwise_mul,
    "fft": _count_fft,
    "serialize.atomic_write_text": _count_text,
}


class WorkCounter:
    """Counts calls and work per layer; its extra evaluation is never timed."""

    def __init__(self):
        self.counts: Counter = Counter()

    def counting(self):
        return installed(self.wrap)

    def wrap(self, name: str, fn):
        hook = _COUNT_HOOKS.get(name, _call)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name + ".calls"] += 1
            return hook(counts, fn, *args, **kwargs)

        return counted


def layer_metrics(
    counts: Counter, per_case: list[dict], untraced_s: list[float], traced_s: list[float]
) -> dict[str, float]:
    """Every per-layer number: medians over traced cases, counts from one pass."""

    def med(name: str, column: int) -> float:
        return median(agg.get(name, (0, 0, 0))[column] for agg in per_case) / 1e9

    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = counts[f"{name}.calls"]
        out[f"{name}.self_s"] = med(name, 2)
        if name.startswith("experiments."):
            out[f"{name}.total_s"] = med(name, 1)
    for key in COUNT_KEYS:
        out[key] = counts[key]
    evals = counts["operator.apply.mult_evals"]
    out["operator.apply.mult_hit_ratio"] = (
        counts["operator.apply.mult_nonzero"] / evals if evals else 0.0
    )
    # Computed, not measured: one complex128 read and one written per point.
    out["fft.bytes_computed"] = 2 * 16 * counts["fft.points"]
    out["trace.overhead_ratio"] = median(traced_s) / median(untraced_s)
    return out
