"""The benchmark's workloads: inputs from a seed, one case, and its verdict.

Each workload builds its inputs from the seed (the set-up), runs one case on
them (the timed part) and then, outside the timed interval, checks the
case's output and reduces it to a SHA-256 digest.  Floats enter a digest as
``float.hex`` so two digests agree only when every bit of the output does.

Cases call into torspec through module attributes (``op.apply``, not a
name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import torspec  # noqa: E402
from torspec import cli, constructions, cutoffs, experiments, fields, symbols  # noqa: E402
from torspec import operator as op  # noqa: E402

if Path(torspec.__file__).resolve().parent != SRC / "torspec":
    raise ImportError(f"torspec was imported from {torspec.__file__}, not from {SRC}")

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"

# The N = 7 member of the vanishing family: lacunary terms j = 7..49, and the
# modulation range over which its limit stabilises at m* = 49.
MOD_N = 7
MOD_J_HI = MOD_N * MOD_N
MOD_RANGE = (0, 52)
MOD_CARRIER_B = 6  # default carrier bandwidth of member 7: 2^7 // 20

SUPPORT_TRIALS = 5000
BULK_BALL_RADIUS = 79


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``build(seed)`` makes the inputs, ``run(inputs, outdir)`` is one case and
    ``verify(inputs, result)`` returns ``(digest, problems)``; an empty
    ``problems`` list means the case's output is correct.
    """

    name: str
    seeded: bool
    build: Callable[[int], Any]
    run: Callable[[Any, Path], Any]
    verify: Callable[[Any, Any], tuple[str, list[str]]]


# -- digests ---------------------------------------------------------------------


def _canon(obj):
    """JSON-able copy of obj with every float replaced by its hex form."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, complex):
        return [float.hex(obj.real), float.hex(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot digest {type(obj).__name__}")


def _feed(h, obj) -> None:
    h.update(json.dumps(_canon(obj), sort_keys=True, separators=(",", ":")).encode())
    h.update(b"\n")


def _feed_report(h, report: dict) -> None:
    """A report's name, params, metrics and assertions; never its artifact paths."""
    _feed(h, [report[k] for k in ("name", "params", "metrics", "assertions")])


def _feed_field(h, u) -> None:
    _feed(h, [u.n, [[list(xi), c] for xi, c in u.items()]])


def _failed_assertions(report: dict) -> list[str]:
    return [
        f"{report['name']}: assertion {a['id']} FAILED (measured {a['measured']!r})"
        for a in report["assertions"]
        if not a["pass"]
    ]


def _max_rel_diff(got: dict, want: dict) -> float:
    scale = max([abs(c) for c in got.values()] + [abs(c) for c in want.values()] + [1e-300])
    worst = max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want))
    return worst / scale


# -- suite: the eight experiments through the CLI ----------------------------------


def _suite_build(seed: int):
    return None


def _suite_run(inputs, outdir: Path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["suite", "--out", str(outdir)])
    return code, outdir


def _suite_verify(inputs, result) -> tuple[str, list[str]]:
    code, outdir = result
    problems = [] if code == 0 else [f"torspec suite exited with code {code}"]
    summary = json.loads((outdir / "summary.json").read_text())
    h = hashlib.sha256()
    # wall_seconds and the artifact paths are the only run-to-run differences.
    _feed(h, summary["pass"])
    for report in summary["experiments"]:
        _feed_report(h, report)
        for artifact in report["artifacts"]:
            h.update(Path(artifact).read_bytes())
        problems += _failed_assertions(report)
    if len(summary["experiments"]) != len(experiments.REGISTRY):
        problems.append(f"summary lists {len(summary['experiments'])} experiments")
    return h.hexdigest(), problems


# -- modulation: the N = 7 vanishing-modulation diagnostic ----------------------------


def _modulation_build(seed: int):
    rng = np.random.default_rng(seed)
    support = sorted(constructions.ball_carrier(1, MOD_CARRIER_B).coeffs)
    carrier = fields.SparseField(1, {xi: complex(rng.normal(), rng.normal()) for xi in support})
    vN, v, j_hi = constructions.vanishing_family(MOD_N, 0.0, (1,), v=carrier)
    _, a = symbols.ching_symbol(0.0, (1,), MOD_N, j_hi)
    profiles = [fam.profile for fam in cutoffs.default_families()]
    return {"a": a, "vN": vN, "v": v, "profiles": profiles}


def _modulation_run(inputs, outdir: Path):
    return op.vanishing_limit(inputs["a"], inputs["vN"], inputs["profiles"], MOD_RANGE)


def _modulation_verify(inputs, diag) -> tuple[str, list[str]]:
    problems = []
    if not diag.passed:
        problems.append("vanishing_limit did not PASS")
    if diag.m_star != MOD_J_HI:
        problems.append(f"m* = {diag.m_star}, expected {MOD_J_HI}")
    # The paper's identity: the limit is r_N times the carrier.
    r_n = constructions.harmonic_ratio(MOD_N)
    want = {xi: r_n * c for xi, c in inputs["v"].coeffs.items()}
    resid = _max_rel_diff(dict(diag.limit.coeffs), want) if diag.limit is not None else math.inf
    if not resid <= 1e-12:
        problems.append(f"limit differs from r_N v by {resid!r} (relative)")
    h = hashlib.sha256()
    _feed(h, [diag.delta, diag.m_star])
    _feed_field(h, diag.limit)
    return h.hexdigest(), problems


# -- grid: block norms and composite functions on dense grids -------------------------


def _grid_build(seed: int):
    return {"seed": seed}


def _grid_run(inputs, outdir: Path):
    return (
        experiments.exp_weierstrass(J=15, M=2**18),
        experiments.exp_composite(seed=inputs["seed"], M=2**14, K=9),
    )


def _grid_verify(inputs, reports) -> tuple[str, list[str]]:
    h = hashlib.sha256()
    problems = []
    for report in reports:
        blob = report.to_json()
        _feed_report(h, blob)
        problems += _failed_assertions(blob)
    return h.hexdigest(), problems


# -- sparse_bulk: support trials and one large 2-d apply -------------------------------


def _bulk_build(seed: int):
    rng = np.random.default_rng(seed)
    f = constructions.random_band_limited(2, 3, 8, rng)
    return {
        "seed": seed,
        "f": f,
        "a": symbols.multiplication_symbol(f),
        "u": constructions.ball_carrier(2, BULK_BALL_RADIUS),
    }


def _bulk_run(inputs, outdir: Path):
    report = experiments.exp_spectral_support(seed=inputs["seed"], trials=SUPPORT_TRIALS)
    return report, op.apply(inputs["a"], inputs["u"])


def _bulk_verify(inputs, result) -> tuple[str, list[str]]:
    report, out = result
    blob = report.to_json()
    problems = _failed_assertions(blob)
    # The symbol is eta-independent, so its action is the coefficient
    # convolution f * u; recompute that here, independently of apply.
    want: dict = {}
    for xi, cf in inputs["f"].items():
        for eta, cu in inputs["u"].items():
            zeta = (xi[0] + eta[0], xi[1] + eta[1])
            want[zeta] = want.get(zeta, 0.0) + cf * cu
    if set(out.coeffs) != {k for k, c in want.items() if c != 0.0}:
        problems.append("2-d apply output support differs from f * u")
    resid = _max_rel_diff(dict(out.coeffs), want)
    if not resid <= 1e-12:
        problems.append(f"2-d apply output differs from f * u by {resid!r} (relative)")
    h = hashlib.sha256()
    _feed_report(h, blob)
    _feed_field(h, out)
    return h.hexdigest(), problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite", False, _suite_build, _suite_run, _suite_verify),
        Workload("modulation", True, _modulation_build, _modulation_run, _modulation_verify),
        Workload("grid", True, _grid_build, _grid_run, _grid_verify),
        Workload("sparse_bulk", True, _bulk_build, _bulk_run, _bulk_verify),
    )
}


def reference_digest(workload: Workload, seed: int) -> str | None:
    """The committed digest for this workload and seed, if there is one."""
    if workload.seeded and seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload.name)
