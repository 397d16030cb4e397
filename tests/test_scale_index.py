"""The scale-index rule: every index j or m that becomes a scale 2^j is in 0..1023.

fields.check_scale_index is the one place the rule is written.  An index
past 1023, where 2^j is no double, raises RangeTooLarge and one below 0
ValueError, each naming the index, at every entry point that forms the
scale; an index of 1023 works as it always did.
"""

import json
import re

import pytest

from torspec import cli
from torspec.cli import main
from torspec.cutoffs import ball_diff, default_families, lp_project, modulate, telescope_check
from torspec.errors import RangeTooLarge
from torspec.experiments import exp_product
from torspec.fields import SparseField, freq_abs, pointwise_mul
from torspec.operator import apply, apply_modulated, pi_product, vanishing_limit
from torspec.serialize import save_sparse, symbol_to_json
from torspec.symbols import (
    Block,
    Corona,
    Modulated,
    One,
    RadialBump,
    SeparableSymbol,
    Term,
    symbol_full_modulate,
    symbol_modulate,
)

FAM = default_families()[0]
P = FAM.profile
PROFILES = [f.profile for f in default_families()]
U = SparseField(1, {(0,): 1.0, (1,): 0.5 + 0.5j, (2,): -0.25j, (5,): 0.125})
V = SparseField(1, {(-1,): 2.0, (3,): 0.5 - 1.0j})
# Corona(chi, 1) lives on [1.5, 2.5], so it hits the mode 2 of U.
A = SeparableSymbol(0.0, 1, (
    Term(SparseField(1, {(0,): 1.0, (2,): 0.5 - 0.25j}), One()),
    Term(SparseField(1, {(1,): 2.0}), Corona(RadialBump(), 1)),
))
NO_TERMS = SeparableSymbol(0.0, 1, ())


def _span(k):
    """A modulation range with k at its bad end."""
    return (k, 4) if k < 0 else (0, k)


# name: (the index the messages name, the call at index k, its result at k = 1023)
_ENTRIES = {
    # Once the plateau covers the spectrum, u^m holds 1.0 * c at every mode.
    "modulate": ("m", lambda k: modulate(U, k, P).coeffs, lambda: U.coeffs),
    "lp_project": ("m", lambda k: lp_project(U, k, FAM).coeffs, lambda: {}),
    "ball_diff": (
        "m",
        lambda k: ball_diff(U, k, 0, P).coeffs,
        lambda: SparseField(1, {xi: c - P.radial(freq_abs(xi)) * c for xi, c in U.items()}).coeffs,
    ),
    "symbol_modulate": ("m", lambda k: symbol_modulate(A, k, P), lambda: A),
    "symbol_full_modulate": (
        "m",
        lambda k: symbol_full_modulate(A, k, P),
        lambda: SeparableSymbol(0.0, 1, tuple(
            Term(t.xpart, Modulated(t.mult, 1023, P)) for t in A.terms
        )),
    ),
    "apply_modulated": (
        "m", lambda k: apply_modulated(A, U, P, k).coeffs, lambda: apply(A, U).coeffs
    ),
    # With no term, the step's own check is the only one.
    "apply_modulated_no_terms": (
        "m", lambda k: apply_modulated(NO_TERMS, U, P, k).coeffs, lambda: {}
    ),
    "Corona": (
        "j",
        lambda k: (lambda c: (c.lo, c.hi, c.radial(1.0)))(Corona(RadialBump(), k)),
        lambda: (0.75 * 2.0**1023, 1.25 * 2.0**1023, 0.0),
    ),
    "Block": (
        "j",
        lambda k: (lambda b: (b.lo, b.hi, b.radial(1.0)))(Block(P, k)),
        lambda: (P.r * 2.0**1022, P.R * 2.0**1023, 0.0),
    ),
    "Modulated": (
        "m",
        lambda k: (lambda m: (m.lo, m.hi, m.radial(3.0)))(Modulated(One(), k, P)),
        lambda: (0.0, P.R * 2.0**1023, 1.0),
    ),
    "vanishing_limit": (
        "m",
        lambda k: (lambda d: (d.passed, d.limit.coeffs))(vanishing_limit(A, U, PROFILES, _span(k))),
        lambda: (True, apply(A, U).coeffs),
    ),
    "pi_product": (
        "m",
        lambda k: (lambda d, lim: (d.passed, lim.coeffs))(*pi_product(U, V, PROFILES, _span(k))),
        lambda: (True, pointwise_mul(U, V).coeffs),
    ),
    # Phi_j(3) and the telescoping deviation at 3 stop changing once the
    # plateau covers 3, long before j or m = 1023.
    "block_multiplier": ("j", lambda k: FAM.block_multiplier(k, (3,)), lambda: 0.0),
    "telescope_check": (
        "m", lambda k: telescope_check(P, k, [(3,)]), lambda: telescope_check(P, 8, [(3,)])
    ),
    "exp_product": (
        "m_range", lambda k: exp_product(m_range=_span(k), trials=1).passed, lambda: True
    ),
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_every_entry_point_applies_the_scale_index_rule(entry):
    name, call, at_1023 = _ENTRIES[entry]
    named = re.compile(rf"(?<![\w-]){name}\b")
    if entry in ("lp_project", "ball_diff"):
        # u^i is empty for i < 0: a block or difference below 0 is empty.
        assert call(-1) == {}
    else:
        with pytest.raises(ValueError) as below:
            call(-1)
        assert named.search(str(below.value)), str(below.value)
    for k in (1024, 2**40, 10**400):
        with pytest.raises(RangeTooLarge) as above:
            call(k)
        assert named.search(str(above.value)) and "1023" in str(above.value), str(above.value)
    assert call(1023) == at_1023()


def test_modulate_past_the_cap_is_refused_before_any_input_is_read(tmp_path, monkeypatch, capsys):
    read = []
    monkeypatch.setattr(cli, "load_symbol", read.append)
    monkeypatch.setattr(cli, "load_sparse", read.append)
    missing = tmp_path / "missing.json"
    argv = ["apply", "--symbol", str(missing), "--field", str(missing), "--out-field", str(missing)]
    for value in ("1024", str(2**40)):
        assert main([*argv, "--modulate", value]) == 3
        err = capsys.readouterr().err
        assert f"RangeTooLarge: --modulate = {value} passes --modulate = 1023" in err, err
    assert read == [] and not missing.exists()


@pytest.mark.parametrize(
    "mult, key",
    [
        (Corona(RadialBump(), 2), "j"),
        (Block(P, 1), "j"),
        (Modulated(One(), 1, P), "m"),
    ],
)
def test_symbol_file_index_past_the_cap_exits_three(tmp_path, capsys, mult, key):
    doc = symbol_to_json(SeparableSymbol(0.0, 1, (Term(SparseField(1, {(0,): 1.0}), mult),)))
    field = save_sparse(U, tmp_path / "u.json")
    for value, code in ((1023, 0), (1024, 3)):
        doc["terms"][0]["mult"][key] = value
        (tmp_path / "a.json").write_text(json.dumps(doc))
        out = tmp_path / f"out{value}.json"
        argv = ["apply", "--symbol", str(tmp_path / "a.json"), "--field", str(field)]
        assert main([*argv, "--out-field", str(out)]) == code, value
        assert out.exists() == (code == 0)
    err = capsys.readouterr().err
    assert f"RangeTooLarge: {key} = 1024 passes {key} = 1023" in err, err

