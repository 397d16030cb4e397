"""File formats and the command-line interface."""

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torspec.cli import build_parser, load_config, main
from torspec.constructions import lacunary_field, random_band_limited
from torspec.cutoffs import default_families
from torspec.experiments import REGISTRY, random_symbol
from torspec.fields import SparseField, delta_field, sparse_to_dense
from torspec.operator import apply, rel_coeff_diff
from torspec.serialize import (
    load_dense,
    load_sparse,
    load_symbol,
    save_dense,
    save_sparse,
    save_symbol,
    sparse_to_json,
    write_json,
)
from torspec.symbols import (
    Ball,
    Corona,
    RadialBump,
    SeparableSymbol,
    Term,
    ching_symbol,
    identity_symbol,
    multiplication_symbol,
    symbol_full_modulate,
)


def test_sparse_json_round_trip(tmp_path, rng):
    u = random_band_limited(1, 12, 100, rng)
    path = tmp_path / "u.json"
    save_sparse(u, path)
    assert load_sparse(path).coeffs == u.coeffs


def test_sparse_json_is_sorted(rng):
    u = random_band_limited(1, 12, 100, rng)
    obj = sparse_to_json(u)
    xs = [tuple(e["xi"]) for e in obj["coeffs"]]
    assert xs == sorted(xs)


def test_dense_round_trip_complex64(tmp_path, rng):
    u = random_band_limited(2, 6, 5, rng)
    g = sparse_to_dense(u, 16)
    save_dense(g, tmp_path / "g")
    back = load_dense(tmp_path / "g")
    assert back.M == 16 and back.n == 2
    # complex64 interchange loses precision but not structure
    assert float(np.max(np.abs(back.samples - g.samples))) <= 1e-6 * float(
        np.max(np.abs(g.samples))
    )


def test_dense_sidecar_is_typed(tmp_path, rng):
    save_dense(sparse_to_dense(random_band_limited(1, 4, 5, rng), 16), tmp_path / "g")
    sidecar = tmp_path / "g.json"
    # Each sidecar is malformed; none may be cast or truncated into a grid.
    for meta in (
        {"M": 16.9, "n": 1},
        {"M": 16, "n": True},
        {"M": "16", "n": 1},
        {"M": 16, "n": 3},
        {"M": 12, "n": 1},
        {"M": 1, "n": 1},
        {"M": 8, "n": 1},
        {"M": 8, "n": 2},
        [16, 1],
    ):
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError):
            load_dense(tmp_path / "g")
    sidecar.write_text(json.dumps({"M": 16, "n": 1}))
    assert load_dense(tmp_path / "g").M == 16


def _round_trip_cases():
    _, ching = ching_symbol(0.5, (1,), 4, 9)
    yield "ching", ching, lacunary_field((1,), 0.5, 4, 9, delta_field((0,)))
    # The eta-modulation and its support clip must survive a save/load.
    corona = SeparableSymbol(0.0, 1, (Term(delta_field((0,)), Corona(RadialBump(), 6)),))
    modulated = symbol_full_modulate(corona, 5, default_families()[0].profile)
    yield "modulated-corona", modulated, SparseField(1, {(k,): 1 for k in range(40, 82, 3)})
    rng = np.random.default_rng(5)
    balls = 0
    while balls < 3:
        a = random_symbol(1 + balls % 2, rng)
        if any(isinstance(t.mult, Ball) for t in a.terms):
            balls += 1
            yield f"random-ball-{balls}", a, random_band_limited(a.n, 12, 200, rng)


def test_symbol_round_trip_preserves_action(tmp_path):
    for name, a, u in _round_trip_cases():
        save_symbol(a, tmp_path / f"{name}.json")
        b = load_symbol(tmp_path / f"{name}.json")
        assert apply(a, u).coeffs == apply(b, u).coeffs, name


def test_identity_symbol_round_trip(tmp_path):
    save_symbol(identity_symbol(1), tmp_path / "i.json")
    b = load_symbol(tmp_path / "i.json")
    u = SparseField(1, {(2,): 1.5, (-3,): 1j})
    assert apply(b, u).coeffs == u.coeffs


def test_atomic_write_leaves_no_temp_files(tmp_path, rng):
    u = random_band_limited(1, 5, 10, rng)
    for k in range(4):
        save_sparse(u, tmp_path / "u.json")
    leftovers = [p for p in tmp_path.iterdir() if p.name != "u.json"]
    assert leftovers == []


def test_write_json_rejects_non_finite_floats(tmp_path):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            write_json(tmp_path / "report.json", {"metrics": {"ratio": bad}})
    assert list(tmp_path.iterdir()) == []


# -- configuration ---------------------------------------------------------------


def test_config_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        """
# comment
out = my_runs
profile.main = {"r": 1.2, "R": 2.1, "kind": "exp"}
flip.d = 0.5
flip.J = 14
unclosable.n_list = [5, 6]
emit_plots = true
flip.with_2d = false
unclosable.d = 1
weierstrass.p_list = 1, 2.5, 8
composite.f = sin
continuity.theta = 1
"""
    )
    cfg = load_config(str(cfg_file))
    assert str(cfg.out) == "my_runs"
    assert cfg.profile("main").r == 1.2
    assert cfg.profile("alt") == default_families()[1].profile
    assert cfg.overrides["flip"] == {"d": 0.5, "J": 14, "with_2d": False}
    assert cfg.overrides["unclosable"] == {"n_list": [5, 6], "d": 1}
    assert cfg.emit_plots is True
    assert cfg.overrides["weierstrass"] == {"p_list": [1, 2.5, 8]}
    assert cfg.overrides["composite"] == {"f": "sin"}
    assert cfg.overrides["continuity"] == {"theta": 1}


def test_env_var_sets_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("TORSPEC_OUT", str(tmp_path / "envroot"))
    cfg = load_config(None)
    assert cfg.out == tmp_path / "envroot"


def test_bad_profile_rejected_before_running(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a coerced output root would land here
    bad_lines = [
        'profile.main = {"r": 3.0, "R": 1.0}',
        "seed = 42",
        "grid.M = 8192",
        "nosuch.x = 1",
        # A value must have the type of the parameter's default.
        "flip.with_2d = False",
        'emit_plots = "no"',
        "emit_plots = 1",
        "weierstrass.J = 3.0",
        "flip.J = true",
        "unclosable.d = true",
        "composite.f = 3",
        "unclosable.theta = 1.5",
        "unclosable.n_list = 5, 6.5",
        "weierstrass.p_list = [2.0, yes]",
        "weierstrass.outdir = elsewhere",
        "flip.nosuch = 1",
        # An empty list is no evidence.
        "flip.d = []",
        # A profile is an object with numeric r/R, an optional string kind
        # and no other key.
        "profile.main = 5",
        "profile.main = [1, 2]",
        'profile.main = {"r": true, "R": 2.0}',
        'profile.main = {"r": "1.1", "R": 2.0}',
        'profile.main = {"r": 1.1, "R": 2.0, "extra": 1}',
        # The output root is a nonempty string, never a coerced value.
        "out = null",
        "out = a,b",
        'out = {"x": 1}',
        'out = ""',
    ]
    for i, line in enumerate(bad_lines):
        cfg_file = tmp_path / f"bad{i}.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / f"o{i}"
        code = main(["suite", "--config", str(cfg_file), "--out", str(out)])
        assert code == 2, line
        assert not out.exists(), line
    # An empty --out is not an absent one, nor is an empty TORSPEC_OUT.
    assert main(["suite", "--out", ""]) == 2
    monkeypatch.setenv("TORSPEC_OUT", "")
    assert main(["run", "flip"]) == 2
    monkeypatch.delenv("TORSPEC_OUT")
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(f"bad{i}.cfg" for i in range(len(bad_lines)))


# -- CLI behaviour ------------------------------------------------------------------


def test_run_flip_exits_zero(tmp_path):
    code = main(
        ["run", "flip", "--d", "0.5", "--j0", "5", "--J", "12", "--out", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "flip" / "report.json").read_text())
    assert report["name"] == "flip"
    assert all(a["pass"] for a in report["assertions"])


def test_with_2d_flag_is_strict_boolean(tmp_path):
    code = main(["run", "flip", "--with-2d", "false", "--J", "8", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "flip" / "report.json").read_text())
    assert report["params"]["with_2d"] is False
    assert not any("2d" in a["id"] for a in report["assertions"])
    # JSON true/false only, as in the config file.
    for bad in ("False", "TRUE", "maybe"):
        out = tmp_path / bad
        assert main(["run", "flip", "--with-2d", bad, "--out", str(out)]) == 2, bad
        assert not out.exists(), bad
    # A flag is its config key in full: flip.wi is no key, so --wi is no flag.
    out = tmp_path / "wi"
    assert main(["run", "flip", "--wi", "false", "--d", "0", "--out", str(out)]) == 2
    assert not out.exists()


def test_run_unknown_experiment_exits_two(tmp_path):
    assert main(["run", "unknown-name", "--out", str(tmp_path)]) == 2


def test_run_unclosable_with_list_flag(tmp_path):
    code = main(
        ["run", "unclosable", "--n-list", "5,6", "--d", "0", "--out", str(tmp_path)]
    )
    assert code == 0
    # A flag of the wrong type is rejected, never cast: 5.9 must not run as 5.
    for bad in (
        ["--n-list", "5.9,6.2"],
        ["--n-list", "5,true"],
        ["--theta", "1.5"],
        ["--d", "zero"],
    ):
        out = tmp_path / "bad"
        assert main(["run", "unclosable", *bad, "--out", str(out)]) == 2
        assert not (out / "unclosable" / "report.json").exists()


def test_tuple_flag_takes_one_element(tmp_path):
    # One element for a tuple parameter runs as a tuple of it, not a crash.
    runs = {
        "unclosable": ["--n-list", "5,6"],
        "flip": ["--J", "8", "--with-2d", "false"],
        "continuity": ["--n-list", "5,6", "--j-list", "10,14", "--trials", "3"],
    }
    for name, flags in runs.items():
        assert main(["run", name, "--theta", "1", *flags, "--out", str(tmp_path)]) == 0, name
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report["params"]["theta"] == [1], name
    report = json.loads((tmp_path / "unclosable" / "report.json").read_text())
    assert report["params"] == {"d": 0.0, "n_list": [5, 6], "theta": [1]}


def test_bad_input_errors_exit_two(tmp_path):
    # Errors only bad input can cause are bad input (2), not resource limits (3).
    save_symbol(identity_symbol(1), tmp_path / "a.json")
    save_sparse(delta_field((1, 0)), tmp_path / "u2.json")
    out = tmp_path / "o.json"
    argv = ["apply", "--symbol", str(tmp_path / "a.json"), "--field", str(tmp_path / "u2.json")]
    assert main([*argv, "--out-field", str(out)]) == 2
    assert not out.exists()
    runs = tmp_path / "runs"
    assert main(["run", "flip", "--theta", "0", "--with-2d", "false", "--out", str(runs)]) == 2
    assert not runs.exists()


def test_bad_config_value_exits_two_writing_nothing(tmp_path):
    # A reversed modulation range has no step; a NaN parameter is no number
    # (composite used to run on it and write its CSV tables before failing).
    lines = {"product": "product.m_range = [8, 0]", "composite": "composite.s_list = NaN"}
    for name, line in lines.items():
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / name
        assert main(["run", name, "--config", str(cfg_file), "--out", str(out)]) == 2, line
        assert not out.exists(), line


def test_resource_error_exits_three(tmp_path):
    code = main(["run", "unclosable", "--n-list", "5,8", "--out", str(tmp_path)])
    assert code == 3
    # A dyadic index too large for a float, or for an int64 sample window.
    for m in ("62", "1023", "1024", "2000"):
        assert main(["run", "partition-check", "--m", m, "--out", str(tmp_path)]) == 3, m
    # A modulation range whose 2^m_hi is no double.
    assert main(["run", "product", "--m-range", "0,1100", "--out", str(tmp_path)]) == 3
    # A Sobolev exponent whose potential (s = 300 at M = 2^16) is no double.
    argv = ["--s-list", "300,301", "--M", "65536", "--K", "12"]
    assert main(["run", "composite", *argv, "--out", str(tmp_path)]) == 3
    assert not any(tmp_path.iterdir())
    # A power-of-two grid too small for the top block is a grid band.
    for argv in (["weierstrass", "--M", "64", "--J", "6"], ["composite", "--M", "64", "--K", "7"]):
        assert main(["run", *argv, "--out", str(tmp_path)]) == 3, argv


def test_composite_reports_norms_whose_plain_lp_sum_overflows(tmp_path):
    # At s = 80 and 90 the largest modulus is near 1e248: its square is no
    # double, but the L_2 and L_4 norms are, so the run reports them and its
    # verdicts instead of stopping as a resource error (exit 3).
    assert main(["run", "composite", "--s-list", "80,90", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "composite" / "report.json").read_text())
    norms = {k: v for k, v in report["metrics"].items() if k.startswith("hsp[")}
    assert len(norms) == 8 and all(1e240 < v < math.inf for v in norms.values())
    failed = {a["id"].split("[")[0] for a in report["assertions"] if not a["pass"]}
    assert failed == {"lipschitz-bounded"}


def test_memory_error_exits_three(tmp_path, monkeypatch, capsys):
    # numpy's allocation failure (weierstrass --M 2^40 under a memory limit,
    # in block_norms) is a resource limit, not a failed assertion (1).
    import torspec.experiments as experiments

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(experiments, "block_norms", out_of_memory)
    out = tmp_path / "runs"
    argv = ["run", "weierstrass", "--d", "0.5", "--J", "4", "--M", "128", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "torspec: MemoryError: Unable to allocate 8.00 TiB\n"
    assert not out.exists()


def test_bad_parameter_exits_two(tmp_path, capsys):
    code = main(["run", "weierstrass", "--trials", "5", "--out", str(tmp_path)])
    assert code == 2
    # Zero trials or samples are no evidence: rejected before any work,
    # with nothing written.
    for i, argv in enumerate(
        [
            ["run", "product", "--trials", "0"],
            ["run", "partition-check", "--n-samples", "0"],
            ["partition-check", "--n-samples", "0"],
            ["run", "support", "--trials", "0"],
            ["run", "continuity", "--trials", "0"],
            # Neither is an empty list.
            ["run", "flip", "--d", "[]"],
            ["run", "weierstrass", "--d", "[]"],
            ["run", "composite", "--f", "[]"],
            ["run", "continuity", "--j-list", "[]"],
            # A sweep needs two distinct points.
            ["run", "unclosable", "--n-list", "5"],
            ["run", "continuity", "--n-list", "5"],
            ["run", "continuity", "--j-list", "10"],
            ["run", "continuity", "--j-list", "10,10"],
            # ... that strictly increase: a verdict compares later points
            # with earlier ones.
            ["run", "continuity", "--j-list", "40,30,20,10"],
            ["run", "continuity", "--n-list", "8,7,6,5"],
            ["run", "unclosable", "--n-list", "7,6,5"],
            ["run", "unclosable", "--n-list", "5,5,6"],
            # A value that names assertions or metrics is not repeated, and a
            # Lipschitz spread needs two distinct deltas.
            ["run", "flip", "--d", "0,0"],
            ["run", "weierstrass", "--d", "0.5,0.5"],
            ["run", "weierstrass", "--p-list", "2,2"],
            ["run", "composite", "--f", "sin,sin"],
            ["run", "composite", "--s-list", "1,1"],
            ["run", "composite", "--p-list", "2,2"],
            ["run", "composite", "--delta-list", "0.1"],
            ["run", "composite", "--delta-list", "0.1,0.1"],
            # m_range is two ints with 0 <= m_lo < m_hi.
            ["run", "product", "--m-range", "0,0"],
            ["run", "product", "--m-range", "0,1,2"],
            ["run", "product", "--m-range", "3,2"],
            ["run", "product", "--m-range=-1,4"],
            # Every delta of the Lipschitz probe is > 0.
            ["run", "composite", "--delta-list", "0,0.1"],
            ["run", "composite", "--delta-list=-0.1,0.1"],
            # The default chi vanishes at |theta|, so the symbol annihilates the family.
            ["run", "unclosable", "--theta", "2"],
            ["run", "unclosable", "--theta", "1,1"],
            ["run", "continuity", "--theta", "2"],
            ["run", "continuity", "--theta", "1,1"],
            ["run", "flip", "--theta", "2", "--J", "10"],
            ["run", "flip", "--theta", "1,1"],
            # A flag value is read as a config value is, never by int().
            ["run", "partition-check", "--m", "\u0665"],
            ["run", "partition-check", "--n-samples", "1_00"],
            ["run", "partition-check", "--m", "+3"],
            # No block to isolate or factor: J = 0 leaves an empty lacunary
            # sum, and K = 0 a window of 1/2, so u and w are constants.
            ["run", "weierstrass", "--J", "0"],
            ["run", "composite", "--K", "0"],
            # flip's lacunary sums start at j0, which is >= 1 as J is.
            ["run", "flip", "--j0", "0"],
            # A grid size is a power of two >= 2, checked before the range
            # checks and before any draw.
            ["run", "weierstrass", "--M", "3"],
            ["run", "composite", "--M", "100"],
            ["run", "composite", "--M", "1000"],
            # Every p of p_list is an L_p exponent, checked before any draw
            # or grid transform.
            ["run", "weierstrass", "--p-list", "0.5"],
            ["run", "composite", "--p-list", "2,0.5"],
        ]
    ):
        out = tmp_path / f"zero{i}"
        assert main([*argv, "--out", str(out)]) == 2, argv
        assert not out.exists(), argv
    # A negative seed is named: numpy's own rejection said only "expected
    # non-negative integer", and continuity's came after its plain sweep.
    capsys.readouterr()
    for name in ("partition-check", "support", "composite", "continuity", "product"):
        out = tmp_path / f"seed-{name}"
        assert main(["run", name, "--seed", "-1", "--out", str(out)]) == 2, name
        assert "seed must be >= 0, got -1" in capsys.readouterr().err, name
        assert not out.exists(), name
    # An output root that is a regular file is bad input, for every command.
    root = tmp_path / "root-file"
    root.write_text("keep\n")
    for argv in (["run", "partition-check"], ["suite"]):
        assert main([*argv, "--out", str(root)]) == 2, argv
        assert root.read_text() == "keep\n", argv


def test_float_parameter_must_be_finite(tmp_path):
    # An integer too large for a float and an infinity are bad input (2),
    # rejected before any work, so nothing is written.
    out = tmp_path / "huge"
    assert main(["run", "unclosable", "--d", "1" + "0" * 400, "--out", str(out)]) == 2
    assert not out.exists()
    cfg_file = tmp_path / "inf.cfg"
    cfg_file.write_text("weierstrass.p_list = [2.0, Infinity]\n")
    out = tmp_path / "inf"
    assert main(["run", "weierstrass", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(ValueError):
        REGISTRY["weierstrass"](p_list=(2.0, math.inf))


def test_unknown_composite_function_exits_two(tmp_path):
    out = tmp_path / "runs"
    assert main(["run", "composite", "--f", "nope", "--out", str(out)]) == 2
    assert not out.exists()


# s = 1e300 overflows the Bessel potential on purpose (RangeTooLarge, exit 3).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_run_writes_nothing(tmp_path):
    # Files are written only once the last experiment has returned, so a
    # value check inside an experiment, an unknown function or a resource
    # limit leaves no output root.
    cases = {
        "support.trials = 0": ("suite", 2),
        "support.n_modes = 2": ("suite", 2),
        'composite.f = "nope"': ("suite", 2),
        "continuity.n_list = [4, 5]": ("suite", 2),
        "unclosable.n_list = [4, 5]": ("run unclosable", 2),
        "weierstrass.M = 64": ("suite", 3),
        "weierstrass.J = 0": ("run weierstrass", 2),
        "composite.K = 0": ("suite", 2),
        "composite.M = 48": ("run composite", 2),
        "composite.s_list = 1e300": ("run composite", 3),
        "continuity.j_list = [40, 30, 20, 10]": ("suite", 2),
        "unclosable.n_list = [5, 5, 6]": ("run unclosable", 2),
        "flip.d = [0, 0]": ("suite", 2),
        "weierstrass.p_list = [2, 2]": ("run weierstrass", 2),
        'composite.f = ["sin", "sin"]': ("suite", 2),
        "composite.delta_list = 0.1": ("run composite", 2),
        "product.m_range = [0, 0]": ("suite", 2),
    }
    for i, (line, (command, code)) in enumerate(cases.items()):
        cfg_file = tmp_path / f"c{i}.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / f"o{i}"
        assert main([*command.split(), "--config", str(cfg_file), "--out", str(out)]) == code, line
        assert not out.exists(), line


def test_every_parameter_is_a_run_flag(tmp_path):
    # The flags come from the signatures, so m_range, p_list, s_list and
    # delta_list are flags as well as config keys.
    parser = build_parser()
    for name, fn in REGISTRY.items():
        for key, param in inspect.signature(fn).parameters.items():
            default = param.default
            raw = json.dumps(list(default) if isinstance(default, tuple) else default)
            args = parser.parse_args(["run", name, "--" + key.replace("_", "-"), raw])
            assert getattr(args, key) == json.loads(raw), (name, key)
    runs = {
        "product": ["--m-range", "0,6", "--trials", "2"],
        "composite": ["--f", "square", "--M", "1024", "--K", "6", "--s-list", "1",
                      "--p-list", "2", "--delta-list", "0.1,0.01"],
    }
    for name, flags in runs.items():
        assert main(["run", name, *flags, "--out", str(tmp_path)]) == 0, name
    params = json.loads((tmp_path / "composite" / "report.json").read_text())["params"]
    assert (params["s_list"], params["p_list"], params["delta_list"]) == ([1.0], [2.0], [0.1, 0.01])
    report = json.loads((tmp_path / "product" / "report.json").read_text())
    assert report["params"]["m_range"] == [0, 6]


def test_partition_check_subcommand(tmp_path):
    code = main(["partition-check", "--m", "6", "--n-samples", "500", "--out", str(tmp_path)])
    assert code == 0


def test_apply_subcommand_round_trip(tmp_path, rng):
    u = random_band_limited(1, 8, 50, rng)
    save_sparse(u, tmp_path / "u.json")
    save_symbol(identity_symbol(1), tmp_path / "id.json")
    code = main(
        [
            "apply",
            "--symbol",
            str(tmp_path / "id.json"),
            "--field",
            str(tmp_path / "u.json"),
            "--out-field",
            str(tmp_path / "out.json"),
        ]
    )
    assert code == 0
    assert load_sparse(tmp_path / "out.json").coeffs == u.coeffs


def test_apply_flip_through_files(tmp_path):
    _, a2 = ching_symbol(0.5, (2,), 5, 10)
    save_symbol(a2, tmp_path / "a2.json")
    w = lacunary_field((1,), 0.5, 5, 10, delta_field((0,)))
    save_sparse(w, tmp_path / "w.json")
    code = main(
        [
            "apply",
            "--symbol",
            str(tmp_path / "a2.json"),
            "--field",
            str(tmp_path / "w.json"),
            "--out-field",
            str(tmp_path / "out.json"),
        ]
    )
    assert code == 0
    out = load_sparse(tmp_path / "out.json")
    expected = lacunary_field((-1,), 0.0, 5, 10, delta_field((0,)))
    assert rel_coeff_diff(out, expected) <= 1e-12


def test_apply_modulate_zero_empties_high_frequencies(tmp_path):
    save_symbol(identity_symbol(1), tmp_path / "id.json")
    save_sparse(SparseField(1, {(100,): 1.0}), tmp_path / "hf.json")
    code = main(
        [
            "apply",
            "--symbol",
            str(tmp_path / "id.json"),
            "--field",
            str(tmp_path / "hf.json"),
            "--out-field",
            str(tmp_path / "out.json"),
            "--modulate",
            "0",
        ]
    )
    assert code == 0
    assert len(load_sparse(tmp_path / "out.json")) == 0


def test_apply_modulate_bounds_by_the_applied_symbol(tmp_path, capsys):
    # Xi is that of the modulated symbol, not of the 1,500-mode input symbol.
    f = SparseField(1, {(k,): 1.0 for k in range(1500)})
    save_symbol(multiplication_symbol(f), tmp_path / "a.json")
    save_sparse(f, tmp_path / "u.json")
    argv = ["apply", "--symbol", str(tmp_path / "a.json"), "--field", str(tmp_path / "u.json")]
    assert main([*argv, "--out-field", str(tmp_path / "o.json"), "--modulate", "0"]) == 0
    printed = capsys.readouterr().out
    assert "output modes: 3; support bound size: 3; containment: True" in printed


def test_negative_modulate_is_rejected_before_any_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    argv = ["apply", "--symbol", missing, "--field", missing, "--out-field", missing]
    assert main([*argv, "--modulate", "-1"]) == 2
    assert "--modulate must be >= 0" in capsys.readouterr().err


def test_apply_over_budget_exits_three(tmp_path):
    # 4000 x-part modes times 2501 input modes pass the 10^7 pair budget.
    f = SparseField(1, {(k,): 1.0 for k in range(4000)})
    save_symbol(multiplication_symbol(f), tmp_path / "a.json")
    save_sparse(SparseField(1, {(k,): 1.0 for k in range(2501)}), tmp_path / "u.json")
    argv = ["apply", "--symbol", str(tmp_path / "a.json"), "--field", str(tmp_path / "u.json")]
    for flags in ([], ["--modulate", "3"]):
        out = tmp_path / f"out{len(flags)}.json"
        assert main([*argv, "--out-field", str(out), *flags]) == 3
        assert not out.exists()


def _symbol_text(mult: dict, **top) -> str:
    xpart = {"n": 1, "coeffs": [{"xi": [0], "re": 1.0, "im": 0.0}]}
    return json.dumps({"d": 0.0, "n": 1, "terms": [{"xpart": xpart, "mult": mult}], **top})


def test_apply_parse_failure_exits_two(tmp_path):
    # Each input is malformed; none may be coerced, truncated or dropped.
    chi = {"lo": 0.75, "hi": 1.25, "plo": 0.9, "phi": 1.1, "kind": "exp", "zero_order": 0}
    profile = {"r": 1.1, "R": 2.0, "kind": "exp"}
    inputs = {
        "broken": "{not json",
        "unknown-kind": _symbol_text({"kind": "ballind"}),
        "fractional-j": _symbol_text({"kind": "corona", "j": 2.7, "chi": chi}),
        "bool-j": _symbol_text({"kind": "block", "j": True, "profile": profile}),
        "fractional-m": _symbol_text(
            {"kind": "modulated", "m": 1.5, "profile": profile, "inner": {"kind": "one"}}
        ),
        "missing-chi": _symbol_text({"kind": "corona", "j": 2}),
        "missing-profile": _symbol_text({"kind": "block", "j": 1}),
        "bad-profile": _symbol_text(
            {"kind": "block", "j": 1, "profile": {"r": 3.0, "R": 1.0, "kind": "exp"}}
        ),
        "fractional-symbol-n": _symbol_text({"kind": "one"}, n=1.9),
        "bool-symbol-n": _symbol_text({"kind": "one"}, n=True),
        "two-d-symbol-over-1d-xpart": _symbol_text({"kind": "one"}, n=2),
        "object-terms": _symbol_text({"kind": "one"}, terms={}),
        "string-terms": _symbol_text({"kind": "one"}, terms="ab"),
        "list-symbol": json.dumps([{"kind": "one"}]),
        "nan-order": _symbol_text({"kind": "one"}, d=math.nan),
        "string-mult": _symbol_text("ball"),
        "bool-radius": _symbol_text({"kind": "ball", "radius": True}),
        "negative-radius": _symbol_text({"kind": "ball", "radius": -3}),
        "huge-radius": _symbol_text({"kind": "ball", "radius": 7.5}).replace("7.5", "1e400"),
        "past-double-radius": _symbol_text({"kind": "ball", "radius": int(sys.float_info.max) + 1}),
        "string-chi-lo": _symbol_text({"kind": "corona", "j": 2, "chi": {**chi, "lo": "a"}}),
        "unknown-chi-kind": _symbol_text(
            {"kind": "corona", "j": 2, "chi": {**chi, "kind": "nosuch"}}
        ),
        "negative-zero-order": _symbol_text(
            {"kind": "corona", "j": 2, "chi": {**chi, "zero_order": -1}}
        ),
        "extra-profile-key": _symbol_text(
            {"kind": "block", "j": 1, "profile": {**profile, "h": 3}}
        ),
        "negative-m": _symbol_text(
            {"kind": "modulated", "m": -1, "profile": profile, "inner": {"kind": "one"}}
        ),
    }

    def apply_code(symbol, field, *flags):
        return main(
            [
                "apply",
                "--symbol",
                str(symbol),
                "--field",
                str(field),
                "--out-field",
                str(tmp_path / "o.json"),
                *flags,
            ]
        )

    save_sparse(delta_field((0,)), tmp_path / "u.json")
    for name, text in inputs.items():
        (tmp_path / f"{name}.json").write_text(text)
        code = apply_code(tmp_path / f"{name}.json", tmp_path / "u.json")
        assert code == 2, name

    def entry(xi, re=1.0):
        return {"xi": xi, "re": re, "im": 0.0}

    fields = {
        "fractional-xi": json.dumps({"n": 1, "coeffs": [entry([1.7])]}),
        "fractional-n": json.dumps({"n": 1.9, "coeffs": [entry([1])]}),
        "bool-xi": json.dumps({"n": 1, "coeffs": [entry([True])]}),
        "duplicate-xi": json.dumps({"n": 1, "coeffs": [entry([1]), entry([1], 2.0)]}),
        "nan-coefficient": json.dumps({"n": 1, "coeffs": [entry([1], math.nan)]}),
        "scalar-xi": json.dumps({"n": 1, "coeffs": [entry(5)]}),
        "scalar-coeffs": json.dumps({"n": 1, "coeffs": 5}),
        "string-re": json.dumps({"n": 1, "coeffs": [entry([1], "1.0")]}),
        "short-xi": json.dumps({"n": 2, "coeffs": [entry([1])]}),
        "three-d": json.dumps({"n": 3, "coeffs": [entry([1, 0, 0])]}),
        "scalar-entry": json.dumps({"n": 1, "coeffs": [5]}),
        "list-field": json.dumps([1, 2]),
        "huge-re": json.dumps({"n": 1, "coeffs": [entry([1], 10**400)]}),
        "huge-im": json.dumps({"n": 1, "coeffs": [{"xi": [1], "re": 0.0, "im": -(10**400)}]}),
        "past-double-re": json.dumps({"n": 1, "coeffs": [entry([1], int(sys.float_info.max) + 1)]}),
    }
    save_symbol(identity_symbol(1), tmp_path / "a.json")
    for name, text in fields.items():
        (tmp_path / f"{name}.json").write_text(text)
        code = apply_code(tmp_path / "a.json", tmp_path / f"{name}.json")
        assert code == 2, name

    save_sparse(delta_field((3,)), tmp_path / "d3.json")
    flag_sets = {
        "negative-modulate": ["--modulate", "-1"],
        "digit-three-modulate": ["--modulate=\u0663"],
        "null-modulate": ["--modulate", "null"],
        "abbreviated-modulate": ["--mod", "3"],
    }
    for name, flags in flag_sets.items():
        code = apply_code(tmp_path / "a.json", tmp_path / "d3.json", *flags)
        assert code == 2, name
    assert not (tmp_path / "o.json").exists()


def test_emit_plots_writes_scripts(tmp_path):
    code = main(
        ["run", "weierstrass", "--d", "0.5", "--J", "6", "--M", "4096",
         "--out", str(tmp_path), "--emit-plots"]
    )
    assert code == 0
    assert (tmp_path / "weierstrass" / "plot_weierstrass.py").exists()


# Every report's record of its parameters at the defaults, in signature order.
SUITE_PARAMS = {
    "partition-check": {"m": 8, "n_samples": 10000, "seed": 0},
    "unclosable": {"d": 0.0, "n_list": [5, 6, 7], "theta": [1]},
    "flip": {"d": [0.0, 0.5, 1.0], "j0": 5, "J": 20, "theta": [1], "with_2d": True},
    "weierstrass": {"d": [0.5, 1.0], "J": 12, "M": 32768, "p_list": [1.0, 2.0, 4.0]},
    "support": {"seed": 7, "trials": 500, "n_modes": 25},
    "composite": {
        "f": ["sin", "square"],
        "seed": 11,
        "M": 4096,
        "K": 7,
        "Q": 32,
        "s_list": [0.5, 1.0],
        "p_list": [2.0, 4.0],
        "delta_list": [0.1, 0.01, 0.001, 0.0001],
    },
    "continuity": {
        "seed": 23,
        "d": 0.0,
        "theta": [1],
        "n_list": [5, 6, 7, 8],
        "j_list": [10, 20, 30, 40],
        "trials": 6,
    },
    "product": {"seed": 3, "m_range": [0, 8], "trials": 40},
}


# SHA-256 of every CSV table of the suite, its file name then its bytes, in
# artifact order.
SUITE_CSV_SHA256 = "2b4f801ad6595674775cb4db667c533d85e91537de5fd0f6ae01a4abe05daeb9"


def test_suite_reports_match_summary(tmp_path):
    assert main(["suite", "--out", str(tmp_path), "--emit-plots"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [e["name"] for e in summary["experiments"]] == list(REGISTRY)
    h = hashlib.sha256()
    for entry in summary["experiments"]:
        name = entry["name"]
        # Order and types too: 0 is not 0.0 here.
        assert json.dumps(entry["params"]) == json.dumps(SUITE_PARAMS[name]), name
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert report == entry
        plot = Path(report["artifacts"][-1])
        assert plot.name == f"plot_{name}.py"
        assert plot.exists()
        for artifact in map(Path, report["artifacts"]):
            if artifact.suffix == ".csv":
                h.update(artifact.name.encode())
                h.update(artifact.read_bytes())
    assert h.hexdigest() == SUITE_CSV_SHA256


def test_stabilization_demo_script_runs():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "stabilization_demo.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: PASS" in proc.stdout


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "torspec.cli", "run", "support", "--trials", "20",
         "--out", "/tmp/torspec_cli_entry"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_assertion_failure_exits_one(tmp_path, monkeypatch):
    import torspec.cli as cli
    from torspec.experiments import ExperimentReport

    def failing():
        report = ExperimentReport("stub", {})
        report.check("always-fails", 1.0, 0.0)
        return report

    monkeypatch.setitem(cli.REGISTRY, "stub", failing)
    assert cli.main(["run", "stub", "--out", str(tmp_path)]) == 1
