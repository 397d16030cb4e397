"""One bounded fuzz of the command-line boundaries.

Malformed input arrives through the --field and --symbol files, the config
file and the run/partition-check/apply flags.  main runs in-process, so an
exception that escapes it fails the test; every exit code must be 0, 2 or 3
(the stubbed experiments below never fail an assertion), and a run that
does not exit with 0 must write nothing.  The dense .c64 file and its
sidecar, read by load_dense, are fuzzed outside the CLI.

The eight experiments are replaced by stubs with the same signatures and
the same parameter path (experiments.typed_param through the experiments'
decorator): every value is typed against the real parameters and must
arrive in the shape of its default, but a value that passes costs one small
report, not a whole experiment run.
"""

import argparse
import functools
import inspect
import json
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from torspec import cli, experiments
from torspec.cutoffs import default_families
from torspec.experiments import ExperimentReport
from torspec.fields import SparseField
from torspec.serialize import load_dense, save_sparse, save_symbol, symbol_to_json
from torspec.symbols import (
    Ball,
    Block,
    Corona,
    Modulated,
    One,
    RadialBump,
    SeparableSymbol,
    Term,
    identity_symbol,
)

FUZZ = settings(max_examples=100, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
# Any text: JSON of any shape, or not JSON at all.
texts = json_values.map(json.dumps) | st.text(max_size=24)


def _in_default_shape(value, default) -> bool:
    """A tuple of the default's element type for a tuple default, else its type."""
    if isinstance(default, tuple):
        return isinstance(value, tuple) and all(type(v) is type(default[0]) for v in value)
    return type(value) is type(default)


def _stub(fn):
    defaults = {key: p.default for key, p in inspect.signature(fn).parameters.items()}

    @functools.wraps(fn)
    def stub(**params):
        for key, value in params.items():
            assert _in_default_shape(value, defaults[key]), (fn.__name__, key, value)
        report = ExperimentReport(fn.__name__, params)
        report.check_flag("stub", True)
        return report

    return experiments._typed_params(stub)


@contextmanager
def _boundary():
    """A scratch directory, with every experiment stubbed."""
    stubs = {name: _stub(fn) for name, fn in cli.REGISTRY.items()}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(cli.REGISTRY, stubs):
        yield Path(tmp)


def _check(argv, written: Path) -> int:
    code = cli.main(argv)
    assert code in (0, 2, 3), (argv, code)
    if code != 0:
        assert not written.exists(), argv
    return code


def _write(path: Path, text: str) -> Path:
    # Lone surrogates stay in as bytes that are not UTF-8.
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return path


def _apply(tmp: Path, symbol: Path, field: Path, *flags) -> None:
    out = tmp / "out.json"
    _check(["apply", "--symbol", str(symbol), "--field", str(field),
            "--out-field", str(out), *flags], out)


def _field(tmp: Path) -> Path:
    return save_sparse(SparseField(1, {(0,): 1.0, (1,): 0.5, (3,): -2.0}), tmp / "u.json")


# A symbol with one term per multiplier kind, so every descriptor key is fuzzed.
_PROFILE = default_families()[0].profile
_XPART = SparseField(1, {(0,): 1.0, (2,): 0.5})
_SYMBOL = symbol_to_json(
    SeparableSymbol(0.5, 1, tuple(
        Term(_XPART, mult)
        for mult in (One(), Corona(RadialBump(), 2), Block(_PROFILE, 1), Ball(3.0),
                     Modulated(One(), 1, _PROFILE))
    ))
)


def _paths(node, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from _paths(value, (*prefix, key))


_SYMBOL_PATHS = list(_paths(_SYMBOL))
# The symbol sorts its terms: the index of each kind's term.
_TERM = {t["mult"]["kind"]: i for i, t in enumerate(_SYMBOL["terms"])}


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Valid JSON, 1,500 modulated multipliers deep: rebuilding them passes the
# recursion limit, also the one hypothesis raises to about 2,000 frames.
_HEAD, _TAIL = json.dumps(
    {**_SYMBOL["terms"][_TERM["modulated"]]["mult"], "inner": "@"}
).split('"@"')
_DEEP_SYMBOL = json.dumps(_replaced(_SYMBOL, ("terms", _TERM["modulated"], "mult"), "@")).replace(
    '"@"', _HEAD * 1500 + '{"kind": "one"}' + _TAIL * 1500
)


@FUZZ
@given(texts)
@example("[" * 100_000)  # nested past the recursion limit
def test_fuzz_field_file(text):
    with _boundary() as tmp:
        symbol = save_symbol(identity_symbol(1), tmp / "a.json")
        _apply(tmp, symbol, _write(tmp / "u.json", text))


@FUZZ
@given(texts)
@example(_DEEP_SYMBOL)
def test_fuzz_symbol_file(text):
    with _boundary() as tmp:
        _apply(tmp, _write(tmp / "a.json", text), _field(tmp))


@FUZZ
@given(st.sampled_from(_SYMBOL_PATHS), json_values)
# An index too large for a float must be refused at once, without building
# the integer 2^j; one below -1074 must not reach a division by 2^j = 0.0.
# 1023 is the largest index whose 2^j is a double.
@example(("terms", _TERM["corona"], "mult", "j"), 1023)
@example(("terms", _TERM["corona"], "mult", "j"), 1024)
@example(("terms", _TERM["block"], "mult", "j"), 1023)
@example(("terms", _TERM["block"], "mult", "j"), 1024)
@example(("terms", _TERM["modulated"], "mult", "m"), 1023)
@example(("terms", _TERM["modulated"], "mult", "m"), 1024)
@example(("terms", _TERM["corona"], "mult", "j"), 5000)
@example(("terms", _TERM["block"], "mult", "j"), 2**40)
@example(("terms", _TERM["modulated"], "mult", "m"), 2**40)
@example(("terms", _TERM["corona"], "mult", "j"), -2000)
@example(("terms", _TERM["block"], "mult", "j"), -2000)
def test_fuzz_symbol_keys(path, value):
    with _boundary() as tmp:
        text = json.dumps(_replaced(_SYMBOL, path, value))
        _apply(tmp, _write(tmp / "a.json", text), _field(tmp))


_PARAMS = {name: list(inspect.signature(fn).parameters) for name, fn in cli.REGISTRY.items()}
_CONFIG_KEYS = ["out", "emit_plots", "profile.main", "profile.new"] + [
    f"{name}.{param}" for name, params in _PARAMS.items() for param in params
]
config_lines = st.builds(
    lambda key, value: f"{key} = {value}",
    st.sampled_from(_CONFIG_KEYS) | st.text(max_size=12),
    texts,
) | st.text(max_size=24)


@FUZZ
@given(st.lists(config_lines, max_size=4))
@example(["flip.d = " + "[" * 100_000])
def test_fuzz_config_file(lines):
    with _boundary() as tmp:
        config = _write(tmp / "run.cfg", "\n".join(lines) + "\n")
        out = tmp / "runs"
        _check(["suite", "--config", str(config), "--out", str(out)], out)


def _param_flags(command: str) -> list[str]:
    """The flags the built parser gives command for experiment parameters."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = {param for params in _PARAMS.values() for param in params}
    actions = sub.choices[command]._actions
    return [flag for a in actions if a.dest in names for flag in a.option_strings]


# Every run flag with every experiment, and the partition-check shortcut's flags.
_FLAG_ARGVS = [["run", name, flag] for name in cli.REGISTRY for flag in _param_flags("run")] + [
    ["partition-check", flag] for flag in _param_flags("partition-check")
]


@FUZZ
@given(st.sampled_from(_FLAG_ARGVS), texts)
def test_fuzz_run_flags(argv, text):
    with _boundary() as tmp:
        out = tmp / "runs"
        *command, flag = argv
        _check([*command, f"{flag}={text}", "--out", str(out)], out)


# The config reader strips comments and splits lines; argparse reads the
# value -- of --flag=-- as no value at all (see test_double_dash_flag_value).
line_texts = texts.filter(lambda t: t != "--" and not any(c in t for c in "#\n\r"))


@FUZZ
@given(st.sampled_from([(name, p) for name, params in _PARAMS.items() for p in params]), line_texts)
@example(("partition-check", "m"), "\u0665")  # an Arabic-Indic digit 5
@example(("partition-check", "n_samples"), "1_00")
@example(("partition-check", "m"), "+3")
@example(("partition-check", "m"), " 3")
@example(("flip", "with_2d"), "True")
@example(("flip", "with_2d"), "False")
def test_flag_and_config_line_agree(pair, text):
    # A flag value is read and typed exactly as the config value of its key.
    name, param = pair
    with _boundary() as tmp:
        flag = "--" + param.replace("_", "-")
        config = _write(tmp / "run.cfg", f"{name}.{param} = {text}\n")
        by_flag = _check(["run", name, f"{flag}={text}", "--out", str(tmp / "a")], tmp / "a")
        by_line = _check(["run", name, "--config", str(config), "--out", str(tmp / "b")], tmp / "b")
        assert by_flag == by_line, (name, param, text)


def test_double_dash_flag_value():
    # argparse passes [] for --flag=--, past the type function: no
    # parameter takes an empty list, so every such flag is bad input.
    with _boundary() as tmp:
        for name, params in _PARAMS.items():
            for param in params:
                flag = "--" + param.replace("_", "-")
                out = tmp / "runs"
                assert _check(["run", name, f"{flag}=--", "--out", str(out)], out) == 2


@FUZZ
@given(texts)
@example("1024")  # the first index whose 2^m is no double
@example("2000")
@example("--")  # argparse passes [] past the type function
@example("null")  # a given null is no absent flag
@example("\u0663")  # an Arabic-Indic digit 3
def test_fuzz_modulate_flag(text):
    with _boundary() as tmp:
        symbol = save_symbol(identity_symbol(1), tmp / "a.json")
        _apply(tmp, symbol, _field(tmp), f"--modulate={text}")


# A sidecar of any text, or an object with "M" and "n" near the valid ones.
sidecars = texts | st.fixed_dictionaries({
    "M": st.integers(0, 4).map(lambda k: 2**k) | json_values,
    "n": st.sampled_from([1, 2]) | json_values,
}).map(json.dumps)


@FUZZ
@given(sidecars, st.binary(max_size=8 * 17))
# 5 bytes past two samples must not be dropped.
@example('{"M": 2, "n": 1}', bytes(8 * 2 + 5))
def test_fuzz_dense_files(sidecar, samples):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "g"
        _write(base.with_suffix(".json"), sidecar)
        base.with_suffix(".c64").write_bytes(samples)
        try:
            g = load_dense(base)
        except (ValueError, KeyError):
            return
        # Every byte became a sample, and there are M^n of them.
        assert g.samples.size == g.M**g.n and 8 * g.samples.size == len(samples)
