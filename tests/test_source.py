"""Source hygiene checks that need no linter: every import is used, every
private module-level function or class is referenced, only the command
line and the file formats name a file writer, only DenseField converts
grid samples, every scalar integer draw goes through
constructions.integer_draw, every scalar normal draw goes through
constructions.normal_sampler, only Multiplier.window bisects a support
window, only the named producers build derived fields, every experiment
applies the parameter rules, only fields.check_scale_index and the
partition-check window read the scale-index cap, and every name the
benchmark binds to still exists."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import torspec
import torspec.cli  # noqa: F401  (loads every module the benchmark wraps)
from torspec.fields import SparseField

PACKAGE = Path(torspec.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("import math\nfrom os import path, sep\n\nprint(path)\n")
    assert _unused_imports(tree) == ["math (line 1)", "sep (line 2)"]


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    # A private name counts as referenced when any module of the package
    # loads it, reads it as an attribute or imports it.
    defined = [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_every_private_helper_is_referenced():
    # A merge of two helpers cannot leave the old one behind.
    paths = sorted(PACKAGE.glob("*.py"))
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    assert _unreferenced_privates(trees) == []


def test_private_reference_check_sees_a_dead_helper():
    a = ast.parse("def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Gone:\n    pass\n")
    b = ast.parse("from a import _used\n\ndef public():\n    return _used()\n")
    assert _unreferenced_privates({"a.py": a, "b.py": b}) == ["a.py: _dead", "a.py: _Gone"]


def test_only_cli_and_serialize_name_a_writer():
    # The experiments compute; the command line writes what they return.
    writer = re.compile(r"\b(atomic_write_text|atomic_write_bytes|write_json)\b")
    naming = sorted(p.name for p in PACKAGE.glob("*.py") if writer.search(p.read_text()))
    assert naming == ["cli.py", "serialize.py"]


def _converted_dense_samples(tree: ast.Module) -> list[int]:
    # DenseField(...) calls whose arguments convert an array themselves:
    # DenseField.__post_init__ is the one place samples become complex128.
    def converts(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr == "astype":
            return True
        return node.func.attr == "asarray" and any(k.arg == "dtype" for k in node.keywords)

    def name(func: ast.AST) -> str:
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name(node.func) == "DenseField"
        and any(converts(sub) for arg in (*node.args, *node.keywords) for sub in ast.walk(arg))
    )


def test_only_dense_field_converts_grid_samples():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        sites = _converted_dense_samples(ast.parse(path.read_text(), filename=str(path)))
        if sites:
            found[path.name] = sites
    assert found == {}


def test_conversion_check_sees_every_explicit_conversion():
    # The six conversions the callers used to make before DenseField did.
    text = """
u = DenseField(1, M, (1.5 / sup) * u.samples.real.astype(np.complex128))
fu = DenseField(1, M, np.asarray(exact, dtype=np.complex128))
p = bessel_potential(DenseField(1, M, diff.astype(np.complex128)), s_list)
e = DenseField(u.n, M, env.astype(np.complex128))
out.append((DenseField(u.n, u.M, mk.astype(np.complex128)), k))
g = fields.DenseField(n, M, samples=raw.reshape((M,) * n).astype(np.complex128))
ok = DenseField(1, M, np.asarray(exact)) and np.asarray(x, dtype=float) and DenseField(1, M, w)
"""
    assert _converted_dense_samples(ast.parse(text)) == [2, 3, 4, 5, 6, 7]


def _scalar_integer_draws(tree: ast.Module) -> list[int]:
    # Lines that read .integers for anything but a sized call, outside
    # constructions.integer_draw: a scalar draw there, or a bound
    # rng.integers kept for later calls, skips the helper.
    sized = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "size" for k in node.keywords)
    }
    helper = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "integer_draw"
        for sub in ast.walk(node)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "integers"
        and id(node) not in sized
        and id(node) not in helper
    )


def test_scalar_integer_draws_go_through_the_helper():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        sites = _scalar_integer_draws(ast.parse(path.read_text(), filename=str(path)))
        if sites:
            found[path.name] = sites
    assert found == {}


def test_integer_draw_check_sees_a_scalar_draw():
    text = """
def integer_draw(rng):
    integers = rng.integers
    return lambda lo, hi: int(integers(lo, hi)) or int(rng.integers(lo, hi))
n = int(rng.integers(1, 5))
draw = rng.integers
xi = tuple(int(c) for c in rng.integers(-8, 9, size=n))
k = self.rng.integers(0, 3)
"""
    assert _scalar_integer_draws(ast.parse(text)) == [5, 6, 8]


def _scalar_normal_draws(tree: ast.Module) -> list[int]:
    # Lines that read .normal or .standard_normal for anything but a sized
    # call: a scalar draw, or a bound method kept for later calls, skips
    # numpy's C sampler that constructions.normal_sampler calls directly.
    sized = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(k.arg == "size" for k in node.keywords)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("normal", "standard_normal")
        and id(node) not in sized
    )


def test_scalar_normal_draws_go_through_the_sampler():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        sites = _scalar_normal_draws(ast.parse(path.read_text(), filename=str(path)))
        if sites:
            found[path.name] = sites
    assert found == {}


def test_normal_draw_check_sees_a_scalar_draw():
    text = """
coeffs[xi] = complex(rng.normal(), rng.normal())
normal = rng.standard_normal
z = 0.0 + self.rng.standard_normal()
direction = rng.normal(size=n)
vec = rng.normal(0.0, 2.0, size=(3, 2)) + rng.standard_normal(size=3)
w = rng.normal(0.0, 1.0)
"""
    assert _scalar_normal_draws(ast.parse(text)) == [2, 2, 3, 4, 7]


def _definitions_naming(trees: dict[str, ast.Module], names) -> list[str]:
    # "<module>.<definition>" for each module-level definition in which a
    # name or attribute satisfies names(str), nested functions counted in
    # theirs, a method as "<Class>.<method>", "<module>" for one outside any.
    def mentions(node: ast.AST) -> bool:
        return any(
            isinstance(name, str) and names(name)
            for sub in ast.walk(node)
            for name in (getattr(sub, "id", None), getattr(sub, "attr", None))
        )

    def definitions(tree: ast.Module):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    name = getattr(item, "name", None)
                    yield item, node.name if name is None else f"{node.name}.{name}"
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, getattr(node, "name", "<module>")

    return sorted(
        {
            f"{module}.{name}"
            for module, tree in trees.items()
            for node, name in definitions(tree)
            if mentions(node)
        }
    )


def _bisecting_definitions(trees: dict[str, ast.Module]) -> list[str]:
    # The definitions that name a bisect_* function or searchsorted.
    return _definitions_naming(
        trees, lambda name: name.startswith("bisect") or name == "searchsorted"
    )


def test_only_the_window_scans_bisect():
    # A term's support window lo <= |eta| <= hi is bisected in one place,
    # Multiplier.window: the sparse scans of apply, apply_with_support and a
    # modulation run's table, and the dense grid's unique radii, all call it.
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _bisecting_definitions(trees) == ["symbols.Multiplier.window"]


def test_bisection_check_sees_a_bisection_elsewhere():
    text = """
import bisect
from bisect import bisect_left, bisect_right

def _support_hits(ranked, lo):
    return bisect_left(ranked, lo)

def _window_values(ranked, hi):
    def inner():
        return bisect_right(ranked, hi)
    return inner()

class Table:
    find_lo = bisect_left

    def find(self, ranked, lo):
        return bisect.bisect_left(ranked, lo)

    def fine(self, ranked):
        return len(ranked)

find = bisect_left
"""
    dense = """
import numpy as np

def _radial_on_grid(uniq, lo):
    return int(np.searchsorted(uniq, lo, side="left"))

def fine(uniq):
    return np.unique(uniq)
"""
    trees = {"scans": ast.parse(text), "dense": ast.parse(dense)}
    assert _bisecting_definitions(trees) == [
        "dense._radial_on_grid",
        "scans.<module>",
        "scans.Table",
        "scans.Table.find",
        "scans._support_hits",
        "scans._window_values",
    ]


def _derived_builders(trees: dict[str, ast.Module]) -> list[str]:
    # The definitions that name fields._derived_field, which skips the
    # per-key checks of SparseField for keys its producer built itself.
    return _definitions_naming(trees, lambda name: name == "_derived_field")


def test_only_the_named_producers_build_derived_fields():
    # Lattice sums of stored keys, a field's own keys and draws in a window
    # are plain-int tuples by construction; a field built from any other
    # keys must go through SparseField's per-key checks.
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _derived_builders(trees) == [
        "constructions.random_band_limited",
        "cutoffs.ball_diff",
        "cutoffs.modulate",
        "fields._convolve",
        "operator._modulated_steps",
        "operator.apply",
        "operator.apply_with_support",
    ]


def test_derived_build_check_sees_a_call_elsewhere():
    fields = """
def _derived_field(n, coeffs):
    return SparseField(n, coeffs)

def _convolve(n, a, b):
    return _derived_field(n, lattice_sum([(a, list(b), list(b.values()))]))
"""
    loaders = """
from . import fields
from .fields import _derived_field

def read_field(n, raw):
    return _derived_field(n, {tuple(k): v for k, v in raw})

class Loader:
    def load(self, n, raw):
        return fields._derived_field(n, raw)

    def fine(self, n, raw):
        return SparseField(n, raw)

def step(n, raw):
    def inner():
        return _derived_field(n, raw)
    return inner()

build = _derived_field
"""
    trees = {"fields": ast.parse(fields), "loaders": ast.parse(loaders)}
    assert _derived_builders(trees) == [
        "fields._convolve",
        "loaders.<module>",
        "loaders.Loader.load",
        "loaders.read_field",
        "loaders.step",
    ]


def _experiments_outside_the_rules(tree: ast.Module) -> list[str]:
    # An exp_* function without @_typed_params skips the parameter rules, and
    # REGISTRY must list each exp_* function once and nothing else.
    defined = {
        node.name: [ast.unparse(dec) for dec in node.decorator_list]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("exp_")
    }
    registry = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["REGISTRY"]
    )
    listed = [ast.unparse(value) for value in registry.values]
    problems = [
        f"{name}: no @_typed_params" for name, dec in defined.items() if "_typed_params" not in dec
    ]
    problems += [f"{name}: not in REGISTRY" for name in defined if name not in listed]
    problems += [
        f"REGISTRY lists {name}"
        for name in sorted(set(listed))
        if listed.count(name) > 1 or name not in defined
    ]
    return sorted(problems)


def test_every_experiment_applies_the_parameter_rules():
    path = PACKAGE / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _experiments_outside_the_rules(tree) == []


def test_rules_check_sees_an_experiment_that_skips_them():
    text = """
@_typed_params
def exp_ok(seed: int = 0):
    pass

def exp_bare(seed: int = 0):
    pass

@functools.cache
def exp_other():
    pass

@_typed_params
def exp_unlisted():
    pass

def helper():
    pass

REGISTRY = {"ok": exp_ok, "bare": exp_bare, "other": exp_other, "again": exp_ok, "h": helper}
"""
    assert _experiments_outside_the_rules(ast.parse(text)) == [
        "REGISTRY lists exp_ok",
        "REGISTRY lists helper",
        "exp_bare: no @_typed_params",
        "exp_other: no @_typed_params",
        "exp_unlisted: not in REGISTRY",
    ]


def _cap_readers(trees: dict[str, ast.Module]) -> list[str]:
    # The module-level definitions that read the scale-index cap, by name or
    # as the literal 1023 or 1024, "<module>" for a read outside any; the
    # cap's own assignment and imports of it are no reads.
    def reads(node: ast.AST) -> bool:
        return any(
            (isinstance(sub, ast.Name) and sub.id == "MAX_MODULATION_INDEX")
            or (isinstance(sub, ast.Attribute) and sub.attr == "MAX_MODULATION_INDEX")
            or (isinstance(sub, ast.Constant) and type(sub.value) is int
                and sub.value in (1023, 1024))
            for sub in ast.walk(node)
        )

    def defines(node: ast.AST) -> bool:
        return isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [
            "MAX_MODULATION_INDEX"
        ]

    return sorted(
        f"{module}.{getattr(node, 'name', '<module>')}"
        for module, tree in trees.items()
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom)) and not defines(node) and reads(node)
    )


def test_only_the_scale_index_rule_reads_the_cap():
    # check_scale_index is the rule; partition-check's int64 sample window is
    # another limit, which only skips its 2^m past the cap.
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _cap_readers(trees) == ["experiments.exp_partition_check", "fields.check_scale_index"]


def test_cap_check_sees_a_copied_cap():
    fields = """
MAX_MODULATION_INDEX = 1023

def check_scale_index(k, name):
    if k > MAX_MODULATION_INDEX:
        raise ValueError(name)
"""
    copies = """
from . import fields
from .fields import MAX_MODULATION_INDEX

CAP = MAX_MODULATION_INDEX

def step(m):
    if m > 1023:
        raise ValueError("m")

class Run:
    def check(self, m):
        return m <= fields.MAX_MODULATION_INDEX

def scale(m):
    return 2.0**m if m < 1024 else None

def fine(m, flag=True):
    return 2.0**m
"""
    trees = {"fields": ast.parse(fields), "copies": ast.parse(copies)}
    assert _cap_readers(trees) == [
        "copies.<module>", "copies.Run", "copies.scale", "copies.step", "fields.check_scale_index"
    ]


def test_benchmark_bindings_resolve():
    # benchmarks/ is read here, never edited: its layer wrappers and its
    # workloads name torspec functions, so renaming one must fail a test.
    spec = importlib.util.spec_from_file_location("benchmark_layers", BENCHMARKS / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers._targets()
    assert [name for name, _, sites in targets if not sites] == []
    # The construction wrapper calls __post_init__ with the field alone.
    assert str(inspect.signature(SparseField.__post_init__)) == "(self)"
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    aliases = {
        alias.asname or alias.name: getattr(torspec, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "torspec"
        for alias in node.names
    }
    named = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    assert len(named) > 10
    assert sorted(f"{m}.{a}" for m, a in named if not hasattr(aliases[m], a)) == []
