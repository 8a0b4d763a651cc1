"""The package's public names: `__all__`, the lazy name table behind it,
the modules each CLI entry path loads, the private names its comments
and docstrings cite, and the integer arguments that every module checks
through `_integer`."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import maskcheck as mc


def test_all_names_resolve():
    assert [name for name in mc.__all__ if not hasattr(mc, name)] == []
    assert len(set(mc.__all__)) == len(mc.__all__)


def test_public_imports_are_exported():
    """Every name of `__all__` but the version has an entry in the lazy
    table and every entry is exported; each entry's module defines the
    name, and `dir` lists every exported name."""
    assert set(mc._HOME) == set(mc.__all__) - {"__version__"}
    for name, home in mc._HOME.items():
        module = importlib.import_module(f"maskcheck.{home}")
        assert hasattr(module, name), (home, name)
        value = getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert set(mc.__all__) <= set(dir(mc))


# Each CLI entry path, run in a fresh process: the maskcheck submodules it
# loads and which of hashlib, fractions, dataclasses and inspect (which
# dataclasses imports).  numpy is allowed for the other subcommands;
# census, bounds, bias and the paths that run none must leave it unloaded.  Only
# the subcommands that print a marginal or wire table load the renderer, and
# only bias, bounds, urem-check, witness and butterfly load their handlers.
DC = "dataclasses inspect"
ENTRY_PATHS = [
    (["--version"], "cli", ""),
    (["--help"], "cli", ""),
    (["urem-check", "--q", "7", "--seed", "-1"], "cli", ""),  # a usage error
    (["census", "--q", "3"], "census cli", ""),
    (["classify", "{wire}"], "_render _steps cli wires zq", DC),
    (["witness", "--q", "3"], "_commands _steps cli wires zq", DC),
    (["butterfly", "--q", "2"], "_commands _steps butterfly cli wires zq", DC),
    (["bias", "--n", "16", "--q", "5"], "_commands cli rngbias", "fractions"),
    (["bounds", "--q", "5", "--w", "8"], "_commands bitvec cli", DC),
    (["urem-check", "--q", "7", "--w", "8", "--samples", "5"], "_commands _steps bitvec cli",
     f"hashlib {DC}"),
]

ENTRY_SCRIPT = """
import json, sys
from maskcheck.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m.partition(".")[2] for m in sys.modules
                               if m.startswith("maskcheck.")),
                  [m for m in ("hashlib", "fractions", "dataclasses", "inspect")
                   if m in sys.modules],
                  "numpy" in sys.modules,
                  [m for m in sys.modules
                   if m.partition(".")[0] in ("concurrent", "multiprocessing")]]))
"""


def test_cli_import_loads_no_pool_machinery(tmp_path):
    """Each CLI entry path imports only the modules its subcommand calls,
    and none loads concurrent.futures or multiprocessing: the loader and
    the dense analysis run their threads through `_steps.in_threads`."""
    wire = tmp_path / "wire.json"
    wire.write_text('{"q": 2, "alphabet": 2, "order": "s0_major", "table": [0, 1, 1, 0]}')
    src = Path(mc.__file__).resolve().parent.parent
    for argv, modules, others in ENTRY_PATHS:
        argv = [arg.format(wire=wire) for arg in argv]
        proc = subprocess.run([sys.executable, "-c", ENTRY_SCRIPT, *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
        assert proc.returncode == 0, proc.stderr
        code, loaded, extra, numpy, pools = json.loads(proc.stdout.splitlines()[-1])
        assert code == (2 if "-1" in argv else 0), (argv, proc.stderr)
        assert (loaded, extra, pools) == (modules.split(), others.split(), []), argv
        if code or argv[0] in ("--version", "--help", "census", "bounds", "bias"):
            assert not numpy, argv


@pytest.mark.parametrize("argv", [["bias", "--n", "16", "--q", "5"], ["classify", "{wire}"]])
def test_module_run_imports_cli_once(tmp_path, argv):
    """`python -m maskcheck.cli` runs its handlers against the running
    module: `maskcheck.cli` is never imported as a second copy."""
    wire = tmp_path / "wire.json"
    wire.write_text('{"q": 2, "alphabet": 2, "order": "s0_major", "table": [0, 1, 1, 0]}')
    argv = [arg.format(wire=wire) for arg in argv]
    src = Path(mc.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "maskcheck.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "maskcheck.cli" not in imported and "maskcheck" in imported
    assert proc.stdout


# Each library call, run in a fresh process after `import maskcheck`: the
# maskcheck submodules it loads, and the other modules it must leave
# unloaded.  Ring arithmetic loads no numpy, and writing a wire file loads
# neither the CLI nor argparse.
LIBRARY_CALLS = [
    pytest.param("""
m = mc.Modulus(3329)
x, s1 = m.element(5), mc.ZqElement(3000, m)
assert (x * s1 + x).value == 1689 and mc.arith_reparam_round_trip(x, s1)
assert (mc.BitWord(8, 5) ^ mc.BitWord(8, 3)).bits == 6
""", "zq", "numpy", id="ring-arithmetic"),
    pytest.param("mc.save_wire(mc.t6_witness(3), sys.argv[1])",
                 "_render _steps wires zq", "argparse", id="save_wire"),
]

LIBRARY_SCRIPT = """
import json, sys
import maskcheck as mc
{call}
print(json.dumps([sorted(m.partition(".")[2] for m in sys.modules
                         if m.startswith("maskcheck.")), sorted(sys.modules)]))
"""


@pytest.mark.parametrize("call,modules,unloaded", LIBRARY_CALLS)
def test_library_calls_load_only_their_layers(tmp_path, call, modules, unloaded):
    """A library call imports the layers it calls and none above them."""
    src = Path(mc.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", LIBRARY_SCRIPT.format(call=call),
                           str(tmp_path / "wire.json")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, everything = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == modules.split()
    assert [m for m in unloaded.split() if m in everything] == []


def test_threads_start_in_steps_alone():
    """Only `_steps` imports threading, so every thread, lock and in-flight
    bound of the package is set in one module."""
    importers = []
    for path in sorted(Path(mc.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.partition(".")[0] == "threading" for name in names):
                importers.append(path.name)
    assert importers == ["_steps.py"]


def test_marginals_are_counted_by_bincount_alone():
    """No module calls `np.add.at`: every marginal count of the package is
    a `np.bincount`, a step at a time."""
    calls = []
    for path in sorted(Path(mc.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "at"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "add"):
                calls.append((path.name, node.lineno))
    assert calls == []


def test_integer_arguments_have_one_rule():
    """`_integer` is the one rule for an integer argument: no module
    imports `numbers`, and only `__init__` calls `operator.index` or asks
    `isinstance(..., bool)`."""
    uses = []
    for path in sorted(Path(mc.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                names = ["isinstance-bool" for kind in kinds
                         if isinstance(kind, ast.Name) and kind.id == "bool"]
            else:
                continue
            uses += [(path.name, name) for name in names
                     if name.partition(".")[0] == "numbers"
                     or name in ("operator.index", "isinstance-bool")]
    assert sorted(uses) == [("__init__.py", "isinstance-bool"),
                            ("__init__.py", "operator.index")]


def test_only_wire_function_touches_an_instance_dict():
    """Only `WireFunction`'s methods read or write an instance `__dict__`:
    the marginal pass stores the analysis that `_analysis` caches on the
    wire itself, so that cache has one owner."""
    uses = []
    for path in sorted(Path(mc.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "WireFunction"
                 for node in ast.walk(cls)}
        uses += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "__dict__"
                 and id(node) not in owned]
    assert uses == []


# The private methods of every NamedTuple, which no module of the package defines.
NAMEDTUPLE_API = {"_replace", "_make", "_asdict", "_fields"}


def test_cited_private_names_exist():
    """Every private name in backticks in a module, a test or the README,
    alone or after a module's name, is a def, a class, an assignment
    target, an argument, an attribute store or a module stem of the
    package, so that no comment cites a name the code no longer has."""
    src = Path(mc.__file__).resolve().parent
    defined = set(NAMEDTUPLE_API)
    for path in src.glob("*.py"):
        defined.add(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
    private = re.compile(r"(?<!\w)_[A-Za-z0-9]\w*")  # not a dunder
    stale = []
    tests = Path(__file__).parent
    for path in sorted([*src.glob("*.py"), *tests.glob("*.py"), tests.parent / "README.md"]):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for span in re.findall(r"`([^`]+)`", line):
                stale += [f"{path.name}:{n}: {name}" for name in private.findall(span)
                          if name not in defined]
    assert stale == []


def one_stage():
    return [mc.ButterflyStage(mc.ZqElement(1, mc.Modulus(3)))]


def t6_q3():
    return mc.t6_witness(3)


# Each library call that once took a float or a bool as an integer: it
# truncated it, stored it, or failed later with another error.
NOT_INTEGERS = [
    pytest.param("q", lambda: mc.Modulus(2.5), id="Modulus-q-float"),
    pytest.param("q", lambda: mc.Modulus(True), id="Modulus-q-bool"),
    pytest.param("q", lambda: mc.make_wire(2.0, [0, 1, 1, 0]), id="make_wire-q-float"),
    pytest.param("q", lambda: mc.t6_witness(3.0), id="t6_witness-q-float"),
    pytest.param("value", lambda: mc.ZqElement(1.5, mc.Modulus(5)), id="ZqElement-value-float"),
    pytest.param("width", lambda: mc.BitWord(2.5, 1), id="BitWord-width-float"),
    pytest.param("width", lambda: mc.BitWord(True, 1), id="BitWord-width-bool"),
    pytest.param("bits", lambda: mc.BitWord(1, True), id="BitWord-bits-bool"),
    pytest.param("s1", lambda: mc.arith_reparam_is_bijection(5, 1.5),
                 id="arith_reparam_is_bijection-s1-float"),
    pytest.param("secret", lambda: mc.marginal_histogram(t6_q3(), 1.7),
                 id="marginal_histogram-secret-float"),
    pytest.param("secret", lambda: mc.translation_bijection_check(t6_q3(), 1.2, 2),
                 id="translation_bijection_check-secret-float"),
    pytest.param("q", lambda: mc.run_census(True), id="run_census-q-bool"),
    pytest.param("parallelism", lambda: mc.run_census(2, parallelism=1.5),
                 id="run_census-parallelism-float"),
    pytest.param("q", lambda: mc.classify_packed(2.0, [0]), id="classify_packed-q-float"),
    pytest.param("q", lambda: mc.constant_marginal_count_formula(True),
                 id="constant_marginal_count_formula-q-bool"),
    pytest.param("wire_index", lambda: mc.index_to_wire(2, True), id="index_to_wire-index-bool"),
    pytest.param("wire_index", lambda: mc.packed_verdict(2, True), id="packed_verdict-index-bool"),
    pytest.param("wire_index", lambda: mc.spot_check(2, 1.0), id="spot_check-index-float"),
    pytest.param("q", lambda: mc.conjecture_sweep(3.0, 1), id="conjecture_sweep-q-float"),
    pytest.param("n_stages", lambda: mc.conjecture_sweep(2, True),
                 id="conjecture_sweep-stages-bool"),
    pytest.param("x", lambda: mc.no_overflow_bounds(5, True, 2), id="no_overflow_bounds-x-bool"),
    pytest.param("s1", lambda: mc.urem_reparam(mc.WidthConfig(5, 8), 1, 0.5),
                 id="urem_reparam-s1-float"),
    pytest.param("s0", lambda: mc.urem_recombine(mc.WidthConfig(5, 8), 2.5, 1),
                 id="urem_recombine-s0-float"),
    pytest.param("x", lambda: mc.urem_reparam(mc.WidthConfig(5, 8), np.array([1.5, 2.0]), 0),
                 id="urem_reparam-x-float-array"),
    pytest.param("x", lambda: mc.urem_reparam(mc.WidthConfig(5, 8), np.array([True, False]), 0),
                 id="urem_reparam-x-bool-array"),
    pytest.param("x", lambda: mc.urem_reparam(mc.WidthConfig(5, 8), np.array(["1", "2"]), 0),
                 id="urem_reparam-x-str-array"),
    pytest.param("x", lambda: mc.urem_reparam(mc.WidthConfig(5, 8),
                                              np.array([1.5], dtype=object), 0),
                 id="urem_reparam-x-float-object-array"),
    pytest.param("s1", lambda: mc.urem_reparam(mc.WidthConfig(5, 8), 1,
                                               np.array([True], dtype=object)),
                 id="urem_reparam-s1-bool-object-array"),
    pytest.param("s0", lambda: mc.urem_recombine(mc.WidthConfig(5, 8),
                                                 np.array([2, "1"], dtype=object), 1),
                 id="urem_recombine-s0-str-object-array"),
    pytest.param("s0", lambda: mc.urem_recombine(mc.WidthConfig(5, 8), np.array([2.5]), 1),
                 id="urem_recombine-s0-float-array"),
    pytest.param("x", lambda: mc.no_overflow_bounds(5, np.array([1.5]), 0),
                 id="no_overflow_bounds-x-float-array"),
    pytest.param("alphabet_size", lambda: mc.make_wire(2, [0, 1, 1, 0], alphabet_size=2.5),
                 id="make_wire-alphabet-float"),
    pytest.param("alphabet_size", lambda: mc.make_wire(2, [0, 1, 1, 0], alphabet_size=True),
                 id="make_wire-alphabet-bool"),
    pytest.param("q", lambda: mc.WidthConfig(5.5, 8), id="WidthConfig-q-float"),
    pytest.param("width", lambda: mc.WidthConfig(5, 8.0), id="WidthConfig-width-float"),
    pytest.param("width", lambda: mc.WidthConfig(5, True), id="WidthConfig-width-bool"),
    pytest.param("twiddle", lambda: mc.conjecture_sweep(3, 1, twiddle_set=(1.5,)),
                 id="conjecture_sweep-twiddle-float"),
    pytest.param("fixed_context", lambda: mc.extract_wire_function(
        one_stage(), "s0.c0", "a", [(1.7, 0.2)]), id="extract_wire_function-context-float"),
    pytest.param("n_values", lambda: mc.bias_profile(True, 5), id="bias_profile-n-bool"),
    pytest.param("q", lambda: mc.bias_profile(16, True), id="bias_profile-q-bool"),
    pytest.param("q", lambda: mc.classify_cells_bulk(2.0, np.zeros((1, 4))),
                 id="classify_cells_bulk-q-float"),
    pytest.param("q", lambda: mc.classify_cells_bulk(True, np.zeros((1, 1), dtype=np.int64)),
                 id="classify_cells_bulk-q-bool"),
]


@pytest.mark.parametrize("name,call", NOT_INTEGERS)
def test_non_integer_argument_is_refused(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


def test_numpy_integers_are_integers():
    assert mc.make_wire(2, [0, 1, 1, 0], alphabet_size=np.uint8(2)).alphabet_size == 2
    assert mc.WidthConfig(np.int64(5), np.int64(8)).admissible
    assert mc.conjecture_sweep(3, 1, twiddle_set=(np.int64(4),)).twiddle_set == (1,)
    wire = mc.extract_wire_function(one_stage(), "s0.c0", "a", [(np.int64(1), np.int8(0))])
    assert wire.table.tolist() == mc.extract_wire_function(
        one_stage(), "s0.c0", "a", [(1, 0)]).table.tolist()
    profile = mc.bias_profile(np.int64(16), np.uint16(5))
    assert profile == mc.bias_profile(16, 5) and type(profile.n_values) is int


def test_numpy_integers_are_kept_as_ints():
    """Each record stores the int `_integer` returns, so no numpy scalar
    reaches fixed-width arithmetic: every stored field is an int, and each
    result that once wrapped is exact."""
    m = mc.Modulus(np.int64(2**61 - 1))
    element = mc.ZqElement(np.int64(2**60), m)
    word = mc.BitWord(np.uint8(4), np.int64(3))
    cfg = mc.WidthConfig(np.int64(5), np.int64(100))
    wire = mc.make_wire(np.int64(2), [0, 1, 1, 0], alphabet_size=np.uint8(2))
    sweep = mc.conjecture_sweep(np.int64(2), np.int64(1))
    spot = mc.spot_check(np.int64(2), np.uint8(9))
    stored = [m.q, element.value, word.width, word.bits, cfg.q, cfg.width, wire.q,
              wire.alphabet_size, mc.run_census(np.int64(2)).q, sweep.q, sweep.n_stages,
              spot.q, spot.wire_index]
    assert [type(v).__name__ for v in stored] == ["int"] * len(stored)
    assert (element * element).value == 576460752303423488  # 2^120 = 2^59 mod 2^61 - 1
    assert cfg.admissible and mc.WidthConfig(np.int64(2**40), np.int64(64)).admissible
    assert json.loads(json.dumps(mc.wire_to_dict(wire)))["alphabet"] == 2
    assert mc.marginal_histogram(t6_q3(), np.int64(1)).tolist() == [2, 1]


class Index:
    """An integer only through `__index__`, as `_integer` reads it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_index_objects_are_read_as_their_int():
    """A secret or a mask is used as the int `_integer` returns, not as
    the object passed in, which supports no arithmetic or comparison."""
    w = t6_q3()
    assert mc.marginal_histogram(w, Index(1)).tolist() == [2, 1]
    assert mc.translation_bijection_check(w, Index(1), Index(2))
    assert mc.arith_reparam_is_bijection(5, Index(2))


def test_numpy_word_operands_do_not_wrap():
    """Scalar word operands, and the numpy ints of an object array, are
    read as ints; an int array keeps its min/max scan.  Each result here
    wraps in int64.  The object array passed in is left as it is."""
    cfg = mc.WidthConfig(2**62 + 1, 64)
    s0 = mc.urem_reparam(cfg, np.int64(2**62), np.int64(0))
    assert (s0, type(s0)) == (4611686018427387904, int)
    assert mc.urem_recombine(cfg, np.int64(2**62), np.int64(2**62)) == 2**62 - 1
    assert mc.no_overflow_bounds(np.int64(2**62 + 1), np.int64(2**62), np.int64(0)) == (
        True, True)
    assert mc.urem_reparam(mc.WidthConfig(5, 8), np.array([4, 0]), 1).tolist() == [3, 4]
    x = np.array([np.int64(2**62), 0], dtype=object)
    s0 = mc.urem_reparam(cfg, x, np.array([0, np.uint64(2**62)], dtype=object))
    assert s0.tolist() == [2**62, 1] and [type(v) for v in s0] == [int, int]
    assert type(x[0]) is np.int64


def test_numpy_alphabet_meets_the_cell_cap():
    """A uint16 alphabet is refused at the cap as its int is, before a
    table is read or tabulated (the cap's product wrapped in uint16)."""
    def never(s0, s1):
        raise AssertionError("tabulated past the cap")

    refusals = []
    for alphabet in (65535, np.uint16(65535)):
        for build in (lambda: mc.make_wire(2048, [], alphabet_size=alphabet),
                      lambda: mc.wire_from_fn(2048, never, alphabet_size=alphabet)):
            with pytest.raises(ValueError) as refused:
                build()
            refusals.append(str(refused.value))
    assert refusals == ["q=2048 with alphabet 65535 needs 134215680 table cells, "
                        "above cap 67108864"] * 4


def test_table_entries_keep_their_own_rule():
    """`wire_from_fn` tabulates what `fn` returns: the table gate refuses a
    float entry, which was once truncated, and counts a bool as an integer."""
    with pytest.raises(ValueError, match="^table entry 0.7 at index 0 is not an integer$"):
        mc.wire_from_fn(2, lambda s0, s1: 0.7 + s0)
    assert mc.wire_from_fn(2, lambda s0, s1: s0 == s1).table.tolist() == [1, 0, 0, 1]
