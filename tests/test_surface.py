"""Public surface: every public name of the library modules is listed in
``__all__`` and is needed by something other than its own tests, and so
is every public method and property of the classes listed there.

A name counts as used where the package itself refers to it, where an
acceptance criterion does, or where the benchmark's kernel and oracle
workloads call it by name; a method or property counts as used where one
of them reads it as an attribute. A function kept alive only by its own
unit tests fails here.

Two structural guards hold each triangle to one row source: the Stirling
step is taken only by the row source and the band, and ``oeis`` reads no
built triangle.  A third keeps every ``FAMILIES`` field a function of its
own, because the benchmark's tracer names its wrapper after the field and
its self-check matches call counts to cProfile's by code object.  A
fourth keeps as dataclasses only the records that the benchmark's digest
or tracer inspects as dataclasses, since each one costs the cold start.
"""

import ast
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bellnum"
MODULES = ("exact", "asymptotic", "distributions", "partitions", "oeis")
# the benchmark's request keys ("bell_numbers 60", ...) name the functions it calls
WORKLOADS = ROOT / "perfbench" / "workloads.py"
USERS = [*sorted(PACKAGE.glob("*.py")), ROOT / "tests" / "test_acceptance.py", WORKLOADS]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined(tree: ast.Module) -> tuple[list[str], set[str]]:
    """(``__all__``, the public functions, classes and constants at top level)."""
    listed: list[str] = []
    public: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                listed = [ast.literal_eval(e) for e in node.value.elts]
                continue
        else:
            continue
        public.update(n for n in names if not n.startswith("_"))
    return listed, public


def _methods(tree: ast.Module, listed: list[str]) -> list[tuple[str, str]]:
    """(class, name) for the public methods and properties of the listed classes."""
    return [(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in listed
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def _attributes(path: Path) -> set[str]:
    """Attribute names a file reads (``x.name``, ``x.name()``)."""
    return {node.attr for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _references(path: Path) -> set[str]:
    """Names a file reads, bare or as attributes; assignments, definitions,
    ``__all__`` strings, docstrings and comments are not references."""
    refs = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif (path == WORKLOADS and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.split()):
            refs.add(node.value.split()[0])
    return refs


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_the_public_names_and_each_has_a_user(module):
    listed, public = _defined(_tree(PACKAGE / f"{module}.py"))
    assert sorted(listed) == sorted(public), "__all__ differs from the public names"
    used = set().union(*map(_references, USERS))
    unused = [name for name in listed if name not in used]
    assert not unused, f"no caller outside their own tests: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_public_methods_each_have_a_user(module):
    tree = _tree(PACKAGE / f"{module}.py")
    listed, _ = _defined(tree)
    read = set().union(*map(_attributes, USERS))
    unused = [f"{cls}.{name}" for cls, name in _methods(tree, listed) if name not in read]
    assert not unused, f"no caller outside their own tests: {unused}"


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The functions and methods of a module that call ``name`` by bare name."""
    return {func.name for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name}


def test_stirling_rows_are_built_in_one_place():
    # the band cuts each row as it builds it; every other Stirling row
    # comes from the one row source
    assert _callers(_tree(PACKAGE / "exact.py"), "_stirling_next") == {
        "_stirling_rows", "_stirling_band"}


def test_oeis_streams_the_row_sources():
    # the linear readers read exact's row sources and the row formulas of
    # distributions, never a built triangle or distribution
    builders = {"stirling_signed_rows", "matsunaga_rows", "b_table_rows", "arima_rows",
                "row_pmf"}
    assert not builders & _references(PACKAGE / "oeis.py")


def test_family_fields_are_functions_of_their_own():
    # a functools.partial has no __code__ or __name__, and lambdas made in
    # one loop share a code object, so cProfile would count them as one
    from bellnum.distributions import FAMILIES

    fields = [getattr(fam, f) for fam in FAMILIES.values()
              for f in ("build", "mu_asym", "sigma2_asym")]
    assert all(isinstance(fn, types.FunctionType) for fn in fields)
    assert len({fn.__code__ for fn in fields}) == len(fields) == 3 * len(FAMILIES)


def test_dataclasses_are_only_the_ones_the_benchmark_inspects():
    """Creating a dataclass execs its generated methods, 0.3-0.55 ms of
    every cold start each, so a record is a NamedTuple unless something
    outside the package inspects it as a dataclass.  Five are:

    - ``TriangleTable``, ``HornerTrace``, ``PartitionShape`` (exact) and
      ``PartitionStats`` (partitions): the benchmark's digest hashes the
      kernel's and the oracle's results through ``dataclasses.is_dataclass``
      and ``dataclasses.fields``;
    - ``LLTFamily`` (distributions): the benchmark's tracer rebinds each
      family's fields with ``dataclasses.replace``.
    """
    kept = {"exact.TriangleTable", "exact.HornerTrace", "exact.PartitionShape",
            "partitions.PartitionStats", "distributions.LLTFamily"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                found.add(f"{path.stem}.{node.name}")
    assert found == kept, (
        "a record that no digest or tracer inspects as a dataclass is a NamedTuple; "
        "a new one the benchmark inspects joins this test's docstring")
