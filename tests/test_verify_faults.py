"""Every verify check fails under a one-point fault: one table, one runner.

Each row corrupts one route that its check reads, on one side of the
check's comparison, and lists every FAIL line that verify must then
print: the check's own line and that of every other check the fault
reaches.  Every other line prints as on correct code.  The meta-test
refuses a check of ``cli.SUITES`` with no row, so a new check has to
arrive with a way to fail.  Three kinds of fault: ``off``, a route off at
one point; ``prefix``, an entry of a growing prefix off; ``stats``, a
``PartitionStats`` field off.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
from fractions import Fraction
from itertools import islice
from math import factorial
from typing import Callable, NamedTuple

import pytest

from bellnum import cli, distributions, exact, partitions

MODULES = {"cli": cli, "exact": exact, "partitions": partitions}


class Fault(NamedTuple):
    route: str  # the route corrupted, and where
    apply: Callable[[pytest.MonkeyPatch], None]


class Row(NamedTuple):
    check: str  # the start of the check's name
    fault: Fault
    verify: str  # suite and N
    fails: list[str]  # every FAIL line, in the order verify prints them


def bump(i: int, by: int = 1) -> Callable:
    """Entry i of a list or tuple moved by ``by``."""
    return lambda seq: type(seq)(v + by * (j == i) for j, v in enumerate(seq))


def bump_entry(n: int, k: int, by: int = 1) -> Callable:
    """Entry (n, k) of a ``TriangleTable`` moved by ``by``."""

    def fault(table: exact.TriangleTable) -> exact.TriangleTable:
        rows = list(table.rows)
        rows[n - table.n_min] = bump(k - table.k_min, by)(rows[n - table.n_min])
        return dataclasses.replace(table, rows=tuple(rows))

    return fault


def add_mass(k: int) -> Callable:
    """One unit of mass added at entry k of a ``DiscretePMF``."""
    return lambda pmf: pmf._replace(weights=bump(k)(pmf.weights), total=pmf.total + 1)


def _change(fault: int | Callable) -> tuple[Callable, str]:
    """A callable fault maps the value; an int fault is added to it."""
    return (fault, "") if callable(fault) else ((lambda v: v + fault), f"+{fault}")


def off(route: str, bad: tuple, fault: int | Callable) -> Fault:
    """``route`` (``module.name``, ``FAMILIES.<family>`` for its build, or
    ``_ROWS.<key>`` for a row formula of distributions) off at the
    arguments ``bad``."""
    owner, name = route.split(".")
    change, shown = _change(fault)

    def at_bad(real: Callable) -> Callable:
        return lambda *args: change(real(*args)) if args == bad else real(*args)

    def apply(monkeypatch: pytest.MonkeyPatch) -> None:
        if owner == "FAMILIES":
            fam = cli.FAMILIES[name]
            monkeypatch.setitem(cli.FAMILIES, name, dataclasses.replace(fam, build=at_bad(fam.build)))
        elif owner == "_ROWS":
            first, k_min, row = distributions._ROWS[name]
            monkeypatch.setitem(distributions._ROWS, name, (first, k_min, at_bad(row)))
        else:
            monkeypatch.setattr(MODULES[owner], name, at_bad(getattr(MODULES[owner], name)))

    # a shape shows as its counts, to keep the test's name short
    point = ", ".join(repr(getattr(a, "counts", a)) for a in bad)
    return Fault(f"{route}({point}){shown}", apply)


def prefix(name: str, at: int | tuple[int, int], upto: int, fault: int | Callable = 1) -> Fault:
    """Entry ``at`` of the prefix ``name`` (``betas``, ``bells``, or
    ``matsunaga`` with ``at`` = (n, k)) off once the prefix is built to
    ``upto``: every entry built later derives from it."""
    change, shown = _change(fault)

    def apply(monkeypatch: pytest.MonkeyPatch) -> None:
        live = getattr(exact._PREFIX, f"{name}_upto")(upto)
        if name == "matsunaga":
            n, k = at
            live[n - 1] = (*live[n - 1][:k - 1], change(live[n - 1][k - 1]), *live[n - 1][k:])
        else:
            live[at] = change(live[at])

    return Fault(f"prefix {name}{list(at) if name == 'matsunaga' else [at]}{shown}", apply)


def stats(n: int, field: str, fault: int | Callable) -> Fault:
    """Field ``field`` of ``collect_stats(n)`` off."""
    change, shown = _change(fault)

    def replace(st: partitions.PartitionStats) -> partitions.PartitionStats:
        return dataclasses.replace(st, **{field: change(getattr(st, field))})

    return Fault(f"collect_stats({n}).{field}{shown}",
                 off("partitions.collect_stats", (n,), replace).apply)


# M[7,7] + 1: row 7 no longer sums to zero, rows 8 on inherit the fault, and
# 7! no longer divides the Horner sum at 7
MATSUNAGA_7_7 = prefix("matsunaga", (7, 7), 7)

ROWS = [
    Row("matsunaga row sums zero", MATSUNAGA_7_7, "identities 12", [
        "FAIL: matsunaga row sums zero (n<=12) [first counterexample n=7]",
        "FAIL: matsunaga diagonal equals beta [first counterexample n=7]",
        "FAIL: sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<=12) [first counterexample n=7]",
        "FAIL: sum form equals recurrence triangle (n<=12) [first counterexample (n,k)=(7, 7)]",
        "FAIL: alternating |M| formula, exception exactly (3,1) (n<=12) [violated at (n,k)=(7, 7)]",
        "FAIL: closed P_n(v) equals direct P_n(v) on rational grid [first counterexample (n,v)=(7, Fraction(1, 1))]",
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [raised at n=7: inner sum not divisible by 7! at n=7]",
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=12) [first counterexample n=7]",
        "FAIL: P_n(1)/n! alternating-Bell corollary (4<=n<=12) [first counterexample n=7]"]),
    # the recurrence puts beta_7 on M's diagonal: the binomial route catches it
    Row("matsunaga diagonal equals beta", prefix("betas", 7, 13), "identities 12", [
        "FAIL: matsunaga diagonal equals beta [first counterexample n=7]",
        "FAIL: splitting B_n = beta_(n+1) + beta_n (n<=12) [first counterexample n=6]",
        "FAIL: sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<=12) [first counterexample n=7]",
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=7]",
        "FAIL: P_n(1)/n! alternating-Bell corollary (4<=n<=12) [first counterexample n=7]"]),
    # by design, the sum form, the alternating |M| formula, the rational grid
    # and P_n(n) stay ok: both sides of each read the beta prefix
    Row("splitting", prefix("betas", 9, 13), "identities 12", [
        "FAIL: matsunaga diagonal equals beta [first counterexample n=9]",
        "FAIL: splitting B_n = beta_(n+1) + beta_n (n<=12) [first counterexample n=8]",
        "FAIL: sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<=12) [first counterexample n=9]",
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=9]",
        "FAIL: P_n(1)/n! alternating-Bell corollary (4<=n<=12) [first counterexample n=9]"]),
    # beta derived afterwards from the faulty B agrees with it
    Row("beta from alternating Bell sums", prefix("bells", 6, 6), "identities 12", [
        "FAIL: matsunaga diagonal equals beta [first counterexample n=7]",
        "FAIL: splitting B_n = beta_(n+1) + beta_n (n<=12) [first counterexample n=6]",
        "FAIL: sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<=12) [first counterexample n=6]",
        "FAIL: beta from alternating Bell sums (n<=12) [first counterexample n=7]",
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=6]"]),
    Row("sum_k M[n,k] n^k", off("exact.weighted_matsunaga_rows", (12,), bump_entry(5, 1)), "identities 12", [
        "FAIL: sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<=12) [first counterexample n=5]"]),
    # abs_matsunaga_row is the sum-form row with signs
    Row("sum form equals recurrence triangle", off("exact._sum_form_row", (4,), bump(1)), "identities 12", [
        "FAIL: sum form equals recurrence triangle (n<=12) [first counterexample (n,k)=(4, 2)]",
        "FAIL: alternating |M| formula, exception exactly (3,1) (n<=12) [violated at (n,k)=(4, 2)]"]),
    # the one documented sign exception, taken away
    Row("alternating |M| formula", off("exact.abs_matsunaga_row", (3,), lambda r: [-r[0], *r[1:]]), "identities 12", [
        "FAIL: alternating |M| formula, exception exactly (3,1) (n<=12) [violated at (n,k)=(3, 1)]"]),
    Row("alternating |M| formula", off("exact.abs_matsunaga_row", (5,), lambda r: [r[0], -r[1], *r[2:]]), "identities 12", [
        "FAIL: alternating |M| formula, exception exactly (3,1) (n<=12) [violated at (n,k)=(5, 2)]"]),
    Row("closed P_n(v)", off("exact.pnv_closed", (5, Fraction(-1, 2)), 1), "identities 12", [
        "FAIL: closed P_n(v) equals direct P_n(v) on rational grid [first counterexample (n,v)=(5, Fraction(-1, 2))]"]),
    # the ratio has slack at every n, so beta_10 + 1 leaves it ok; 0 breaks the
    # sign pattern that the alternating formula and P_n's closed form rest on
    Row("beta_(n+1)/(n+1)", prefix("betas", 10, 51, lambda v: 0), "identities 12", [
        "FAIL: matsunaga diagonal equals beta [first counterexample n=10]",
        "FAIL: splitting B_n = beta_(n+1) + beta_n (n<=12) [first counterexample n=9]",
        "FAIL: sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<=12) [first counterexample n=10]",
        "FAIL: alternating |M| formula, exception exactly (3,1) (n<=12) [violated at (n,k)=(10, 1)]",
        "FAIL: closed P_n(v) equals direct P_n(v) on rational grid [first counterexample (n,v)=(10, Fraction(1, 1))]",
        "FAIL: beta_(n+1)/(n+1) >= beta_n/n (3<=n<=50) [first counterexample n=9]",
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=10]",
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=12) [first counterexample n=10]",
        "FAIL: P_n(1)/n! alternating-Bell corollary (4<=n<=12) [first counterexample n=10]"]),
    # equality holds at k = 1: |s[6,1]| = 5 |s[5,1]|
    Row("|s[n+1,k]|", off("exact.stirling_unsigned_rows", (13,), bump_entry(6, 1, -1)), "identities 12", [
        "FAIL: |s[n+1,k]| >= n |s[n,k]| (n<=12) [first counterexample (n,k)=(5, 1)]"]),
    Row("procedure equivalence", off("exact.bell_via_shapes", (5,), 1), "identities 12", [
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=5]"]),
    # the walk of 5 loses its first shape
    Row("procedure equivalence", off("exact._shapes", (5,), lambda s: islice(s, 1, None)), "identities 12", [
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=5]"]),
    # the recurrence route off alone: one b-table entry of row 5, so B_5 is off by one
    Row("procedure equivalence", off("exact.b_table_rows", (5,), bump_entry(5, 1)), "identities 12", [
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=5]"]),
    # the Horner route off alone: its B_6 one too large
    Row("procedure equivalence", off("exact.bell_matsunaga", (6,),
                                     lambda tr: dataclasses.replace(tr, result=tr.result + 1)),
        "identities 12", [
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=12) [first counterexample n=6]"]),
    # 7! still divides, so the prefix stores the fault, and the direct route sees it
    Row("P_n(n)", off("exact._pnv_scaled", (7, 7, 1), factorial(7)), "identities 10", [
        "FAIL: closed P_n(v) equals direct P_n(v) on rational grid [first counterexample (n,v)=(7, Fraction(7, 1))]",
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=10) [first counterexample n=7]"]),
    # 7! no longer divides, so the prefix raises while the check reads it
    Row("P_n(n)", off("exact._pnv_scaled", (7, 7, 1), 1), "identities 10", [
        "FAIL: closed P_n(v) equals direct P_n(v) on rational grid [first counterexample (n,v)=(7, Fraction(7, 1))]",
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=10) [raised at n=7: P_7(7) not divisible by 7!]"]),
    # below 4 the prefix reads pnv_eval itself: the sum form's row must catch it
    Row("P_n(n)", off("exact.pnv_eval", (1, 1), factorial(1)), "identities 3", [
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=3) [first counterexample n=1]"]),
    Row("P_n(n)", off("exact.pnv_eval", (2, 2), factorial(2)), "identities 3", [
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=3) [first counterexample n=2]"]),
    Row("P_n(n)", off("exact.pnv_eval", (3, 3), factorial(3)), "identities 3", [
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=3) [first counterexample n=3]"]),
    # the grid reads P_5(1) too
    Row("P_n(1)/n!", off("exact.pnv_eval", (5, 1), 1), "identities 12", [
        "FAIL: closed P_n(v) equals direct P_n(v) on rational grid [first counterexample (n,v)=(5, Fraction(1, 1))]",
        "FAIL: P_n(1)/n! alternating-Bell corollary (4<=n<=12) [first counterexample n=5]"]),
    Row("enumeration total", stats(3, "total", 1), "oracle 4", [
        "FAIL: enumeration total at n=3 equals B_3=5 [got 6]"]),
    Row("singleton-free total", stats(3, "no_singleton_total", 1), "oracle 4", [
        "FAIL: singleton-free total at n=3 equals beta_3=1 [got 2]"]),
    Row("shape counts", off("exact.bell_polynomial_coefficient", (exact.PartitionShape(((1, 1), (2, 1))),),
                            1), "oracle 4", [
        "FAIL: shape counts at n=3 equal multinomial coefficients [bad shape PartitionShape(counts=((1, 1), (2, 1)))]"]),
    Row("block-of-element-1 histogram", stats(4, "block_of_element1_size_hist", bump(2)), "oracle 4", [
        "FAIL: block-of-element-1 histogram at n=4 [first bad k=2]"]),
    Row("singleton-count histogram", stats(4, "singleton_count_hist", bump(2)), "oracle 4", [
        "FAIL: singleton-count histogram at n=4 [first bad k=2]"]),
    Row("52 five-element patterns", off("partitions.genjiko_patterns", (), lambda p: p[1:]), "oracle 5", [
        "FAIL: 52 five-element patterns [got 51]"]),
    Row("product triangle = |s|", off("exact.stirling_unsigned_rows", (9,), bump_entry(6, 1, -1)), "variants 8", [
        "FAIL: product triangle = |s| * (n+1)^k closed form (n<=8) [first counterexample n=6]",
        "FAIL: product triangle = alternating |s| closed form (n<=8) [first counterexample n=5]"]),
    Row("product triangle = alternating |s|", off("cli.row_pmf", ("a260887", 5), add_mass(1)), "variants 8", [
        "FAIL: product triangle = alternating |s| closed form (n<=8) [first counterexample n=5]"]),
    Row("arima row sums", off("exact.arima_rows", (8,), bump_entry(5, 2)), "variants 8", [
        "FAIL: arima row sums equal B_(n+1) (n<=8) [first counterexample n=5]"]),
    Row("balanced convolution totals", off("exact.poisson_moments", (2, 6), bump(3)), "variants 6", [
        "FAIL: balanced convolution totals equal Poisson(2) moments (n<=6) [first counterexample n=3]"]),
    Row("singleton-marker triangles", off("cli.row_pmf", ("a124323", 5), add_mass(0)), "variants 8", [
        "FAIL: singleton-marker triangles (k=0 column, unit-mass removal, n<=8) [first counterexample n=5]"]),
    # the A124323 row formula itself: A086659 must not read it, or the
    # unit-mass removal would hold by construction
    Row("singleton-marker triangles", off("_ROWS.a124323", (5,), bump(1)), "variants 8", [
        "FAIL: singleton-marker triangles (k=0 column, unit-mass removal, n<=8) [first counterexample n=5]"]),
    # mass added at k = n reaches the route that sums over the support only
    Row("two-route moments", off("FAMILIES.arima", (4,), add_mass(4)), "variants 6", [
        "FAIL: two-route moments (closed forms = direct, 4<=n<=6) [first counterexample ('arima', 4)]"]),
    Row("two-route moments", off("cli.matsunaga_closed_moments", (5,), bump(0)), "variants 6", [
        "FAIL: two-route moments (closed forms = direct, 4<=n<=6) [first counterexample ('matsunaga', 5)]"]),
    Row("two-route moments", off("cli.weighted_matsunaga_closed_mean", (5,), 1), "variants 6", [
        "FAIL: two-route moments (closed forms = direct, 4<=n<=6) [first counterexample ('weighted-matsunaga', 5)]"]),
    # a fault in one suite leaves every line of the others as it was
    Row("matsunaga row sums zero", MATSUNAGA_7_7, "all 7", [
        "FAIL: matsunaga row sums zero (n<=7) [first counterexample n=7]",
        "FAIL: matsunaga diagonal equals beta [first counterexample n=7]",
        "FAIL: sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<=7) [first counterexample n=7]",
        "FAIL: sum form equals recurrence triangle (n<=7) [first counterexample (n,k)=(7, 7)]",
        "FAIL: alternating |M| formula, exception exactly (3,1) (n<=7) [violated at (n,k)=(7, 7)]",
        "FAIL: closed P_n(v) equals direct P_n(v) on rational grid [first counterexample (n,v)=(7, Fraction(1, 1))]",
        "FAIL: procedure equivalence (Horner = recurrence = shapes, n<=7) [raised at n=7: inner sum not divisible by 7! at n=7]",
        "FAIL: P_n(n) closed/direct agree and n! divides (n<=7) [first counterexample n=7]",
        "FAIL: P_n(1)/n! alternating-Bell corollary (4<=n<=7) [first counterexample n=7]"]),
]


def _verify(suite_n: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", *suite_n.split()])
    return code, out.getvalue().splitlines()


@functools.cache
def _clean(suite_n: str) -> list[str]:
    code, lines = _verify(suite_n)
    assert code == 0
    exact._reset()  # the faulty run starts from empty prefixes too
    return lines


@pytest.fixture(autouse=True)
def fresh():
    exact._reset()
    yield
    exact._reset()


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.fault.route} {row.verify}")
def test_fault(monkeypatch, row):
    assert any(line.startswith(f"FAIL: {row.check}") for line in row.fails)
    clean = _clean(row.verify)
    row.fault.apply(monkeypatch)
    code, lines = _verify(row.verify)
    assert code == 1 and len(lines) == len(clean)
    assert [line for line, before in zip(lines[:-1], clean) if line != before] == row.fails
    assert lines[-1] == f"{len(lines) - 1} checks, {len(row.fails)} failures"


def test_every_check_has_a_row():
    names = [check.name for build in cli.SUITES.values() for check in build(7)]
    owners = {name: {row.check for row in ROWS if name.startswith(row.check)} for name in names}
    assert {name: rows for name, rows in owners.items() if len(rows) != 1} == {}
    assert {row.check for row in ROWS} == set().union(*owners.values())
