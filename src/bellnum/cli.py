"""Command-line interface.

Subcommands: table, verify, asym, llt, bench, oeis-check, genjiko.
Exit codes: 0 success, 1 verification failure, 2 usage error or an
unwritable --out, 3 input or parse error.  Output is byte-for-byte
deterministic (bench wall times excepted); text and CSV stream row by
row, CSV with a header row, full-decimal integers, UTF-8, LF endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from itertools import accumulate
from math import factorial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import exact, partitions
from .asymptotic import (
    beta_asym,
    bell_asym,
    beta_ratio_asym,
    log_int,
    phi,
    rho_of_tau,
    stirling_asym,
    tau_of_rho,
    tilde_bell_asym,
    tilde_bell_exact,
)
from .distributions import (
    FAMILIES,
    a033306_exact_moments,
    arima_exact_moments,
    decay_exponent,
    llt_report,
    matsunaga_closed_moments,
    moments_exact,
    row_pmf,
    weighted_matsunaga_closed_mean,
)
from .oeis import BFileParseError, check_bfile, MAX_TERMS, REGISTRY

__all__ = ["main", "build_parser"]

TABLE_CAP = 500
VERIFY_CAP = 200
ASYM_CAP = 2000
LLT_CAP = 1000
BENCH_ARIMA_CAP = 400
BENCH_MATSUNAGA_CAP = 120

TABLE_SEQUENCES = (
    "stirling",
    "matsunaga",
    "weighted-matsunaga",
    "arima",
    "bell",
    "beta",
    "pn-at-n",
    "b-table",
)

ASYM_TARGETS = ("beta", "bell", "tilde-bell", "stirling", "beta-ratio", "phi")


class UsageError(ValueError):
    pass


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _width(head: str, cells: list[object]) -> int:
    # the widest cell of a column of ints is its min or its max
    if cells and all(type(c) is int for c in cells):
        cells = [min(cells), max(cells)]
    return max(len(str(c)) for c in [head, *cells])


def _render(fmt: str, header: list[str], rows: list[list[object]] | exact.TriangleTable,
            name: str) -> Iterator[str]:
    """The one table renderer, lazy.  ``rows`` is a list of rows, or a
    TriangleTable read as (n, k, value) rows.  JSON is one document; text
    and CSV are one chunk per triangle row, or one chunk for a list.  Text
    columns are right-aligned to their widest cell."""
    tri = isinstance(rows, exact.TriangleTable)
    if fmt == "json":
        doc = {"name": name, "columns": header,
               "rows": [dict(zip(header, r)) for r in (rows.items() if tri else rows)]}
        yield json.dumps(doc, indent=2) + "\n"
        return
    if tri:
        ns = [n for n, r in enumerate(rows.rows, rows.n_min) if r]
        # the k column runs from k_min to the last row's n
        cols = [ns, [rows.k_min, ns[-1]] if ns else [],
                [f(r) for r in rows.rows if r for f in (min, max)]]
    else:
        cols = [[row[i] for row in rows] for i in range(len(header))]
    line = (",".join(["{}"] * len(header)) if fmt == "csv" else
            "  ".join(f"{{:>{_width(h, c)}}}" for h, c in zip(header, cols))) + "\n"
    yield line.format(*header)
    if not tri:
        yield "".join([line.format(*map(str, row)) for row in rows])
        return
    for n, r in enumerate(rows.rows, rows.n_min):
        yield "".join([line.format(n, k, v) for k, v in enumerate(r, rows.k_min)])


def _check_cap(args: argparse.Namespace, N: int, default: int) -> None:
    cap = args.max_n if args.max_n is not None else default
    if N > cap:
        raise UsageError(f"N={N} beyond cap {cap} (raise with --max-n)")


# ----------------------------------------------------------------- table


def cmd_table(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    seq = args.sequence
    N = args.N
    if seq not in TABLE_SEQUENCES:
        raise UsageError(f"unknown sequence {seq!r}; choose from {', '.join(TABLE_SEQUENCES)}")
    _check_cap(args, N, TABLE_CAP)
    if seq == "pn-at-n" and N < 1:
        raise UsageError("pn-at-n needs N >= 1")
    builders = {
        "bell": exact.bell_numbers,
        "beta": exact.beta_numbers,
        "pn-at-n": lambda N: exact.pn_at_n(N)[0],
        "stirling": exact.stirling_signed_rows,
        "matsunaga": exact.matsunaga_rows,
        "weighted-matsunaga": exact.weighted_matsunaga_rows,
        "arima": exact.arima_rows,
        "b-table": exact.b_table_rows,
    }
    table = builders[seq](N)
    if isinstance(table, exact.TriangleTable):
        return 0, _render(args.format, ["n", "k", "value"], table, seq)
    rows = [[n, v] for n, v in enumerate(table)][seq == "pn-at-n":]  # P_n(n) starts at n = 1
    return 0, _render(args.format, ["n", "value"], rows, seq)


# ---------------------------------------------------------------- verify


class Check(NamedTuple):
    """One verify line: ``holds`` must be true at every point of ``domain``,
    walked lazily and in order.  FAIL shows ``witness`` and the first point
    where it is false; ok shows ``note``."""

    name: str
    domain: Iterable[Any]
    holds: Callable[[Any], bool]
    witness: str = "first counterexample n="
    note: str = ""


def _run(check: Check) -> tuple[str, str]:
    """(status, detail): FAIL at the first counterexample or at the first
    point where a route raises ``ArithmeticError`` (the witness's last word
    names the point), skip when the domain has no point, ok otherwise."""
    empty = True
    for point in check.domain:
        try:
            holds = check.holds(point)
        except ArithmeticError as e:
            return "FAIL", f"raised at {check.witness.rsplit(' ', 1)[-1]}{point}: {e}"
        if not holds:
            return "FAIL", check.witness + str(point)
        empty = False
    return ("skip", "") if empty else ("ok", check.note)


def _triangle(N: int) -> Iterator[tuple[int, int]]:
    """(n, k) with 1 <= k <= n <= N, row by row."""
    return ((n, k) for n in range(1, N + 1) for k in range(1, n + 1))


def _identities(N: int) -> list[Check]:
    m = exact.matsunaga_rows(N)
    top = max(N, 50)
    beta = exact.beta_numbers(top + 1)
    bells = exact.bell_numbers(N + 1)
    # beta comes from B by the splitting identity, so check it on the
    # binomial route and hold the derived prefix to that route
    beta_rec = exact._beta_binomial(N + 1)
    c25, c30 = min(N, 25), min(N, 30)
    s = exact.stirling_unsigned_rows(c25 + 1)
    # the checks walk (n, k) row by row: one sum-form row per n
    sum_row = functools.lru_cache(maxsize=1)(exact._sum_form_row)
    abs_row = functools.lru_cache(maxsize=1)(exact.abs_matsunaga_row)
    # built at its check's first point, so N = 1 (no point) builds nothing
    weighted = functools.lru_cache(maxsize=1)(exact.weighted_matsunaga_rows)

    def abs_formula(nk: tuple[int, int]) -> bool:
        truth = abs(m.entry(*nk))
        # the formula's one sign exception
        return abs_row(nk[0])[nk[1] - 1] == (-truth if nk == (3, 1) else truth)

    # the routes that can raise are read at each point, so a fault fails
    # its own check at its own point
    def procedures_agree(n: int) -> bool:
        b = sum(exact.b_table_rows(n).row(n))
        return (exact.bell_matsunaga(n).result == b and exact.bell_via_shapes(n) == b
                and bells[n] == b)

    def pn_at_n_agree(n: int) -> bool:
        vals, norm = exact.pn_at_n(n)
        # below n = 4 the prefix takes P_n(n) from pnv_eval itself, so there
        # it is held to the sum form's row, which reads neither that route
        # nor the Matsunaga prefix
        if n < 4 and vals[n] != sum(abs(c) * n**k for k, c in enumerate(sum_row(n), start=1)):
            return False
        return exact.pnv_eval(n, n) == vals[n] == norm[n] * factorial(n)

    def corollary(n: int) -> bool:
        rhs = sum((-1) ** j * (j + 1) * bells[n - 1 - j] for j in range(n)) + (-1) ** n * n
        return exact.pnv_eval(n, 1) == rhs * factorial(n)

    grid = ((n, v) for n in range(4, min(N, 20) + 1)
            for v in (Fraction(1), Fraction(n), Fraction(-1, 2), Fraction(7, 3)))
    return [
        Check(f"matsunaga row sums zero (n<={N})", range(1, N + 1), lambda n: sum(m.row(n)) == 0),
        Check("matsunaga diagonal equals beta", range(1, N + 1),
              lambda n: m.entry(n, n) == beta_rec[n]),
        Check(f"splitting B_n = beta_(n+1) + beta_n (n<={N})", range(N + 1),
              lambda n: bells[n] == beta_rec[n + 1] + beta_rec[n]
              and beta[n:n + 2] == beta_rec[n:n + 2]),
        Check(f"sum_k M[n,k] n^k = (B_n - 1) n! (2<=n<={N})", range(2, N + 1),
              lambda n: sum(weighted(N).row(n)) == (bells[n] - 1) * factorial(n)),
        Check(f"sum form equals recurrence triangle (n<={c25})", _triangle(c25),
              lambda nk: sum_row(nk[0])[nk[1] - 1] == m.entry(*nk),
              "first counterexample (n,k)="),
        Check(f"alternating |M| formula, exception exactly (3,1) (n<={N})", _triangle(N),
              abs_formula, "violated at (n,k)=",
              "expected sign exception at (3,1) confirmed" if N >= 3 else ""),
        Check("closed P_n(v) equals direct P_n(v) on rational grid", grid,
              lambda nv: exact.pnv_eval(*nv) == exact.pnv_closed(*nv),
              "first counterexample (n,v)="),
        Check(f"beta_(n+1)/(n+1) >= beta_n/n (3<=n<={top})", range(3, top + 1),
              lambda n: n * beta[n + 1] >= (n + 1) * beta[n]),
        Check(f"|s[n+1,k]| >= n |s[n,k]| (n<={c25})", _triangle(c25),
              lambda nk: s.entry(nk[0] + 1, nk[1]) >= nk[0] * s.entry(*nk),
              "first counterexample (n,k)="),
        Check(f"beta from alternating Bell sums (n<={c30})", range(c30 + 1),
              lambda n: exact.beta_from_bells(n, bells) == beta_rec[n]),
        Check(f"procedure equivalence (Horner = recurrence = shapes, n<={c25})",
              range(2, c25 + 1), procedures_agree),
        Check(f"P_n(n) closed/direct agree and n! divides (n<={N})", range(1, N + 1),
              pn_at_n_agree),
        Check(f"P_n(1)/n! alternating-Bell corollary (4<=n<={N})", range(4, N + 1), corollary),
    ]


def _oracle(N: int) -> list[Check]:
    if N > partitions.STATS_CAP:
        raise UsageError(f"oracle suite capped at N={partitions.STATS_CAP}")
    bells = exact.bell_numbers(N)
    beta = exact.beta_numbers(N)
    checks = [c for n in range(1, N + 1)
              for c in _oracle_at(n, partitions.collect_stats(n), bells, beta)]
    if N >= 5:
        checks.append(Check("52 five-element patterns", (len(partitions.genjiko_patterns()),),
                            lambda count: count == 52, "got "))
    return checks


def _oracle_at(n: int, st: partitions.PartitionStats, bells: list[int],
               beta: list[int]) -> list[Check]:
    return [
        Check(f"enumeration total at n={n} equals B_{n}={bells[n]}", (st.total,),
              lambda total: total == bells[n], "got ", f"got {st.total}"),
        Check(f"singleton-free total at n={n} equals beta_{n}={beta[n]}",
              (st.no_singleton_total,), lambda total: total == beta[n],
              "got ", f"got {st.no_singleton_total}"),
        Check(f"shape counts at n={n} equal multinomial coefficients", st.by_shape,
              lambda shape: st.by_shape[shape] == exact.bell_polynomial_coefficient(shape),
              "bad shape "),
        Check(f"block-of-element-1 histogram at n={n}", range(1, n + 1),
              lambda k: st.block_of_element1_size_hist[k]
              == math.comb(n - 1, k - 1) * bells[n - k], "first bad k="),
        Check(f"singleton-count histogram at n={n}", range(n + 1),
              lambda k: st.singleton_count_hist[k] == math.comb(n, k) * beta[n - k],
              "first bad k="),
    ]


def _variants(N: int) -> list[Check]:
    s = exact.stirling_unsigned_rows(N + 1)
    bells = exact.bell_numbers(N + 1)
    arima = exact.arima_rows(N)
    tb = tilde_bell_exact(N)
    beta = exact.beta_numbers(N)
    cap = min(N, 40)

    def alternating(n: int) -> list[int]:
        # sum_{j<=k} (-1)^(k-j) |s[n+1,j+1]| is |s[n+1,k+1]| less the sum at k - 1
        sums = accumulate(s.row(n + 1)[:n], lambda prev, x: x - prev)
        return [n**k * a for k, a in enumerate(sums)]

    def singleton_marker(n: int) -> bool:
        t = row_pmf("a124323", n)
        return t.weights[0] == beta[n] and (
            n < 4 or (list(row_pmf("a086659", n).weights) == list(t.weights[:-1])
                      and t.weights[-1] == 1))

    # each closed form against the moments summed over the family's support
    two_route = {
        "matsunaga": lambda n: matsunaga_closed_moments(n)
        == moments_exact(FAMILIES["matsunaga"].build(n)),
        "weighted-matsunaga": lambda n: weighted_matsunaga_closed_mean(n)
        == moments_exact(FAMILIES["weighted-matsunaga"].build(n))[0],
        "arima": lambda n: arima_exact_moments(n) == moments_exact(FAMILIES["arima"].build(n)),
        "a033306": lambda n: a033306_exact_moments(n)
        == moments_exact(FAMILIES["a033306"].build(n)),
    }
    return [
        Check(f"product triangle = |s| * (n+1)^k closed form (n<={N})", range(2, N + 1),
              lambda n: list(row_pmf("a220883", n).weights)
              == [s.entry(n, k + 1) * (n + 1) ** k for k in range(n)]),
        Check(f"product triangle = alternating |s| closed form (n<={N})", range(2, N + 1),
              lambda n: list(row_pmf("a260887", n).weights) == alternating(n)),
        Check(f"arima row sums equal B_(n+1) (n<={N})", range(1, N + 1),
              lambda n: sum(arima.row(n)) == bells[n + 1]),
        Check(f"balanced convolution totals equal Poisson(2) moments (n<={N})",
              range(1, N + 1),
              lambda n: sum(math.comb(n, k) * bells[k] * bells[n - k] for k in range(n + 1))
              == tb[n]),
        Check(f"singleton-marker triangles (k=0 column, unit-mass removal, n<={N})",
              range(2, N + 1), singleton_marker),
        Check(f"two-route moments (closed forms = direct, 4<=n<={cap})",
              ((family, n) for n in range(4, cap + 1) for family in two_route),
              lambda point: two_route[point[0]](point[1]), "first counterexample "),
    ]


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "identities": _identities,
    "oracle": _oracle,
    "variants": _variants,
}
VERIFY_SUITES = (*SUITES, "all")


def cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    suite = args.suite
    N = args.N
    if suite not in VERIFY_SUITES:
        raise UsageError(f"unknown suite {suite!r}; choose from {', '.join(VERIFY_SUITES)}")
    if N < 1:
        raise UsageError("N must be >= 1")
    _check_cap(args, N, VERIFY_CAP)
    lines = []
    n_fail = 0
    for name, build in SUITES.items():
        if suite not in (name, "all"):
            continue
        # `all` runs the oracle only as far as it enumerates
        size = min(N, partitions.STATS_CAP) if (name, suite) == ("oracle", "all") else N
        for check in build(size):
            status, detail = _run(check)
            n_fail += status == "FAIL"
            lines.append(f"{status}: {check.name}" + (f" [{detail}]" if detail else ""))
    lines.append(f"{len(lines)} checks, {n_fail} failures")
    return (1 if n_fail else 0), ["\n".join(lines) + "\n"]


# ------------------------------------------------------------------ asym


def _parse_ladder(text: str) -> list[int]:
    try:
        ladder = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise UsageError(f"bad ladder {text!r}, expected comma-separated integers") from None
    if not ladder:
        raise UsageError("empty ladder")
    return ladder


def _stirling_points(ladder: list[int]) -> dict[int, dict[int, int]]:
    """``|s[n,k]|`` at k = 2, n//2 and n-1 (ascending, each once) for every
    n of the ladder.

    k = 2 and k = n-1 have closed forms, ``(n-1)! H_(n-1)`` and ``C(n,2)``.
    The middle points come from one banded pass over the Stirling rows
    that holds one row at a time, cut to columns
    ``max(1, n - ceil(N/2)) .. N//2`` for the largest n = N: every
    middle point ``n//2`` of the ladder lies inside that band.
    """
    N, wanted = max(ladder), set(ladder)
    band = exact._stirling_band(N, N - N // 2, N // 2)
    mids = {n: abs(row[n // 2 - lo]) for n, (lo, row) in enumerate(band, start=1) if n in wanted}
    points = {}
    for n in ladder:
        f = factorial(n - 1)
        ends = {2: sum(f // j for j in range(1, n)), n - 1: math.comb(n, 2)}
        points[n] = {k: ends[k] if k in ends else mids[n] for k in sorted({2, n // 2, n - 1})}
    return points


def cmd_asym(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    target = args.target
    if target not in ASYM_TARGETS:
        raise UsageError(f"unknown target {target!r}; choose from {', '.join(ASYM_TARGETS)}")
    if target == "phi":
        grid = [i / 100 for i in range(1, 501)]
        vals = [phi(r) for r in grid]
        arg = grid[vals.index(max(vals))]
        rows = [
            ["grid_argmax_rho", arg],
            ["grid_max_phi", max(vals)],
            ["phi(1)", phi(1.0)],
            ["closed_form_2log2_minus_1", 2 * math.log(2) - 1],
            ["tau_of_rho(1)", tau_of_rho(1.0)],
            ["log(2)", math.log(2.0)],
            ["rho_of_tau(log 2)", rho_of_tau(math.log(2.0))],
        ]
        return 0, _render(args.format, ["quantity", "value"], rows, "phi")
    if args.ladder is None:
        raise UsageError(f"target {target!r} needs a ladder of n values")
    ladder = _parse_ladder(args.ladder)
    _check_cap(args, max(ladder), ASYM_CAP)
    rows: list[list[object]] = []
    if target in ("beta", "bell", "tilde-bell"):
        if target == "beta" and min(ladder) < 4:
            raise UsageError("beta needs n >= 4 (beta_2 = beta_3 = 1 leaves log beta_n = 0 below)")
        exact_fn = {"beta": exact.beta_numbers, "bell": exact.bell_numbers,
                    "tilde-bell": tilde_bell_exact}[target]
        exact_values = exact_fn(max(ladder))
        approx_fn = {"beta": beta_asym, "bell": bell_asym, "tilde-bell": tilde_bell_asym}[target]
        for n in ladder:
            a = approx_fn(n)
            le = log_int(exact_values[n])
            rows.append([n, f"{le:.6f}", f"{a.log_value:.6f}",
                         f"{abs(a.log_value - le) / abs(le):.3e}", a.error_order])
        return 0, _render(args.format,
                          ["n", "log_exact", "log_approx", "rel_log_error", "order"],
                          rows, f"asym-{target}")
    if target == "beta-ratio":
        if min(ladder) < 4:
            raise UsageError(
                "beta-ratio needs n >= 4 (beta_1 = 0 leaves a ratio zero or undefined below)")
        top = max(ladder)
        betas = exact.beta_numbers(top)
        for n in ladder:
            for l in (1, 2):
                ex = betas[n - l] / betas[n]
                ap = beta_ratio_asym(n, l)
                rows.append([n, l, f"{ex:.6e}", f"{ap:.6e}",
                             f"{abs(ap / ex - 1):.3e}", "O(n^-1 l^2 log n)"])
        return 0, _render(args.format,
                          ["n", "l", "exact_ratio", "approx_ratio", "rel_error", "order"],
                          rows, "asym-beta-ratio")
    # stirling: three regime-representative points per n
    if min(ladder) < 4:
        raise UsageError("stirling comparison needs n >= 4")
    points = _stirling_points(ladder)
    for n in ladder:
        for k, value in points[n].items():
            a = stirling_asym(n, k)
            le = log_int(value)
            rel = abs(math.exp(a.log_value - le) - 1)
            rows.append([n, k, a.regime, f"{le:.6f}", f"{a.log_value:.6f}",
                         f"{rel:.3e}", a.error_order])
    return 0, _render(args.format,
                      ["n", "k", "regime", "log_exact", "log_approx", "rel_value_error", "order"],
                      rows, "asym-stirling")


# ------------------------------------------------------------------- llt


def cmd_llt(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    family = args.family
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}; choose from {', '.join(sorted(FAMILIES))}")
    fam = FAMILIES[family]
    ladder = _parse_ladder(args.ladder)
    _check_cap(args, max(ladder), LLT_CAP)
    if args.hist:
        rows: list[list[object]] = []
        for n in ladder:
            pmf = fam.build(n)
            for k, w in zip(pmf.support(), pmf.weights):
                rows.append([n, k, repr(w / pmf.total)])
        return 0, _render(args.format, ["n", "k", "probability"], rows, f"llt-hist-{family}")
    rows = []
    sups: list[float] = []
    for n in ladder:
        rep = llt_report(fam.build(n), fam, n, centering=args.centering)
        sups.append(rep.sup_deviation)
        rows.append([
            rep.n,
            _rat(rep.mean_exact),
            _rat(rep.var_exact),
            f"{rep.mu_asym:.6f}",
            f"{rep.sigma2_asym:.6f}",
            f"{rep.sup_deviation:.6e}",
            rep.rate_tag,
        ])
    out = [*_render(args.format,
                    ["n", "mean_exact", "var_exact", "mu_asym", "sigma2_asym",
                     "sup_deviation", "rate_tag"],
                    rows, f"llt-{family}")]
    if args.format == "text" and len(set(ladder)) >= 2:
        out.append(f"empirical decay exponent: {decay_exponent(ladder, sups):+.3f}\n")
    return 0, out


# ----------------------------------------------------------------- bench


def _bench_ladder(N: int) -> list[int]:
    ns = []
    n = 2
    while n < N:
        ns.append(n)
        n *= 2
    ns.append(N)
    return sorted(set(ns))


def cmd_bench(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    N = args.N
    if N < 2:
        raise UsageError("bench needs N >= 2")
    cap = args.max_n if args.max_n is not None else BENCH_ARIMA_CAP
    if N > cap:
        raise UsageError(f"N={N} beyond bench cap {cap} (raise with --max-n)")
    repeats = args.repeats
    if repeats < 1:
        raise UsageError("--repeats must be >= 1")
    rows: list[list[object]] = []
    for n in _bench_ladder(N):
        records: dict[str, tuple[float, int, int]] = {}  # procedure -> (best, bits, result)
        for proc, fn in (("matsunaga", exact.bench_matsunaga_procedure),
                         ("arima", exact.bench_arima_procedure)):
            if proc == "matsunaga" and n > BENCH_MATSUNAGA_CAP:
                continue
            best = math.inf
            for _ in range(repeats):
                # time the procedure itself, not a lookup in the kernel's prefixes
                exact._reset()
                t0 = time.perf_counter()
                result, bits = fn(n)
                best = min(best, time.perf_counter() - t0)
            records[proc] = best, bits, result
        if "matsunaga" in records:
            (_, m_bits, m_result), (_, a_bits, a_result) = records["matsunaga"], records["arima"]
            if m_result != a_result:
                return 1, [f"procedures disagree at n={n}\n"]
            ratio = m_bits / a_bits
        else:
            ratio = float("nan")
        for proc, (best, bits, result) in records.items():
            rows.append([n, proc, f"{best:.6f}", bits, f"{ratio:.3f}", result])
    return 0, _render(args.format,
                      ["n", "procedure", "wall_time_s", "max_intermediate_bits",
                       "bits_ratio", "result"],
                      rows, "bench")


# ------------------------------------------------------------ oeis-check


def cmd_oeis_check(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if args.sequence.lower() not in REGISTRY:
        raise UsageError(f"unknown sequence {args.sequence!r}")
    try:
        with open(args.bfile, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise BFileParseError(f"cannot read {args.bfile}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise BFileParseError(f"cannot decode {args.bfile} as UTF-8: {e.reason}") from None
    cap = args.max_n if args.max_n is not None else MAX_TERMS
    result = check_bfile(args.sequence, text, max_terms=cap)
    if result.ok:
        return 0, [f"match: {result.compared} values of {result.sequence}\n"]
    e = result.first_mismatch
    if e is None:
        return 1, [f"no comparable entries for {result.sequence}\n"]
    return 1, [f"MISMATCH for {result.sequence} at index {e.index}: "
               f"file has {e.value}, computed {result.expected}\n"]


# --------------------------------------------------------------- genjiko


def cmd_genjiko(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    pats = partitions.genjiko_patterns()
    lines = [f"{len(pats)} patterns"]
    for i, blocks in enumerate(pats, start=1):
        groups = " ".join("{" + ",".join(str(p) for p in b) + "}" for b in blocks)
        lines.append(f"{i:2d}: {groups}")
    return 0, ["\n".join(lines) + "\n"]


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")
    common.add_argument("--out", metavar="PATH", default=None)
    common.add_argument("--max-n", type=int, default=None, metavar="CAP",
                        help="raise or lower the command's size cap")

    p = argparse.ArgumentParser(prog="bellnum",
                                description="Exact and asymptotic Bell-number toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", parents=[common], help="emit a sequence or triangle")
    sp.add_argument("sequence")
    sp.add_argument("N", type=int)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("verify", parents=[common], help="run exact identity suites")
    sp.add_argument("suite")
    sp.add_argument("N", type=int)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("asym", parents=[common],
                        help="compare approximations against exact values")
    sp.add_argument("target")
    sp.add_argument("ladder", nargs="?", default=None,
                    help="comma-separated n values (not needed for phi)")
    sp.set_defaults(func=cmd_asym)

    sp = sub.add_parser("llt", parents=[common], help="local-limit-theorem reports")
    sp.add_argument("family")
    sp.add_argument("ladder", help="comma-separated n values")
    sp.add_argument("--centering", choices=("exact", "asym"), default="exact")
    sp.add_argument("--hist", action="store_true",
                    help="dump (k, probability) pairs instead of reports")
    sp.set_defaults(func=cmd_llt)

    sp = sub.add_parser("bench", parents=[common],
                        help="compare the two procedures (time and bit growth)")
    sp.add_argument("N", type=int)
    sp.add_argument("--repeats", type=int, default=1)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("oeis-check", parents=[common],
                        help="cross-check a sequence against a local b-file")
    sp.add_argument("sequence")
    sp.add_argument("bfile")
    sp.set_defaults(func=cmd_oeis_check)

    sp = sub.add_parser("genjiko", parents=[common],
                        help="list the 52 five-incense patterns")
    sp.set_defaults(func=cmd_genjiko)
    return p


def main(argv: list[str] | None = None) -> int:
    # full-decimal emission of big integers is part of the CSV contract;
    # lift the interpreter's int-to-str digit guard, where present, for
    # this call only
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(2_000_000)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        if args.max_n is not None and args.max_n < 0:
            raise UsageError(f"--max-n must be >= 0, got {args.max_n}")
        code, chunks = args.func(args)
    except BFileParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # a UsageError, or out-of-range parameters surfaced by the library
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        # e.g. saddle solver non-convergence: reported, never silent
        print(f"computation failed: {e}", file=sys.stderr)
        return 1
    # the file is opened only now, so a refused command leaves none behind
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is still buffered goes to devnull, so
        # the interpreter's flush at exit reports nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as e:
        print(f"error: cannot write {args.out or 'stdout'}: {e.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
