"""Exact arbitrary-precision side: triangles, sequences and identities.

Everything in this module is computed with Python's native big integers
(or `fractions.Fraction` where values are genuinely rational), so all
equalities asserted elsewhere are exact, never approximate.  The module
covers both eighteenth-century Bell-number procedures:

* the Stirling-number pipeline, which tabulates signed Stirling numbers
  of the first kind, the singleton-free partition counts ``beta``, the
  Matsunaga triangle ``M[n,k]``, and finally evaluates
  ``B_n = 1 + (1/n!) * sum_k M[n,k] n^k`` by Horner's rule;
* the binomial recurrence ``B_n = sum_k C(n-1,k) B_{n-1-k}``, carried
  out through the row table ``b[n,k] = C(n-1,k-1) B_{n-k}`` that trades
  space for time.

M has two routes.  The recurrence ``M[n,k] = n M[n-1,k] + beta_n s[n,k]``
is one growing prefix, for the triangle and the Horner procedure; the
sum form ``M[n,k] = n! sum_{k<=j<=n} (beta_j / j!) s[j,k]`` builds one
row alone, for callers that read a few rows.  Each is checked on the other.

Each triangle has one row source, an unbounded private generator
(``_stirling_rows``, ``_b_table_rows``, ``_arima_rows``, ``_matsunaga_rows``)
that the ``TriangleTable`` builders and the ``oeis`` readers all read; the
``oeis`` readers of B, beta and the Poisson moments stream their prefixes
term by term (``_poisson_terms``, ``_beta_terms``).  The Stirling source
takes a sign: signed for the table, M and A008275, unsigned for ``|s|``.

The Horner evaluation is instrumented (every partial accumulator is
recorded, with the largest bit length seen) because the intermediate
values reach the scale of ``B_n * n!`` and cancel violently; the
instrumentation makes that observable data rather than folklore.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, islice, repeat
from math import comb, factorial
from operator import mul
from typing import Iterator, Sequence

__all__ = [
    "TriangleTable",
    "HornerTrace",
    "PartitionShape",
    "stirling_signed_rows",
    "stirling_unsigned_rows",
    "b_table_rows",
    "bell_numbers",
    "beta_numbers",
    "beta_from_bells",
    "matsunaga_rows",
    "matsunaga_via_sum",
    "bell_matsunaga",
    "bench_matsunaga_procedure",
    "bench_arima_procedure",
    "weighted_matsunaga_rows",
    "abs_matsunaga_row",
    "pnv_eval",
    "pnv_closed",
    "pn_at_n",
    "bell_polynomial_coefficient",
    "bell_via_shapes",
    "poisson_moments",
    "arima_rows",
    "solve_bell_inverse",
]


# a dataclass because perfbench's digest hashes it by dataclasses.fields
@dataclass(frozen=True)
class TriangleTable:
    """Dense lower-triangular table of integers.

    Row ``n`` (``n_min <= n``) holds entries for ``k = k_min .. n``.
    Access outside the stored triangle raises ``IndexError``: boundary
    zeros are the caller's business, silent zeros hide index bugs.
    """

    name: str
    n_min: int
    k_min: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for i, r in enumerate(self.rows):
            n = self.n_min + i
            if len(r) != n - self.k_min + 1:
                raise ValueError(
                    f"{self.name}: row n={n} has {len(r)} entries, "
                    f"expected {n - self.k_min + 1}"
                )

    def row(self, n: int) -> tuple[int, ...]:
        n_max = self.n_min + len(self.rows) - 1
        if not self.n_min <= n <= n_max:
            raise IndexError(f"{self.name}: row n={n} outside [{self.n_min}, {n_max}]")
        return self.rows[n - self.n_min]

    def entry(self, n: int, k: int) -> int:
        r = self.row(n)
        if not self.k_min <= k <= n:
            raise IndexError(f"{self.name}: entry (n={n}, k={k}) outside triangle")
        return r[k - self.k_min]


# a dataclass because perfbench's digest hashes it by dataclasses.fields
@dataclass(frozen=True)
class HornerTrace:
    """Record of one Horner evaluation of ``sum_k M[n,k] n^k``.

    The accumulator is seeded with ``M[n,n]``; ``partial_values`` holds
    its value after each of the ``n - 1`` combining steps, so the last
    one equals ``inner_sum / n``.  ``max_bits`` is the largest bit length seen over
    the row entries, every partial and the inner sum itself: it measures
    how large the intermediate numbers get before the division by ``n!``
    collapses them to ``B_n - 1``.
    """

    n: int
    partial_values: tuple[int, ...]
    inner_sum: int
    max_bits: int
    result: int


# a dataclass because perfbench's digest hashes it by dataclasses.fields
@dataclass(frozen=True)
class PartitionShape:
    """Multiset of block sizes of a set partition, e.g. one singleton
    and two pairs of a 5-set is ``((1, 1), (2, 2))``.

    Stored as (size, count) pairs with strictly increasing sizes; all
    sizes and counts are positive.
    """

    counts: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 0
        for size, count in self.counts:
            if size <= last or count < 1:
                raise ValueError(f"invalid shape {self.counts!r}")
            last = size


class _Prefixes:
    """Growing prefixes of beta, the Poisson moments, the Matsunaga rows
    and ``P_n(n)``, each extended on demand and never recomputed.  B is
    the Poisson prefix at mean 1.

    Public functions hand out list copies or ``TriangleTable`` views of
    the rows (tuples), so no caller can alter a prefix.  The signed
    Stirling triangle is not kept: it is cheap to rebuild and large to
    hold, so the Matsunaga prefix reads its own live signed
    ``_stirling_rows`` source, one row per new row of M.
    """

    def __init__(self) -> None:
        self.betas = [1]  # beta_0, beta_1, ... from the splitting identity
        # mean -> (raw moments 0, 1, ..., the array row whose first entry is the last moment)
        self.poisson: dict[int, tuple[list[int], list[int]]] = {}
        self.matsunaga = [(0,)]  # rows 1, 2, ... of M
        self.stirling = islice(_stirling_rows(), 1, None)  # s rows for M's rows 2, 3, ...
        self.pn_at_n = ([0], [0])  # P_n(n) and P_n(n)/n!, index 0 unused

    def betas_upto(self, N: int) -> list[int]:
        betas, bells = self.betas, self.poisson_upto(1, N - 1)
        for n in range(len(betas) - 1, N):
            betas.append(bells[n] - betas[n])
        return betas

    def poisson_upto(self, mean: int, N: int) -> list[int]:
        """Moments m_0..m_N at ``mean`` by Aitken's array.  Each row starts
        with ``mean`` times the last entry of the row above and adds the
        entries above; row n holds ``sum_j C(k,j) m_{n-k+j}`` at k, so its
        first entry is m_n and its last entry times the mean is m_{n+1}.
        Mean 1 is the Bell triangle, whose first column is B_n."""
        m, row = self.poisson.get(mean, ([1], [1]))
        for _ in range(len(m), N + 1):
            row = list(accumulate(row, initial=mean * row[-1]))
            m.append(row[0])
        self.poisson[mean] = m, row
        return m

    def matsunaga_upto(self, N: int) -> list[tuple[int, ...]]:
        rows, beta = self.matsunaga, self.betas_upto(N)
        for n in range(len(rows) + 1, N + 1):
            rows.append(tuple(n * m + beta[n] * s
                              for m, s in zip(rows[-1] + (0,), next(self.stirling))))
        return rows

    def pn_at_n_upto(self, N: int) -> tuple[list[int], list[int]]:
        values, normalized = self.pn_at_n
        for n in range(len(values), N + 1):
            p = pnv_eval(n, n).numerator if n < 4 else _pnv_scaled(n, n, 1)
            q, rem = divmod(p, factorial(n))
            if rem:
                raise ArithmeticError(f"P_{n}({n}) not divisible by {n}!")
            values.append(p)
            normalized.append(q)
        return self.pn_at_n


def _stirling_next(prev: tuple[int, ...], n: int, sign: int) -> tuple[int, ...]:
    """Stirling row n from row n - 1, signed for sign -1, unsigned for +1 (a
    list comprehension builds the tuple about 10 % faster than a generator)."""
    c = sign * (n - 1)
    return tuple([left + c * right for left, right in zip((0,) + prev, prev + (0,))])


def _stirling_rows(sign: int = -1) -> Iterator[tuple[int, ...]]:
    """Stirling rows 1, 2, ..., signed for sign -1, unsigned for +1, each built
    from the one before: the one source of the triangle's rows."""
    row = (1,)
    yield row
    for n in count(2):
        row = _stirling_next(row, n, sign)
        yield row


def _stirling_band(N: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Unsigned Stirling rows 1..N, row n cut to its columns
    ``lo = max(1, n - ceil(N/2)) .. min(n, N//2)``: yields ``(lo, cut row)``.
    The band holds ``|s[n, n//2]|`` for every n <= N.

    Each cut row is built from the one before.  ``_stirling_next`` takes
    the columns outside the cut as zero, so its first entry is wrong once
    lo > 1 and its last once the row is wider than N//2; the next cut drops
    exactly those two.
    """
    lo, row, hi = 1, (1,), N // 2
    yield lo, row
    for n in range(2, N + 1):
        new_lo = max(1, n + hi - N)  # n - ceil(N/2)
        row, lo = _stirling_next(row, n, 1)[new_lo - lo:hi - lo + 1], new_lo
        yield lo, row


_PREFIX = _Prefixes()


def _reset() -> None:
    """Empty every prefix, so that the next call computes from scratch."""
    global _PREFIX
    _PREFIX = _Prefixes()


def _table(name: str, k_min: int, rows: Iterator[tuple[int, ...]], N: int) -> TriangleTable:
    """Rows 1..N of a triangle, drawn from its row source ``rows``."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return TriangleTable(name, 1, k_min, tuple(islice(rows, N)))


def stirling_signed_rows(N: int) -> TriangleTable:
    """Signed Stirling numbers of the first kind, rows 1..N.

    Recurrence ``s[n,k] = s[n-1,k-1] - (n-1) s[n-1,k]`` with
    ``s[1,1] = 1``; row n gives the coefficients of
    ``z (z-1) ... (z-n+1)``.
    """
    return _table("stirling1", 1, _stirling_rows(), N)


def stirling_unsigned_rows(N: int) -> TriangleTable:
    """Unsigned Stirling numbers |s[n,k]| (permutations with k cycles), from
    their own recurrence ``|s[n,k]| = |s[n-1,k-1]| + (n-1) |s[n-1,k]|``."""
    return _table("stirling1_unsigned", 1, _stirling_rows(1), N)


def _b_table_rows() -> Iterator[tuple[int, ...]]:
    """Rows 1, 2, ... of the row table ``b[n,k] = C(n-1,k-1) B_{n-k}``.

    Built purely by the space-for-time trick: the first column restarts
    each row as the previous row's sum, and every other entry is
    ``(n-1)/(k-1)`` times its upper-left neighbour.  The division is
    performed as multiply-then-exact-divide with a divisibility check,
    so integrality is a verified invariant, not an assumption.
    """
    prev = (1,)
    yield prev
    for n in count(2):
        row = [sum(prev)]
        for k in range(2, n + 1):
            num = (n - 1) * prev[k - 2]
            q, rem = divmod(num, k - 1)
            if rem:
                raise ArithmeticError(f"b-table division not exact at (n={n}, k={k})")
            row.append(q)
        prev = tuple(row)
        yield prev


def b_table_rows(N: int) -> TriangleTable:
    """The row table for rows 1..N: the paper's Arima procedure, kept
    uncached as the independent route to B."""
    return _table("b_table", 1, _b_table_rows(), N)


def bell_numbers(N: int) -> list[int]:
    """Bell numbers B_0..B_N from Aitken's array (additions only)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return _PREFIX.poisson_upto(1, N)[: N + 1]


def beta_numbers(N: int) -> list[int]:
    """Singleton-free partition counts beta_0..beta_N, from the splitting
    identity ``beta[n+1] = B_n - beta[n]`` with ``beta0 = 1``."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return _PREFIX.betas_upto(N)[: N + 1]


def _beta_binomial(N: int) -> list[int]:
    """beta_0..beta_N by the binomial recurrence
    ``beta[n+1] = sum_{0<=j<=n-1} C(n,j) beta[j]``, ``beta1 = 0``: the
    route independent of B that the splitting identity is checked on."""
    beta = [1, 0]
    for n in range(1, N):
        beta.append(sum(comb(n, j) * beta[j] for j in range(n)))
    return beta[: N + 1]


def beta_from_bells(n: int, bells: Sequence[int]) -> int:
    """beta_n from Bell numbers: alternating sum of B_0..B_{n-1} plus (-1)^n."""
    if len(bells) < n:
        raise ValueError(f"need B_0..B_{n - 1}, got {len(bells)} values")
    s = sum((-1) ** (n - 1 - j) * bells[j] for j in range(n))
    return s + (-1) ** n


def _matsunaga_rows() -> Iterator[tuple[int, ...]]:
    """Matsunaga rows 1, 2, ...: those the prefix holds, then each next
    one as the prefix grows by it."""
    for n in count(1):
        rows = _PREFIX.matsunaga
        yield rows[n - 1] if n <= len(rows) else _PREFIX.matsunaga_upto(n)[n - 1]


def matsunaga_rows(N: int) -> TriangleTable:
    """Matsunaga triangle rows 1..N: ``M[n,k] = n M[n-1,k] + beta_n s[n,k]``
    with M zero for n <= 1.  Every row of the result sums to zero and the
    diagonal entry is beta_n.
    """
    return _table("matsunaga", 1, _matsunaga_rows(), N)


def _sum_form_row(n: int, k: int | None = None) -> list[int]:
    """Row n of the sum form, ``M[n,k]`` for k = 1..n, or the one entry
    ``[M[n,k]]`` when k is given, without the recurrence.

    ``sum_k M[n,k] x^(k-1) = sum_j c_j (x-1)...(x-j+1)`` with the integer
    ``c_j = beta_j n!/j!``, by Horner's rule: ``H = c_n``, then
    ``H = c_j + (x - j) H`` down to j = 1, each step a small multiplier.
    A coefficient of x^i after step j reaches only x^i .. x^(i+j-1), so
    for one entry each step keeps ``max(0, k - j) .. k - 1``, cut as
    ``_stirling_band`` cuts Stirling rows: the step takes the dropped
    coefficients as zero, which spoils only the ends the cut drops.
    """
    beta = _PREFIX.betas_upto(n)
    first = 1 if k is None else k
    h, lo, ratio = [beta[n]], 0, 1  # h[i] is the coefficient of x^(lo+i); ratio = n!/j!
    for j in range(n - 1, 0, -1):
        h = [a - j * b for a, b in zip([0] + h, h + [0])]
        if j >= first:
            ratio *= j + 1
            h[0] += beta[j] * ratio
        if k is not None:  # cutting the whole row would only cost it (up to 17 %)
            new_lo = max(0, k - j)
            h, lo = h[new_lo - lo:k - lo], new_lo
    return h


def matsunaga_via_sum(n: int, k: int) -> int:
    """``M[n,k] = n! sum_{k<=j<=n} (beta_j / j!) s[j,k]``, the unrolled
    form of the triangle recurrence, evaluated independently of it: entry
    k of ``_sum_form_row(n)``, carrying only the coefficients that can
    still reach it."""
    if not 1 <= k <= n:
        raise IndexError(f"(n={n}, k={k}) outside triangle")
    return _sum_form_row(n, k)[0]


def bell_matsunaga(n: int) -> HornerTrace:
    """Compute B_n by the Stirling-pipeline procedure.

    Evaluates ``sum_k M[n,k] n^k`` by Horner's rule
    ``n (M[n,1] + n (M[n,2] + ... + n (M[n,n-1] + M[n,n] n)))``,
    divides exactly by n! and adds 1.  Degenerate below n = 2 (the
    n = 1 row is all zero), so those inputs are rejected.
    """
    if n < 2:
        raise ValueError("procedure is degenerate for n < 2")
    row = _PREFIX.matsunaga_upto(n)[n - 1]
    acc = row[n - 1]
    partials = []
    for k in range(n - 1, 0, -1):
        acc = row[k - 1] + n * acc
        partials.append(acc)
    inner = n * acc
    bits = max(map(int.bit_length, chain(row, partials, (inner,))))
    q, rem = divmod(inner, factorial(n))
    if rem:
        raise ArithmeticError(f"inner sum not divisible by {n}! at n={n}")
    return HornerTrace(
        n=n,
        partial_values=tuple(partials),
        inner_sum=inner,
        max_bits=bits,
        result=q + 1,
    )


def bench_matsunaga_procedure(n: int) -> tuple[int, int]:
    """The Stirling-pipeline procedure as ``bench`` times it: (B_n, the
    largest intermediate bit length)."""
    tr = bell_matsunaga(n)
    return tr.result, tr.max_bits


def bench_arima_procedure(n: int) -> tuple[int, int]:
    """The b-table procedure as ``bench`` times it: (B_n, the largest bit
    length in rows 1..n and their last row's sum).  That is B_n's own:
    each ``b[m,k]`` is a term of row m's sum ``B_m <= B_n``."""
    total = sum(b_table_rows(n).row(n))
    return total, total.bit_length()


def weighted_matsunaga_rows(N: int) -> TriangleTable:
    """Rows 2..N of ``M[n,k] n^k``; row n sums to ``(B_n - 1) n!``."""
    if N < 2:
        raise ValueError("N must be >= 2")
    rows = tuple(tuple(map(mul, m, accumulate(repeat(n, n), mul)))
                 for n, m in enumerate(islice(_matsunaga_rows(), 1, N), start=2))
    return TriangleTable("weighted_matsunaga", 2, 1, rows)


def abs_matsunaga_row(n: int) -> list[int]:
    """The alternating-sign formula
    ``n! sum_{k<=j<=n} (-1)^(n-j) (beta_j / j!) |s[j,k]|`` for k = 1..n.

    Since ``|s[j,k]| = (-1)^(j-k) s[j,k]``, entry k is ``(-1)^(n-k)``
    times the sum form's ``M[n,k]``.  It equals ``|M[n,k]|`` everywhere
    except (n,k) = (3,1), where it gives the negative of the true absolute
    value; callers check for that one exceptional sign themselves.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [v if (n - k) % 2 == 0 else -v for k, v in enumerate(_sum_form_row(n), start=1)]


def pnv_eval(n: int, v: Fraction | int) -> Fraction:
    """``P_n(v) = sum_k |M[n,k]| v^k`` by direct summation: for v = p/q,
    ``q^n P_n(v) = p sum_k |M[n,k]| p^(k-1) q^(n-k)``, by Horner's rule in p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = Fraction(v)
    p, q = v.numerator, v.denominator
    acc, qpow = 0, 1  # qpow = q^(n-k)
    for c in reversed(_PREFIX.matsunaga_upto(n)[n - 1]):
        acc = acc * p + abs(c) * qpow
        qpow *= q
    return Fraction(acc * p, qpow)


def _pnv_scaled(n: int, p: int, q: int) -> int:
    """``q^n P_n(p/q)`` by the closed form, in integers.

    With m = n - j, ``C(v+m-1, m) = R_m / (m! q^m)`` for the rising
    product ``R_m = p (p+q) ... (p+(m-1)q)``, so
    ``q^n P_n(p/q) = sum_{1<=m<=n} (-1)^(n-m) beta_m R_m (n!/m!) q^(n-m)``
    (the m = 1 term is zero), summed by Horner's rule over m:
    ``T = beta_m R_m - m q T``.  The paper's form holds from n = 4 on; the
    routine evaluates it at any n >= 1.
    """
    beta = _PREFIX.betas_upto(n)
    total, rising = 0, 1
    for m in range(1, n + 1):
        rising *= p + (m - 1) * q
        total = beta[m] * rising - m * q * total
    return total


def pnv_closed(n: int, v: Fraction | int) -> Fraction:
    """Closed form ``P_n(v) = n! sum_{0<=j<=n-2} C(v+n-j-1, n-j) (-1)^j beta_{n-j}``.

    Only valid from n = 4 on (the low rows carry the (3,1) sign
    exception), so smaller n is refused rather than silently wrong.
    """
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    v = Fraction(v)
    return Fraction(_pnv_scaled(n, v.numerator, v.denominator), v.denominator**n)


def pn_at_n(N: int) -> tuple[list[int], list[int]]:
    """``P_n(n)`` and ``P_n(n)/n!`` for n = 1..N (index 0 unused, set to 0),
    copied from a growing prefix.  A new n comes from the closed form, or by
    direct summation for n = 1..3 (the closed form starts at 4); the
    normalized value is checked to be an integer.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    values, normalized = _PREFIX.pn_at_n_upto(N)
    return values[: N + 1], normalized[: N + 1]


def _shapes(n: int, smallest: int = 1) -> Iterator[tuple[tuple[int, int], ...]]:
    """Each partition of n into parts >= smallest, once, as (size, count)
    pairs with sizes increasing: the smallest size and its count, then
    the partitions of the rest into larger parts."""
    if not n:
        yield ()
    for size in range(smallest, n + 1):
        for count in range(1, n // size + 1):
            left = n - size * count
            if not left or left > size:  # 0 < left <= size splits into no larger parts
                for rest in _shapes(left, size + 1):
                    yield ((size, count),) + rest


def bell_polynomial_coefficient(shape: PartitionShape) -> int:
    """Number of set partitions of an n-set with the given block shape:
    ``n! / (prod_i (i!)^{k_i} k_i!)`` where k_i blocks have size i."""
    n, den = 0, 1
    for size, count in shape.counts:
        n += size * count
        den *= factorial(size) ** count * factorial(count)
    q, rem = divmod(factorial(n), den)
    if rem:
        raise ArithmeticError(f"non-integral coefficient for shape {shape.counts!r}")
    return q


def bell_via_shapes(n: int) -> int:
    """B_n as the sum of shape coefficients over all partitions of n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(bell_polynomial_coefficient(PartitionShape(s)) for s in _shapes(n))


def poisson_moments(mean: int, N: int) -> list[int]:
    """Raw moments 0..N of a Poisson variable with integer mean a.

    ``m_{n+1} = a * sum_j C(n,j) m_j``, evaluated by an Aitken-style array
    (additions, and one multiplication by a per row); a = 1 gives the Bell
    numbers, a = 2 the doubled-exponential analogue, and so on.
    """
    if mean < 1 or N < 0:
        raise ValueError("need mean >= 1 and N >= 0")
    return _PREFIX.poisson_upto(mean, N)[: N + 1]


def _poisson_terms(mean: int) -> Iterator[int]:
    """Poisson moments 0, 1, ... at ``mean`` (B_n at mean 1): the growing
    prefix, extended one term at a time as the stream is read."""
    for n in count():
        yield _PREFIX.poisson_upto(mean, n)[n]


def _beta_terms() -> Iterator[int]:
    """beta_0, beta_1, ...: the growing prefix, extended one term at a time
    as the stream is read."""
    for n in count():
        yield _PREFIX.betas_upto(n)[n]


def _arima_rows() -> Iterator[tuple[int, ...]]:
    """Arima rows 0, 1, ...: ``A[n,k] = C(n,k) B_{n-k}`` for k = 0..n; row
    n sums to B_{n+1}.  The binomials come row by row from Pascal's rule.
    The Bell prefix is read once, and extended only when a row needs a
    Bell number that it does not hold yet."""
    bells, binomials = _PREFIX.poisson_upto(1, 0), [1]
    for n in count():
        if n == len(bells):
            bells = _PREFIX.poisson_upto(1, n)
        yield tuple(map(mul, binomials, bells[n::-1]))
        binomials = [a + b for a, b in zip([0] + binomials, binomials + [0])]


def arima_rows(N: int) -> TriangleTable:
    """Arima triangle rows 1..N, from ``_arima_rows``."""
    _PREFIX.poisson_upto(1, N)  # one extension for every row, not one per row
    return _table("arima", 0, islice(_arima_rows(), 1, None), N)


def solve_bell_inverse(target: int) -> int | None:
    """Smallest n with B_n equal to the target, or None.

    Bell numbers increase strictly from n = 1 on, so the scan from n = 0
    stops as soon as they pass the target.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    for n, b in enumerate(_poisson_terms(1)):
        if b >= target:
            return n if b == target else None
