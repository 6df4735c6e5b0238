"""OEIS b-file parsing and the sequence cross-check registry.

b-file format: optional '#' comment lines, then one ``index value``
pair per line (whitespace separated), indices strictly increasing.

The registry maps each supported sequence to a source of fresh,
unbounded streams of its values in linear (row-major for triangles)
order plus the OEIS index of the first term, so a downloaded b-file can
be matched directly.  Offsets are configuration: they record how the
OEIS indexing lines up with this package's row conventions.
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import Callable, Iterator, NamedTuple

from . import distributions, exact

__all__ = [
    "MAX_TERMS",
    "BFileEntry",
    "BFileParseError",
    "SequenceSpec",
    "REGISTRY",
    "CheckResult",
    "parse_bfile",
    "check_bfile",
]

MAX_TERMS = 600  # terms compared by default, from the first index on


class BFileEntry(NamedTuple):
    index: int
    value: int


class BFileParseError(ValueError):
    """A b-file that cannot be read or parsed; ``line_number`` is None when
    the fault is in the file as a whole."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


def parse_bfile(text: str) -> list[BFileEntry]:
    """Parse b-file text into entries, validating the format strictly."""
    entries: list[BFileEntry] = []
    last_index = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"expected 'index value', got {raw!r}", lineno)
        try:
            idx = int(parts[0])
            val = int(parts[1])
        except ValueError:
            raise BFileParseError(f"non-integer field in {raw!r}", lineno) from None
        if last_index is not None and idx <= last_index:
            raise BFileParseError(f"index {idx} not increasing", lineno)
        last_index = idx
        entries.append(BFileEntry(index=idx, value=val))
    return entries


class SequenceSpec(NamedTuple):
    """One checkable sequence: a stream of its terms plus its OEIS offset."""

    oeis_id: str
    first_index: int
    terms: Callable[[], Iterator[int]]  # a fresh unbounded stream from the first index on
    aliases: tuple[str, ...] = ()


REGISTRY: dict[str, SequenceSpec] = {}


def _register(spec: SequenceSpec) -> None:
    REGISTRY[spec.oeis_id.lower()] = spec
    for a in spec.aliases:
        REGISTRY[a.lower()] = spec


# The sources of exact are looked up at call time, so a reset of its
# prefixes or a patched source reaches every new stream.  A triangle is
# read across row boundaries, so no row past the last term drawn is built.
_register(SequenceSpec("A000110", 0, lambda: exact._poisson_terms(1), aliases=("bell",)))
_register(SequenceSpec("A000296", 0, lambda: exact._beta_terms(), aliases=("beta",)))
_register(SequenceSpec("A001861", 0, lambda: exact._poisson_terms(2), aliases=("tilde-bell",)))
# the Arima source starts at row 0, the other sources of exact at row 1
_register(SequenceSpec("A008275", 1, lambda: chain.from_iterable(exact._stirling_rows()),
                       aliases=("stirling",)))
_register(SequenceSpec("A056857", 1, lambda: chain.from_iterable(exact._arima_rows()),
                       aliases=("arima",)))
_register(SequenceSpec("A056860", 1,
                       lambda: chain.from_iterable(r[::-1] for r in exact._arima_rows()),
                       aliases=("arima-reversed",)))
_register(SequenceSpec("A175757", 1, lambda: chain.from_iterable(
    r[1:] for r in islice(exact._arima_rows(), 1, None))))
_register(SequenceSpec("matsunaga", 1, lambda: chain.from_iterable(exact._matsunaga_rows())))
_register(SequenceSpec("b-table", 1, lambda: chain.from_iterable(exact._b_table_rows())))
# The variant triangles stream their row formulas from distributions' row
# table; each formula holds from the first OEIS index on, which may lie
# below the first n of its distribution.
for _id, _first in [("A033306", 0), ("A056856", 1), ("A220883", 1), ("A260887", 1),
                    ("A220884", 1), ("A124323", 0), ("A086659", 1), ("A078937", 0),
                    ("A078938", 0), ("A078939", 0)]:
    _register(SequenceSpec(_id, _first, lambda which=_id, first=_first: chain.from_iterable(
        map(distributions._ROWS[which.lower()][2], count(first)))))


class CheckResult(NamedTuple):
    sequence: str
    compared: int
    first_mismatch: BFileEntry | None
    expected: int | None

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None and self.compared > 0


def check_bfile(sequence: str, text: str, max_terms: int = MAX_TERMS) -> CheckResult:
    """Compare a b-file with the registry sequence at positions below
    max_terms only (index minus first index).  The whole file is parsed
    first; the terms are then drawn one per entry, and the comparison
    stops at the first mismatch, so no term past it is computed."""
    if max_terms < 0:
        raise ValueError(f"max_terms must be >= 0, got {max_terms}")
    key = sequence.lower()
    if key not in REGISTRY:
        raise KeyError(f"unknown sequence {sequence!r}")
    spec = REGISTRY[key]
    entries = parse_bfile(text)
    terms, drawn, compared = spec.terms(), 0, 0
    for e in entries:
        pos = e.index - spec.first_index
        if pos < 0:
            continue
        if pos >= max_terms:
            break  # the indices increase, so no later entry is usable
        # one islice per entry would cost more than the next() it replaces
        value = next(terms) if pos == drawn else next(islice(terms, pos - drawn, None))
        drawn = pos + 1
        if value != e.value:
            return CheckResult(spec.oeis_id, compared, e, value)
        compared += 1
    return CheckResult(spec.oeis_id, compared, None, None)
