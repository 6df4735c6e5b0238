"""Request universes of the three workloads and their seeded order.

Every request is a string key. For the in-process workloads the key is a
public function of ``bellnum`` and its arguments; for ``cli-cold`` it is
a ``bellnum`` argv. ``refs.json`` holds the reference response of every
key a workload can send, so any seed can be checked.

A run replays one seeded session of requests several times. A session
is a few rounds: each round holds every kind of the workload once, in a
seeded order, and each kind draws its variants stratified over their
range. The mix of a session therefore stays the same from seed to seed;
the seed moves the order and the sizes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pathlib import Path

WORKLOADS = ("kernel-reuse", "oracle", "cli-cold")


def _kernel_kinds() -> dict[str, list[str]]:
    def sized(name, lo, hi):
        return [f"{name} {n}" for n in range(lo, hi + 1)]

    kinds = {name: sized(name, 60, 240) for name in (
        "bell_numbers", "beta_numbers", "stirling_signed_rows",
        "stirling_unsigned_rows", "b_table_rows")}
    kinds |= {name: sized(name, 40, 160) for name in (
        "matsunaga_rows", "weighted_matsunaga_rows", "arima_rows", "bell_matsunaga")}
    kinds["poisson_moments"] = [f"poisson_moments {a} {n}" for a in (1, 2, 3)
                                for n in range(40, 161)]
    kinds["pn_at_n"] = sized("pn_at_n", 10, 40)
    kinds["abs_matsunaga_row"] = sized("abs_matsunaga_row", 10, 50)
    kinds["matsunaga_via_sum"] = [
        f"matsunaga_via_sum {n} {k}" for n in range(20, 81)
        for k in sorted({1, 2, n // 4, n // 2, 3 * n // 4, n - 1, n})]
    for name in ("pnv_eval", "pnv_closed"):
        kinds[name] = [f"{name} {n} {v}" for n in range(20, 81)
                       for v in ("1", str(n), "-1/2", "7/3")]
    return kinds


def _oracle_kinds() -> dict[str, list[str]]:
    # an odd number of kinds puts the median of a run inside one kind's block
    kinds = {f"enumerate_partitions {n}": [f"enumerate_partitions {n}"] for n in range(7, 12)}
    kinds |= {f"enumerate_visit {n}": [f"enumerate_visit {n}"] for n in range(6, 11)}
    kinds |= {f"collect_stats {n}": [f"collect_stats {n}"] for n in range(6, 12)}
    kinds["genjiko_patterns"] = ["genjiko_patterns"]
    return kinds


FORMATS = ("text", "csv", "json")
# b-files the benchmark writes during set-up: name -> (sequence, terms)
BFILES = {
    "bell": ("A000110", 630),
    "beta": ("A000296", 400),
    "tilde-bell": ("A001861", 440),
    "stirling": ("A008275", 11325),  # rows 1..150
    "matsunaga": ("matsunaga", 7260),  # rows 1..120
    "arima": ("A056857", 7381),  # rows 0..120
}


def _cli_kinds() -> dict[str, list[str]]:
    """One size per command, chosen so that main() takes several times
    the interpreter's start-up; the seed draws format and centering."""

    def fmts(base, formats=FORMATS):
        return [f"{b} --format {f}" for b in base for f in formats]

    kinds = {
        "table bell": fmts(["table bell 650 --max-n 700"]),
        "table beta": fmts(["table beta 450"]),
        "table pn-at-n": fmts(["table pn-at-n 75"]),
    }
    # triangles print megabytes; as JSON they would need hundreds of MB of RSS
    for target, n in (("stirling", 220), ("matsunaga", 190), ("weighted-matsunaga", 150),
                      ("arima", 200), ("b-table", 220)):
        kinds[f"table {target}"] = fmts([f"table {target} {n}"], ("text", "csv"))
    for suite, n in (("identities", 40), ("oracle", 10), ("variants", 65), ("all", 10)):
        kinds[f"verify {suite}"] = [f"verify {suite} {n}"]
    for target, ladder in (("beta", "85,170,340"), ("bell", "85,170,340"),
                           ("tilde-bell", "85,170,340"), ("stirling", "250,500,900"),
                           ("beta-ratio", "150,300,450")):
        kinds[f"asym {target}"] = fmts([f"asym {target} {ladder}"])
    for family, ladder in (("matsunaga", "60,180,340"), ("weighted-matsunaga", "60,160,300"),
                           ("arima", "120,240,380"), ("arima-reversed", "150,300,600"),
                           ("a033306", "150,300,500"), ("a056856", "120,240,480"),
                           ("a220883", "120,240,480"), ("a124323", "100,200,450")):
        kinds[f"llt {family}"] = fmts(f"llt {family} {ladder} --centering {c}"
                                      for c in ("exact", "asym"))
    kinds["bench"] = fmts(["bench 400 --repeats 3"])
    kinds["genjiko"] = ["genjiko"]
    for name, (_, terms) in BFILES.items():
        kinds[f"oeis-check {name}"] = [f"oeis-check {name} {{bfile:{name}}} --max-n {terms}"]
    return kinds


KINDS = {
    "kernel-reuse": _kernel_kinds(),
    "oracle": _oracle_kinds(),
    "cli-cold": _cli_kinds(),
}


# rounds in one session: enough to spread each kind's sizes over their
# range, few enough that a run replays the session several times
ROUNDS = {"kernel-reuse": 24, "oracle": 3, "cli-cold": 1}


def session(workload: str, seed: int) -> list[str]:
    """The seeded request keys of one session, in rounds.

    Each round holds every kind once, in a seeded order. A kind's
    variants are cut into as many contiguous strata as there are rounds,
    and each round takes one variant from its own stratum, so the sizes
    of a session spread over the whole range whatever the seed."""
    rng = random.Random(f"{workload}:{seed}")
    kinds = KINDS[workload]
    rounds = ROUNDS[workload]
    picks = {}
    for kind, variants in kinds.items():
        n = len(variants)
        chosen = []
        for r in range(rounds):
            lo = r * n // rounds
            chosen.append(variants[rng.randrange(lo, max((r + 1) * n // rounds, lo + 1))])
        rng.shuffle(chosen)
        picks[kind] = chosen
    names = list(kinds)
    keys = []
    for r in range(rounds):
        rng.shuffle(names)
        keys += [picks[kind][r] for kind in names]
    return keys


def universe(workload: str) -> list[str]:
    return [key for variants in KINDS[workload].values() for key in variants]


# ------------------------------------------------------------ in-process


def _arg(token: str):
    return Fraction(token) if "/" in token else int(token)


def library_call(key: str):
    """Resolve a library key to a zero-argument callable. The modules are
    looked up when the call is made, so a traced run sees its wrappers."""
    name, *tokens = key.split()
    args = [_arg(t) for t in tokens]
    if name == "enumerate_visit":
        from bellnum import partitions

        def visit_call():
            hist = [0] * (args[0] + 1)

            def visitor(codes):
                hist[max(codes) + 1] += 1

            return partitions.enumerate_partitions(args[0], visitor), hist

        return visit_call
    if name in ("enumerate_partitions", "collect_stats", "genjiko_patterns"):
        from bellnum import partitions as module
    else:
        from bellnum import exact as module
    fn = getattr(module, name)
    return lambda: fn(*args)


# ---------------------------------------------------------------- b-files


def _bell_triangle(count: int) -> list[int]:
    """B_0..B_{count-1} from Aitken's array (additions only)."""
    bells = [1]
    row = [1]
    while len(bells) < count:
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return bells


def _stirling1_rows(rows: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind, rows 1..rows, k = 1..n."""
    out = [[1]]
    for n in range(2, rows + 1):
        prev = out[-1] + [0]
        out.append([(prev[k - 2] if k >= 2 else 0) - (n - 1) * prev[k - 1]
                    for k in range(1, n + 1)])
    return out


def _bfile_terms(name: str, terms: int) -> tuple[int, list[int]]:
    """(first index, terms) of one b-file, computed independently of the
    package."""
    from math import comb

    rows = 1
    while rows * (rows + 1) // 2 < terms + 200:
        rows += 1
    if name in ("bell", "beta", "tilde-bell"):
        bells = _bell_triangle(terms + 1)
        if name == "bell":
            return 0, bells[:terms]
        if name == "beta":
            beta = [1]  # splitting identity B_n = beta_(n+1) + beta_n
            for n in range(terms - 1):
                beta.append(bells[n] - beta[n])
            return 0, beta
        return 0, [sum(comb(n, k) * bells[k] * bells[n - k] for k in range(n + 1))
                   for n in range(terms)]
    s = _stirling1_rows(rows)
    if name == "stirling":
        return 1, [v for row in s for v in row][:terms]
    if name == "arima":
        bells = _bell_triangle(rows + 1)
        flat = [1] + [comb(n, k) * bells[n - k] for n in range(1, rows + 1)
                      for k in range(n + 1)]
        return 1, flat[:terms]
    # Matsunaga triangle: M[n,k] = n M[n-1,k] + beta_n s[n,k], zero row at n = 1
    bells = _bell_triangle(rows + 1)
    beta = [1]
    for n in range(rows):
        beta.append(bells[n] - beta[n])
    m = [[0]]
    for n in range(2, rows + 1):
        prev = m[-1] + [0]
        m.append([n * prev[k - 1] + beta[n] * s[n - 1][k - 1] for k in range(1, n + 1)])
    return 1, [v for row in m for v in row][:terms]


def write_bfiles(directory: Path, names=tuple(BFILES)) -> dict[str, str]:
    """Write the named b-files of the cli-cold matrix; return name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        seq, terms = BFILES[name]
        first, values = _bfile_terms(name, terms)
        path = directory / f"b-{name}.txt"
        lines = [f"# {seq}: {terms} terms written by the benchmark"]
        lines += [f"{first + i} {v}" for i, v in enumerate(values)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def cli_argv(key: str, bfiles: dict[str, str]) -> list[str]:
    argv = key.split()
    for i, tok in enumerate(argv):
        if tok.startswith("{bfile:"):
            argv[i] = bfiles[tok[len("{bfile:"):-1]]
    return argv
