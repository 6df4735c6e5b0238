#!/usr/bin/env python3
"""Compare the two Bell-number procedures head to head: wall time and
the bit length of the largest intermediate value, against the predicted
growth of the Horner pipeline's inner sum (log(B_n n!) in bits).

Usage: python scripts/bench_procedures.py [--max 120] [--repeats 3]
"""

from __future__ import annotations

import argparse
import math
import time
from dataclasses import dataclass

from bellnum import exact
from bellnum.asymptotic import bell_times_factorial_log_asym
from bellnum.cli import bench_arima_procedure, bench_matsunaga_procedure


@dataclass
class BenchConfig:
    max_n: int = 120
    repeats: int = 3

    def ladder(self) -> list[int]:
        ns, n = [], 4
        while n < self.max_n:
            ns.append(n)
            n *= 2
        ns.append(self.max_n)
        return sorted(set(ns))


def timed(fn, n: int, repeats: int) -> tuple[float, int, int]:
    best = math.inf
    for _ in range(repeats):
        exact._reset()  # time the procedure, not a lookup in the kernel's prefixes
        t0 = time.perf_counter()
        result, bits = fn(n)
        best = min(best, time.perf_counter() - t0)
    return best, bits, result


def run(cfg: BenchConfig) -> None:
    print(f"{'n':>5} {'t_horner':>10} {'t_table':>10} {'bits_h':>8} {'bits_t':>8} "
          f"{'ratio':>6} {'pred_bits_h':>11}")
    for n in cfg.ladder():
        tm, bm, rm = timed(bench_matsunaga_procedure, n, cfg.repeats)
        ta, ba, ra = timed(bench_arima_procedure, n, cfg.repeats)
        assert rm == ra, f"procedures disagree at n={n}"
        pred = bell_times_factorial_log_asym(n) / math.log(2) if n >= 3 else float("nan")
        print(f"{n:>5} {tm:>10.5f} {ta:>10.5f} {bm:>8} {ba:>8} "
              f"{bm / ba:>6.3f} {pred:>11.0f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=120, dest="max_n")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    run(BenchConfig(max_n=args.max_n, repeats=args.repeats))


if __name__ == "__main__":
    main()
