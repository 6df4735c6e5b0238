"""bellnum benchmark: three closed-loop workloads and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: kernel-reuse, oracle,
cli-cold (see perfbench/README.md). With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of the traced run. Every run also writes
a run record under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

from child import REPORT_MARK  # noqa: E402  (perfbench/ is sys.path[0])
from digest import cli_digest  # noqa: E402
from workloads import BFILES, WORKLOADS, cli_argv, session, write_bfiles  # noqa: E402

MIN_REPEATS = 3           # replays of the session per run, however long they take
WORKER_TIMEOUT_S = 150    # one in-process session
CHILD_TIMEOUT_S = 120     # one cli-cold request
WASTE_COMMAND = ["asym", "bell", "20,40"]
WASTE_FUNCTIONS = ("exact.beta_numbers", "asymptotic.tilde_bell_exact")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    """Children import the package from this checkout, with a bytecode
    cache of their own that the first child writes, as an installed
    package would have; the caller's environment cannot switch it off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(cmd: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; return its spawn time and result."""
    t = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, env=_env(), cwd=ROOT, timeout=timeout)
    return t, proc


# ------------------------------------------------------------- statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th-largest sample, by nearest rank."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        raise BenchError(f"only {n} samples: a tail needs at least 11")
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(lat_s: list[float], busy_s: float, setup: list[float], rss_kb: int,
               attempted: int, failed: int) -> tuple[dict, dict]:
    tail_s, pct = tail(lat_s)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_rps": (len(lat_s) / busy_s, "1/s"),
        "latency_p50_ms": (statistics.median(lat_s) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {"requests": len(lat_s), "tail_percentile": pct,
             "setup_samples": len(setup)}
    return metrics, notes


# --------------------------------------------------------------- workloads


def _worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), *extra]
    t, proc = _run(cmd, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    doc = json.loads(proc.stdout.decode().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - t
    return doc


def inprocess_pass(workload: str, seed: int, refs: dict, trace: bool = False) -> dict:
    """One session in a fresh worker. A request's busy time is the call."""
    doc = _worker(workload, seed, *(["--trace"] if trace else []))
    ref = refs[workload]
    doc["bad"] = [k for k, d in zip(doc["keys"], doc["dig"]) if ref.get(k) != d]
    doc["busy"] = doc["lat"]
    doc["setup"] = [doc["setup_s"]]
    return doc


def cli_request(key: str, bfiles: dict, trace: bool) -> dict:
    argv = cli_argv(key, bfiles)
    cmd = [sys.executable, str(HERE / "child.py")] + (["--trace"] if trace else []) + ["--", *argv]
    t, proc = _run(cmd, timeout=CHILD_TIMEOUT_S)
    busy = time.monotonic() - t
    err = proc.stderr.decode("utf-8", errors="replace")
    head, mark, report = err.rpartition(REPORT_MARK)
    if not mark:
        return {"key": key, "busy_s": busy, "report": None, "digest": None, "stderr": err[-500:]}
    rep = json.loads(report)
    return {"key": key, "busy_s": busy, "report": rep, "code": proc.returncode,
            "setup_s": rep["ready"] - t,
            "digest": cli_digest(key.split(), proc.returncode, proc.stdout),
            "stderr": head[-500:]}


def cli_pass(seed: int, refs: dict, bfiles: dict, trace: bool = False) -> dict:
    """One session, each request a fresh child. A request's busy time is
    spawn to exit, as a shell loop sees it; its latency is main()."""
    reqs = [cli_request(key, bfiles, trace) for key in session("cli-cold", seed)]
    done = [r for r in reqs if r["report"] is not None]
    ref = refs["cli-cold"]
    return {
        "reqs": reqs,
        "keys": [r["key"] for r in reqs],
        "lat": [r["report"]["main_s"] if r["report"] else None for r in reqs],
        "busy": [r["busy_s"] if r["report"] else None for r in reqs],
        "setup": [r["setup_s"] for r in done],
        # each child is a process that does the work: the highest child's peak
        "rss_kb": max((r["report"]["rss_kb"] for r in done), default=0),
        "bad": [r["key"] for r in reqs if ref.get(r["key"]) != r["digest"]],
    }


def repeat(one_pass, seconds: float) -> list[dict]:
    """Replay the session, each time in fresh processes, until the next
    replay would end past ``seconds``; at least MIN_REPEATS times."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(one_pass())
        spent = time.monotonic() - start
        if len(passes) >= MIN_REPEATS and spent * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pooled(passes: list[dict], field: str) -> list[float]:
    """The times of every request of every replay; a failed child has none."""
    return [x for p in passes for x in p[field] if x is not None]


def _rows(passes: list[dict]) -> list[dict]:
    """Per request of the session: its latency in every replay; for
    cli-cold also each child's set-up and peak RSS."""
    rows = []
    for i, key in enumerate(passes[0]["keys"]):
        row = {"key": key, "latency_ms": [p["lat"][i] * 1e3 for p in passes
                                          if p["lat"][i] is not None]}
        if "reqs" in passes[0]:
            reqs = [p["reqs"][i] for p in passes if p["reqs"][i]["report"]]
            row["setup_ms"] = [r["setup_s"] * 1e3 for r in reqs]
            row["rss_mb"] = max((r["report"]["rss_kb"] / 1024 for r in reqs), default=None)
        rows.append(row)
    return rows


def run_workload(workload: str, seed: int, seconds: float, refs: dict, bfiles: dict):
    """Untraced run: (metrics, notes, per-request rows, attempted, failed)."""
    if workload == "cli-cold":
        cli_request("genjiko", bfiles, False)  # writes the package's bytecode cache
        passes = repeat(lambda: cli_pass(seed, refs, bfiles), seconds)
    else:
        _worker(workload, seed, "--setup-only")  # writes the bytecode cache
        passes = repeat(lambda: inprocess_pass(workload, seed, refs), seconds)
    setup = [s for p in passes for s in p["setup"]]
    rss_kb = max(p["rss_kb"] for p in passes)
    attempted = sum(len(p["keys"]) for p in passes)
    bad = [k for p in passes for k in p["bad"]]
    metrics, notes = end_to_end(pooled(passes, "lat"), sum(pooled(passes, "busy")), setup,
                                rss_kb, attempted, len(bad))
    notes["replays"] = len(passes)
    notes["session_requests"] = len(passes[0]["keys"])
    notes["setup_samples_s"] = setup
    notes["mismatched"] = bad[:20]
    return metrics, notes, _rows(passes), attempted, len(bad)


# ------------------------------------------------------------------ traced


def _layer_metrics(summaries: list[dict], import_s: float, out_bytes: int,
                   overhead: float) -> dict:
    total = {}
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    m = {}
    for layer in ("exact", "partitions", "distributions", "asymptotic", "oeis", "cli"):
        m[f"{layer}.calls"] = (total.get(f"{layer}.calls", 0), "count")
        m[f"{layer}.self_s"] = (total.get(f"{layer}.self_s", 0.0), "s")
    rows = total.get("exact.rows_built", 0)
    ideal = total.get("exact.max_rows_sum", 0)
    visits = total.get("partitions.visits", 0)
    part_s = total.get("partitions.self_s", 0.0)
    m["exact.rows_built"] = (rows, "count")
    m["exact.rebuild_ratio"] = (rows / ideal if ideal else 0.0, "ratio")
    m["partitions.visits"] = (visits, "count")
    m["partitions.visits_per_s"] = (visits / part_s if part_s else 0.0, "1/s")
    m["distributions.support_points"] = (total.get("distributions.support_points", 0), "count")
    m["asymptotic.saddle_solves"] = (total.get("asymptotic.saddle_solves", 0), "count")
    m["asymptotic.saddle_iterations"] = (total.get("asymptotic.saddle_iterations", 0), "count")
    m["oeis.terms_compared"] = (total.get("oeis.terms_compared", 0), "count")
    m["cli.import_s"] = (import_s, "s")
    m["cli.output_bytes"] = (out_bytes, "bytes")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def _selfcheck(bfiles: dict) -> dict:
    _, proc = _run([sys.executable, str(HERE / "child.py"), "--selfcheck", bfiles["stirling"]],
                   timeout=CHILD_TIMEOUT_S)
    err = proc.stderr.decode("utf-8", errors="replace")
    _, mark, report = err.rpartition(REPORT_MARK)
    if proc.returncode != 0 or not mark:
        return {"ok": False, "error": err[-2000:]}
    rep = json.loads(report)
    rep["ok"] = not rep["mismatches"]
    return rep


def _known_waste(bfiles: dict) -> dict:
    """Which producers ``asym bell`` runs under cli.cmd_asym, though it
    prints only the Bell column."""
    req = cli_request(" ".join(WASTE_COMMAND), bfiles, trace=True)
    under = set(req["report"]["trace"]["under"].get("cli.cmd_asym", ())) if req["report"] else set()
    return {"command": " ".join(WASTE_COMMAND),
            "under_cmd_asym": {f: f in under for f in WASTE_FUNCTIONS},
            "exact.rows_built": req["report"]["trace"]["exact.rows_built"] if req["report"] else None}


def run_traced(workload: str, seed: int, seconds: float, refs: dict, bfiles: dict):
    """Untraced replays for half the time, then one traced replay."""
    half = seconds / 2
    if workload == "cli-cold":
        cli_request("genjiko", bfiles, False)
        passes = repeat(lambda: cli_pass(seed, refs, bfiles), half)
        traced = cli_pass(seed, refs, bfiles, trace=True)
        done = [r["report"] for r in traced["reqs"] if r["report"]]
        summaries = [d["trace"] for d in done]
        import_s = statistics.median(d["import_s"] for d in done)
        out_bytes = sum(d["out_bytes"] for d in done)
    else:
        _worker(workload, seed, "--setup-only")
        passes = repeat(lambda: inprocess_pass(workload, seed, refs), half)
        traced = inprocess_pass(workload, seed, refs, trace=True)
        summaries = [traced["trace"]]
        import_s = traced["import_s"]
        out_bytes = 0
    base_s = statistics.median(sum(x for x in p["lat"] if x is not None) for p in passes)
    traced_s = sum(x for x in traced["lat"] if x is not None)
    metrics = _layer_metrics(summaries, import_s, out_bytes, traced_s / base_s - 1.0)
    functions: dict[str, list] = {}
    for s in summaries:
        for q, (calls, self_s) in s["functions"].items():
            f = functions.setdefault(q, [0, 0.0])
            f[0] += calls
            f[1] += self_s
    bad = [k for p in passes + [traced] for k in p["bad"]]
    notes = {
        "requests": len(traced["keys"]),
        "replays": len(passes),
        "untraced_busy_s": base_s,
        "traced_busy_s": traced_s,
        "functions": functions,
        "selfcheck": _selfcheck(bfiles),
        "known_waste": _known_waste(bfiles),
        "mismatched": bad[:20],
    }
    attempted = sum(len(p["keys"]) for p in passes + [traced])
    return metrics, notes, _rows(passes), attempted, len(bad)


# -------------------------------------------------------------------- main


def host_ref_ms() -> float:
    """Best of five timings of a fixed pure-Python loop: how fast the vCPU
    ran at that moment. Recorded before and after a run, never used in a
    metric, so that a run taken in a slow phase of the host shows."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "bellnum" / "cli.py").is_file():
        print(f"error: no bellnum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    sys.set_int_max_str_digits(0)  # b-files hold integers of any size
    # the other workloads need only the b-file of the tracer self-check
    bfiles = write_bfiles(WORK / "bfiles",
                          BFILES if args.workload == "cli-cold" else ("stirling",))

    started = time.time()
    ref_before = host_ref_ms()
    runner = run_traced if args.trace else run_workload
    metrics, notes, rows, attempted, failed = runner(
        args.workload, args.seed, args.seconds, refs, bfiles)
    notes["host_ref_ms"] = [ref_before, host_ref_ms()]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started_unix": started,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **notes,
        "per_request": rows,
    }
    rec_path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_path.parent.mkdir(parents=True, exist_ok=True)
    rec_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  requests {notes['requests']}"
          + (f"  tail p{notes['tail_percentile']:.2f}" if "tail_percentile" in notes else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    if args.trace:
        sc = notes["selfcheck"]
        print(f"tracer self-check (recorder vs cProfile call counts): "
              f"{'ok' if sc['ok'] else 'MISMATCH'}"
              + (f", {sc['functions_checked']} functions" if "functions_checked" in sc else ""))
        kw = notes["known_waste"]
        built = [f for f, seen in kw["under_cmd_asym"].items() if seen]
        if built:
            print(f"known waste: `{kw['command']}` builds {', '.join(built)} under "
                  f"cli.cmd_asym although it prints only the Bell column")
    print(f"run record: {rec_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
