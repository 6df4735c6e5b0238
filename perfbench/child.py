"""One ``bellnum`` command in a fresh interpreter, timed from inside.

    python3 perfbench/child.py [--trace] -- ARGV...
    python3 perfbench/child.py --selfcheck BFILE

The command's stdout is passed through unchanged once ``main()`` has
returned, and the exit code is ``main()``'s. The last line of stderr is
a record separator followed by a JSON report: the monotonic time at
which ``import bellnum.cli`` finished, the import time, ``main()``'s
time, the peak RSS, and, with ``--trace``, the span summary.

``--selfcheck`` runs a fixed set of commands under both the span
recorder and cProfile, and reports every public function whose call
count differs between the two.
"""

from __future__ import annotations

# only what the interpreter has loaded anyway comes before the timed import
import sys
import time

REPORT_MARK = "\x1e"


def _report(doc: dict) -> None:
    import json

    sys.stderr.write(REPORT_MARK + json.dumps(doc) + "\n")
    sys.stderr.flush()


def peak_rss_kb() -> int:
    """Peak RSS of this process image. ``ru_maxrss`` is not used: after
    fork and exec it keeps the high-water mark of the parent's image."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_main(cli, argv: list[str]) -> tuple[int, str]:
    import io

    buf = io.StringIO()
    real = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = real
    return code, buf.getvalue()


def run_command(argv: list[str], trace: bool) -> int:
    t_import = time.monotonic()
    import bellnum.cli as cli
    ready = time.monotonic()
    rec = None
    if trace:
        from tracer import Recorder, install

        rec = Recorder()
        install(rec)
    t0 = time.perf_counter()
    code, out = _run_main(cli, argv)
    main_s = time.perf_counter() - t0
    data = out.encode("utf-8")
    sys.stdout.buffer.write(data)
    sys.stdout.flush()
    _report({
        "ready": ready,
        "import_s": ready - t_import,
        "main_s": main_s,
        "rss_kb": peak_rss_kb(),
        "out_bytes": len(data),
        "trace": rec.summary() if rec else None,
    })
    return code


SELFCHECK_COMMANDS = (
    ["verify", "all", "6"],
    ["llt", "a056856", "10,20", "--centering", "asym"],
    ["llt", "matsunaga", "10,20"],
    ["asym", "stirling", "40,80"],
    ["asym", "bell", "20,40"],
)


def selfcheck(bfile: str) -> int:
    import cProfile
    import inspect
    import pstats

    import bellnum.cli as cli
    from tracer import Recorder, install

    rec = Recorder()
    originals = install(rec)
    commands = list(SELFCHECK_COMMANDS) + [["oeis-check", "stirling", bfile, "--max-n", "300"]]
    prof = cProfile.Profile()
    prof.enable()
    codes = [_run_main(cli, argv)[0] for argv in commands]
    prof.disable()
    stats = pstats.Stats(prof).stats
    mismatches = []
    checked = 0
    for qual, fn in sorted(originals.items()):
        if inspect.isgeneratorfunction(fn):
            continue  # cProfile counts every resumption of a generator
        code = fn.__code__
        ncalls = stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]
        checked += 1
        if ncalls != rec.calls[qual]:
            mismatches.append({"function": qual, "recorder": rec.calls[qual], "cprofile": ncalls})
    _report({"commands": [" ".join(c) for c in commands], "exit_codes": codes,
             "functions_checked": checked, "functions_called": len(rec.calls),
             "mismatches": mismatches})
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--selfcheck"]:
        sys.exit(selfcheck(args[1]))
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    if args[:1] != ["--"]:
        sys.exit("usage: child.py [--trace] -- ARGV... | child.py --selfcheck BFILE")
    sys.exit(run_command(args[1:], trace))
