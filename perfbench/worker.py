"""The process that does the work of an in-process workload.

    python3 perfbench/worker.py WORKLOAD SEED [--trace] [--setup-only]

One caller, one request in flight. The worker imports the layer the
workload calls, builds its seeded session, and notes the monotonic time
at which the first request could be sent. It then sends the session's
requests in order, timing each call alone; the response digest is taken
between calls.
It prints one JSON line: keys, latencies, digests, peak RSS, and with
``--trace`` the span summary.
"""

from __future__ import annotations

import sys
import time

WORKLOAD_MODULE = {"kernel-reuse": "bellnum.exact", "oracle": "bellnum.partitions"}


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    trace = "--trace" in argv

    import importlib

    importlib.import_module(WORKLOAD_MODULE[workload])
    from workloads import library_call, session

    keys = session(workload, seed)
    ready = time.monotonic()
    if "--setup-only" in argv:
        print('{"ready": %r}' % ready)
        return 0

    import json

    from child import peak_rss_kb
    from digest import value_digest

    rec = None
    import_s = None
    if trace:
        from tracer import Recorder, install

        t0 = time.perf_counter()
        import bellnum.cli  # noqa: F401  (the traced layers include the CLI)
        import_s = time.perf_counter() - t0
        rec = Recorder()
        install(rec)

    lat, digs = [], []
    perf = time.perf_counter
    for key in keys:
        call = library_call(key)
        t0 = perf()
        try:
            result = call()
        except Exception as e:  # a failed request is counted, not fatal
            dt = perf() - t0
            dig = f"error:{type(e).__name__}"
        else:
            dt = perf() - t0
            dig = value_digest(result)
            del result
        lat.append(dt)
        digs.append(dig)
    doc = {
        "ready": ready,
        "keys": keys,
        "lat": lat,
        "dig": digs,
        "rss_kb": peak_rss_kb(),
        "import_s": import_s,
        "trace": rec.summary() if rec else None,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
