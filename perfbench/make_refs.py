"""Regenerate the reference responses in refs.json from the code at hand.

    python3 perfbench/make_refs.py [WORKLOAD...]

Run it on the commit whose outputs are the reference (the references in
the repository come from the seed code). Every request a workload can
send is run once: library calls in this process, CLI requests each in a
fresh interpreter, exactly as the benchmark sends them.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, WORK, cli_request
from workloads import WORKLOADS, library_call, universe, write_bfiles

REFS = HERE / "refs.json"


def library_refs(workload: str) -> dict[str, str]:
    from digest import value_digest

    sys.path.insert(0, str(ROOT / "src"))
    return {key: value_digest(library_call(key)()) for key in universe(workload)}


def cli_refs() -> dict[str, str]:
    bfiles = write_bfiles(WORK / "bfiles")
    refs = {}
    for key in universe("cli-cold"):
        req = cli_request(key, bfiles, trace=False)
        if req["report"] is None or req["code"] != 0:
            raise SystemExit(f"{key}: failed\n{req['stderr']}")
        refs[key] = req["digest"]
    return refs


def main(names: list[str]) -> int:
    refs = json.loads(REFS.read_text(encoding="utf-8")) if REFS.exists() else {}
    sys.set_int_max_str_digits(0)
    for workload in names or WORKLOADS:
        refs[workload] = cli_refs() if workload == "cli-cold" else library_refs(workload)
        print(f"{workload}: {len(refs[workload])} references", file=sys.stderr)
    REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
