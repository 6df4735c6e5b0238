"""Golden output matrix: the exit code, the sha256 of stdout and stderr
verbatim (``err``) for a fixed argv matrix: every subcommand x format at
small N, every LLT family at n = 0..5, and the usage errors, cap
refusals and b-file faults.

A refactor that changes a single byte of output fails here.  The one
documented non-deterministic field, ``bench``'s ``wall_time_s`` column,
is masked before hashing; in stderr the b-file directory is masked, and
``COLUMNS`` is pinned because argparse wraps usage and help to it.  To
record the digests of the code on the path, run
``python tests/test_golden.py --record``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from bellnum.cli import main
from test_cli import AT_CAP, BEYOND_CAP, CAPPED, _parity_argvs

GOLDEN = Path(__file__).with_name("golden.json")
FORMATS = ("text", "csv", "json")
MASK = "*"

# b-files with fixed contents, so the matrix does not depend on the
# package to produce its own inputs
BFILES = {
    "bell": "# A000110\n" + "".join(
        f"{i} {v}\n" for i, v in enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147])),
    # beta_7 = 715, written wrong on purpose
    "beta-bad": "".join(
        f"{i} {v}\n" for i, v in enumerate([1, 0, 1, 1, 4, 11, 41, 716, 3425])),
    "matsunaga": "".join(
        f"{i} {v}\n" for i, v in enumerate(
            [0, -1, 1, -1, 0, 1, -28, 44, -20, 4, 124, -330, 285, -90, 11], start=1)),
    "stirling": "".join(
        f"{i} {v}\n" for i, v in enumerate([1, -1, 1, 2, -3, 1, -6, 11, -6, 1], start=1)),
    "garbage": "0 1\n1 x\n",
    "fields": "0 1\n1 1 1\n",
    "order": "# A000110\n0 1\n\n2 2\n1 1\n",
    "latin1": b"0 1\n1 1\n2 \xff\n",
}
LLT_FAMILIES = ("matsunaga", "weighted-matsunaga", "arima", "arima-reversed", "a033306",
                "a056856", "a220883", "a260887", "a220884", "a124323")


def _matrix() -> list[list[str]]:
    m: list[list[str]] = []

    def fmts(*argv: str) -> None:
        for f in FORMATS:
            m.append([*argv, "--format", f])

    for seq in ("stirling", "matsunaga", "weighted-matsunaga", "arima", "bell", "beta",
                "pn-at-n", "b-table"):
        fmts("table", seq, "7")
    fmts("table", "bell", "0")
    fmts("table", "beta", "1")
    m += [["table", "stirling", "0"], ["table", "bell", "30", "--max-n", "20"]]
    # larger triangles: two-digit n and k columns, and value columns whose
    # width is set by a minus sign
    for seq in ("stirling", "matsunaga", "weighted-matsunaga", "arima", "b-table"):
        for f in ("text", "csv"):
            m.append(["table", seq, "40", "--format", f])
    m.append(["table", "stirling", "60", "--format", "text"])
    for suite, n in (("identities", "14"), ("oracle", "6"), ("variants", "12"), ("all", "7")):
        fmts("verify", suite, n)
    m += [["verify", "identities", "3"], ["verify", "variants", "1"]]
    for target in ("beta", "bell", "tilde-bell"):
        fmts("asym", target, "5,10,20,40")
    fmts("asym", "stirling", "4,10,30")
    fmts("asym", "beta-ratio", "4,10,30")
    fmts("asym", "phi")
    m += [["asym", "beta-ratio", "1"], ["asym", "beta-ratio", "2"], ["asym", "beta-ratio", "3"],
          ["asym", "beta", "1"], ["asym", "stirling", "3"], ["asym", "bell", ","]]
    for family in LLT_FAMILIES:
        fmts("llt", family, "8,16,32")
        m.append(["llt", family, "8,16,32", "--centering", "asym"])
    fmts("llt", "arima", "6", "--hist")
    m.append(["llt", "arima", ","])
    fmts("bench", "20", "--repeats", "2")
    fmts("genjiko")
    for seq, name in (("bell", "bell"), ("beta", "beta-bad"), ("matsunaga", "matsunaga"),
                      ("stirling", "stirling"), ("bell", "garbage")):
        m.append(["oeis-check", seq, f"{{bfile:{name}}}"])
    # the smallest rows of every family, and the refusals below each domain
    for family in LLT_FAMILIES:
        for n in range(6):
            for extra in ((), ("--hist",), ("--centering", "asym")):
                m.append(["llt", family, str(n), *extra])
    m += _parity_argvs()
    m += [argv for argv, _, _ in BEYOND_CAP] + AT_CAP
    m += [[*argv, "--max-n", "-1"] for argv in CAPPED]
    # b-files that cannot be read or parsed ("missing" is never written)
    for name in ("fields", "order", "latin1", "missing"):
        m.append(["oeis-check", "bell", f"{{bfile:{name}}}"])
    m += [["oeis-check", "A999999", "{bfile:bell}"],
          ["oeis-check", "bell", "{bfile:bell}", "--max-n", "-1"]]
    return m


MATRIX = _matrix()


def _mask_bench(argv: list[str], out: str) -> str:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    if fmt == "json":
        doc = json.loads(out)
        for row in doc["rows"]:
            row["wall_time_s"] = MASK
        return json.dumps(doc, sort_keys=True)
    sep = "," if fmt == "csv" else None
    rows = [line.split(sep) for line in out.splitlines()]
    col = rows[0].index("wall_time_s")
    for cells in rows[1:]:
        cells[col] = MASK
    # text columns are padded to the widest cell, so widths go with the mask
    return "\n".join(" ".join(cells) for cells in rows)


def run_argv(argv: list[str], bfile_dir: Path) -> dict:
    for name, text in BFILES.items():
        path = bfile_dir / f"b-{name}.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
    real = [str(bfile_dir / f"b-{a[len('{bfile:'):-1]}.txt") if a.startswith("{bfile:") else a
            for a in argv]
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(real)
    out = buf.getvalue()
    if argv[:1] == ["bench"] and code == 0 and "-h" not in argv:
        out = _mask_bench(argv, out)
    return {"code": code, "err": err.getvalue().replace(str(bfile_dir), "{bfiles}"),
            "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_matrix_is_recorded(golden):
    keys = [" ".join(a) for a in MATRIX]
    assert len(set(keys)) == len(keys)
    assert sorted(golden) == sorted(keys)


@pytest.mark.parametrize("argv", MATRIX, ids=" ".join)
def test_golden(argv, golden, tmp_path):
    assert run_argv(argv, tmp_path) == golden[" ".join(argv)]


# the order of a set of strings follows the hash seed; no output may
HASH_SEED_ARGV = [["verify", "all", "7", "--format", "text"],
                  ["llt", "arima", "6", "--hist", "--format", "csv"],
                  ["asym", "stirling", "4,10,30", "--format", "text"]]
HASH_SEED_CHILD = """
import contextlib, hashlib, io, json, sys
from bellnum.cli import main
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    print(json.dumps({"code": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}))
"""


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_golden_under_another_hash_seed(golden, seed):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    child = subprocess.run([sys.executable, "-c", HASH_SEED_CHILD, json.dumps(HASH_SEED_ARGV)],
                           env=env, capture_output=True, text=True, check=True)
    assert [json.loads(line) for line in child.stdout.splitlines()] == [
        {k: golden[" ".join(argv)][k] for k in ("code", "sha256")} for argv in HASH_SEED_ARGV]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        doc = {" ".join(a): run_argv(a, Path(d)) for a in MATRIX}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} entries in {GOLDEN}")
