"""Generated argv: every command line ends in a documented exit code.

Subcommand x target x small, negative or garbage sizes and ladders x
format x ``--out``. Whatever the arguments, ``main`` returns 0, 1, 2 or 3
and never lets an exception (a traceback) escape, a negative ``--max-n``
is refused with 2, and a command refused with 2 or 3 leaves no output
file. Sizes stay small, so no example starts heavy work.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bellnum.cli import ASYM_TARGETS, TABLE_SEQUENCES, VERIFY_SUITES, main
from bellnum.distributions import FAMILIES

GARBAGE = st.sampled_from(["", "x", "1.5", "-", "1e3", "0x10", "nan", " 3", "٣"])
SIZE = st.one_of(st.integers(-3, 9).map(str), GARBAGE)
LADDER = st.one_of(
    st.lists(st.integers(-3, 40), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from([",", "", "3,,4", "a,b", "5,", "1;2"]),
)
FORMAT = st.one_of(
    st.just([]),
    st.sampled_from(["text", "csv", "json", "xml", ""]).map(lambda f: ["--format", f]),
)
# no --out, a file in a directory that exists, a file under a missing one
OUT = st.sampled_from([None, "out.txt", "missing/out.txt"])
MAX_N = st.one_of(st.just([]), st.integers(-2, 50).map(lambda c: ["--max-n", str(c)]),
                  st.just(["--max-n", "big"]))


def name(known):
    return st.one_of(st.sampled_from(known), st.sampled_from(["", "nothing", "BELL"]))


@pytest.fixture(scope="module")
def bfile(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "b.txt"
    path.write_text("# two good lines and a bad one\n0 1\n1 1\n2 x\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("out")


@st.composite
def argv(draw):
    cmd = draw(st.sampled_from(["table", "verify", "asym", "llt", "bench", "oeis-check",
                                "genjiko", "nothing"]))
    if cmd == "table":
        args = [draw(name(TABLE_SEQUENCES)), draw(SIZE)]
    elif cmd == "verify":
        # the oracle suite enumerates every partition: keep it tiny
        args = [draw(name(VERIFY_SUITES)), draw(st.one_of(st.integers(-3, 6).map(str), GARBAGE))]
    elif cmd == "asym":
        args = [draw(name(ASYM_TARGETS))] + draw(st.one_of(st.just([]), LADDER.map(lambda s: [s])))
    elif cmd == "llt":
        args = [draw(name(sorted(FAMILIES))), draw(LADDER)]
        args += draw(st.sampled_from([[], ["--hist"], ["--centering", "asym"],
                                      ["--centering", "none"]]))
    elif cmd == "bench":
        args = [draw(SIZE)] + draw(st.sampled_from([[], ["--repeats", "0"], ["--repeats", "x"]]))
    elif cmd == "oeis-check":
        args = [draw(st.sampled_from(["bell", "stirling", "nothing"])),
                draw(st.sampled_from(["{bfile}", "{bfile}.missing"]))]
    else:
        args = []
    return [cmd] + args + draw(FORMAT) + draw(MAX_N)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv(), OUT)
def test_exit_code_documented_and_no_traceback(bfile, out_dir, args, out_name):
    args = [a.replace("{bfile}", bfile) for a in args]
    if out_name:
        path = out_dir / out_name
        path.unlink(missing_ok=True)
        args += ["--out", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2, 3), (args, code)
    assert "Traceback" not in err.getvalue()
    if "--max-n" in args and args[args.index("--max-n") + 1].startswith("-"):
        assert code == 2, args
    if out_name is None:
        return
    if code in (2, 3):
        assert not path.exists(), args
    if out_name == "missing/out.txt":
        assert code != 0, args
    elif code == 0:
        assert path.exists() and out.getvalue() == "", args
