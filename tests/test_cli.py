"""End-to-end CLI tests: rendered output, exit codes, determinism."""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bellnum.cli import main
from bellnum import exact
from bellnum.asymptotic import lambert_w


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


TABLE1_CSV = (
    "n,k,value\n"
    "1,1,0\n"
    "2,1,-1\n2,2,1\n"
    "3,1,-1\n3,2,0\n3,3,1\n"
    "4,1,-28\n4,2,44\n4,3,-20\n4,4,4\n"
    "5,1,124\n5,2,-330\n5,3,285\n5,4,-90\n5,5,11\n"
    "6,1,-4176\n6,2,9254\n6,3,-7515\n6,4,2945\n6,5,-549\n6,6,41\n"
    "7,1,87408\n7,2,-220990\n7,3,210483\n7,4,-98455\n7,5,24507\n7,6,-3115\n7,7,162\n"
)


class TestTable:
    def test_matsunaga_seven_bytes(self, capsys):
        code, out = run(capsys, "table", "matsunaga", "7", "--format", "csv")
        assert code == 0
        assert out == TABLE1_CSV

    def test_beta_last_line(self, capsys):
        code, out = run(capsys, "table", "beta", "12", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == "12,580317"

    def test_bell_zero(self, capsys):
        code, out = run(capsys, "table", "bell", "0", "--format", "csv")
        assert code == 0
        assert out == "n,value\n0,1\n"

    def test_csv_round_trip(self, capsys):
        code, out = run(capsys, "table", "arima", "9", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,value"
        table = exact.arima_rows(9)
        parsed = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        assert parsed == list(table.items())

    def test_unknown_sequence_exits_two(self, capsys):
        code, _ = run(capsys, "table", "nope", "5")
        assert code == 2

    def test_cap_enforced_and_overridable(self, capsys):
        code, _ = run(capsys, "table", "bell", "501")
        assert code == 2
        code, out = run(capsys, "table", "bell", "501", "--format", "csv", "--max-n", "501")
        assert code == 0
        assert len(out.splitlines()) == 503

    def test_json_format(self, capsys):
        code, out = run(capsys, "table", "bell", "3", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"][-1] == {"n": 3, "value": 5}

    def test_determinism(self, capsys):
        _, first = run(capsys, "table", "weighted-matsunaga", "6", "--format", "csv")
        _, second = run(capsys, "table", "weighted-matsunaga", "6", "--format", "csv")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out = run(capsys, "table", "bell", "2", "--format", "csv", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == b"n,value\n0,1\n1,1\n2,2\n"


class _Marker(int):
    """An int that records when it is turned into text."""

    rendered = False

    def __str__(self):
        _Marker.rendered = True
        return int.__str__(self)

    def __format__(self, spec):
        _Marker.rendered = True
        return int.__format__(self, spec)


class _Discard(io.TextIOBase):
    """A stdout that counts what it is given and keeps none of it; it
    notes whether a _Marker had been rendered at the first write."""

    def __init__(self):
        self.chunks = self.size = 0
        self.marker_rendered_at_first_write = None

    def write(self, s):
        if not self.chunks:
            self.marker_rendered_at_first_write = _Marker.rendered
        self.chunks += 1
        self.size += len(s)
        return len(s)


class TestStreaming:
    def test_text_triangle_streams_row_by_row(self, monkeypatch):
        # a whole text table held as cells, lines and one string takes
        # several times its length; streamed, about one row is live
        import tracemalloc

        t = exact.stirling_signed_rows(150)
        last = t.rows[-1]
        assert last[-1] == 1  # s(150,150): not a column extreme, so no width reads it
        marked = exact.TriangleTable(t.name, t.n_min, t.k_min,
                                     t.rows[:-1] + (last[:-1] + (_Marker(1),),))
        monkeypatch.setattr(exact, "stirling_signed_rows", lambda N: marked)
        monkeypatch.setattr(_Marker, "rendered", False)
        sink = _Discard()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["table", "stirling", "150", "--format", "text"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.chunks == 1 + 150  # the header, then one chunk per row
        assert sink.size > 3_000_000
        assert peak < sink.size
        # the first chunk was written before the last row was rendered
        assert sink.marker_rendered_at_first_write is False and _Marker.rendered

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_closed_pipe_exits_quietly(self, fmt):
        src = str(Path(exact.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, %r); from bellnum.cli import main; "
                "sys.exit(main(sys.argv[1:]))" % src)
        # megabytes of output against a 64 kB pipe: the writer meets the
        # closed end long before it is done
        with subprocess.Popen([sys.executable, "-c", code, "table", "stirling", "220",
                               "--format", fmt],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 0
        assert err == b""

    def test_unwritable_out_is_one_line_and_exit_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.txt"
        code = main(["table", "bell", "5", "--out", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, expected", [
        (["table", "nope", "5"], 2),
        (["table", "bell", "501"], 2),
        (["oeis-check", "bell", "no-such-b-file.txt"], 3),
    ])
    def test_refused_command_writes_no_file(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "out.txt"
        assert main([*argv, "--out", str(path)]) == expected
        assert not path.exists()


class TestVerify:
    def test_identities_pass(self, capsys):
        code, out = run(capsys, "verify", "identities", "12")
        assert code == 0
        assert "0 failures" in out

    def test_exception_is_reported_as_expected(self, capsys):
        _, out = run(capsys, "verify", "identities", "3")
        assert "exception at (3,1) confirmed" in out

    def test_oracle_pass(self, capsys):
        code, out = run(capsys, "verify", "oracle", "7")
        assert code == 0
        assert "B_7=877" in out

    def test_variants_pass(self, capsys):
        code, _ = run(capsys, "verify", "variants", "12")
        assert code == 0

    def test_unknown_suite(self, capsys):
        assert run(capsys, "verify", "nothing", "5")[0] == 2

    @pytest.mark.parametrize("suite", ["identities", "oracle", "variants", "all"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_is_usage_error(self, capsys, suite, n):
        # every suite refuses an empty run, rather than report 0 checks as success
        code = main(["verify", suite, n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: N must be >= 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("suite, n, skipped", [
        ("identities", "3", [
            "skip: closed P_n(v) equals direct P_n(v) on rational grid",
            "skip: P_n(1)/n! alternating-Bell corollary (4<=n<=3)",
        ]),
        ("variants", "1", [
            "skip: product triangle = |s| * (n+1)^k closed form (n<=1)",
            "skip: product triangle = alternating |s| closed form (n<=1)",
            "skip: singleton-marker triangles (k=0 column, unit-mass removal, n<=1)",
            "skip: two-route moments (closed forms = direct, 4<=n<=1)",
        ]),
    ])
    def test_empty_range_is_skip(self, capsys, suite, n, skipped):
        # a check with no point to test passes nothing: it says skip, not
        # ok, and counts as a check but not as a failure
        code, out = run(capsys, "verify", suite, n)
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("skip")] == skipped
        assert out.endswith(" checks, 0 failures\n")

    def test_runner_stops_at_first_counterexample(self):
        import bellnum.cli as cli

        def domain():
            yield from (1, 2, 3)
            raise AssertionError("walked past the first counterexample")

        assert cli._run(cli.Check("c", domain(), lambda n: n < 3)) == (
            "FAIL", "first counterexample n=3")
        assert cli._run(cli.Check("c", range(3), lambda n: True, note="seen")) == ("ok", "seen")
        assert cli._run(cli.Check("c", range(0), lambda n: False, note="seen")) == ("skip", "")

    def test_runner_reports_a_raise_at_its_point(self):
        # a route that raises fails its own check, at the point it raised
        # at, named as the witness names its points
        import bellnum.cli as cli

        def holds(nk):
            if nk == (2, 1):
                raise ArithmeticError("not exact")
            return True

        assert cli._run(cli.Check("c", cli._triangle(3), holds, "first counterexample (n,k)=")) == (
            "FAIL", "raised at (n,k)=(2, 1): not exact")
        assert cli._run(cli.Check("c", (7,), lambda n: 1 // 0, "got ")) == (
            "FAIL", "raised at 7: integer division or modulo by zero")

    def test_any_failure_flips_exit_code(self, capsys, monkeypatch):
        # exit status must be nonzero iff a check fails: inject a fault
        import bellnum.cli as cli

        def broken(N):
            return [cli.Check("injected check", [(1, 1)], lambda nk: False, "witness (n,k)=")]

        monkeypatch.setitem(cli.SUITES, "identities", broken)
        code, out = run(capsys, "verify", "identities", "5")
        assert code == 1
        assert "FAIL: injected check" in out
        assert "1 failures" in out


class TestAsym:
    def test_bell_ladder_errors_decrease(self, capsys):
        code, out = run(capsys, "asym", "bell", "11,50,100", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        errs = [float(r[3]) for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_phi_values(self, capsys):
        code, out = run(capsys, "asym", "phi", "--format", "csv")
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(rows["grid_argmax_rho"]) == 1.0
        assert float(rows["phi(1)"]) == pytest.approx(0.3862943611198906, abs=1e-12)

    def test_stirling_regime_rows(self, capsys):
        code, out = run(capsys, "asym", "stirling", "40", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[2] for r in rows] == ["small_k", "central", "large_k"]
        assert all(float(r[5]) <= 0.05 for r in rows)

    def test_ladder_required(self, capsys):
        assert run(capsys, "asym", "bell")[0] == 2

    def test_unknown_target(self, capsys):
        assert run(capsys, "asym", "nothing", "5")[0] == 2

    @pytest.mark.parametrize("ladder", ["1", "2", "3", "2,10"])
    def test_beta_ratio_below_four_is_usage_error(self, capsys, ladder):
        code = main(["asym", "beta-ratio", ladder])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: beta-ratio needs n >= 4")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("ladder", ["2", "3", "2,10"])
    def test_beta_below_four_is_usage_error(self, capsys, ladder):
        # log beta_2 = log beta_3 = 0 would divide the relative log error by zero
        code = main(["asym", "beta", ladder])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: beta needs n >= 4 "
                                "(beta_2 = beta_3 = 1 leaves log beta_n = 0 below)\n")

    @pytest.mark.parametrize("n, ks", [(4, [2, 3]), (5, [2, 4]), (6, [2, 3, 5])])
    def test_stirling_prints_each_k_once(self, capsys, n, ks):
        code, out = run(capsys, "asym", "stirling", str(n), "--format", "csv")
        assert code == 0
        assert [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]] == ks

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(4, 300), min_size=1, max_size=4))
    @example([4, 5, 30, 9, 30])
    def test_stirling_points_equal_triangle_entries(self, ladder):
        import bellnum.cli as cli

        tri = exact.stirling_unsigned_rows(max(ladder))
        points = cli._stirling_points(ladder)
        assert sorted(points) == sorted(set(ladder))
        for n, row in points.items():
            assert list(row) == sorted({2, n // 2, n - 1})
            assert all(v == tri.entry(n, k) for k, v in row.items())

    def test_stirling_pass_holds_one_row(self):
        # the whole triangle to n = 300 takes about 6 MB, one row about 90 kB
        import tracemalloc

        import bellnum.cli as cli

        tracemalloc.start()
        try:
            cli._stirling_points([150, 300])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_stirling_small_n_fails_before_the_pass(self, capsys, monkeypatch):
        import bellnum.cli as cli

        monkeypatch.setattr(cli, "_stirling_points", None)
        code = main(["asym", "stirling", "900,3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: stirling comparison needs n >= 4\n"

    @pytest.mark.parametrize("target", ["beta", "bell", "tilde-bell"])
    def test_builds_only_the_requested_sequence(self, capsys, monkeypatch, target):
        import bellnum.cli as cli

        builders = {"beta": (exact, "beta_numbers"), "bell": (exact, "bell_numbers"),
                    "tilde-bell": (cli, "tilde_bell_exact")}
        for name, (module, attr) in builders.items():
            if name != target:
                monkeypatch.setattr(module, attr, None)
        assert run(capsys, "asym", target, "5,10")[0] == 0


class TestLLT:
    def test_weighted_mu_formula(self, capsys):
        code, out = run(capsys, "llt", "weighted-matsunaga", "30", "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        expected = 30 * math.log(2) + 0.25 - (4 * lambert_w(30.0) - 1) / 480
        assert float(row[3]) == pytest.approx(expected, abs=1e-6)

    def test_arima_seven_exact_mean(self, capsys):
        _, out = run(capsys, "llt", "arima", "7", "--format", "csv")
        assert out.strip().splitlines()[1].split(",")[1] == "6139/4140"

    def test_balanced_mean_is_exactly_half(self, capsys):
        _, out = run(capsys, "llt", "a033306", "20", "--format", "csv")
        assert out.strip().splitlines()[1].split(",")[1] == "10"

    def test_histogram_mode(self, capsys):
        code, out = run(capsys, "llt", "arima", "6", "--hist", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,probability"
        probs = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(probs) == 7
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_family(self, capsys):
        assert run(capsys, "llt", "nothing", "5")[0] == 2

    def test_determinism(self, capsys):
        _, first = run(capsys, "llt", "a220884", "10,20", "--format", "csv")
        _, second = run(capsys, "llt", "a220884", "10,20", "--format", "csv")
        assert first == second


class TestCaps:
    """``--max-n`` bounds llt, asym and verify like table: one line on
    stderr and exit 2 before any work starts."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import dataclasses

        import bellnum.cli as cli

        def refuse(*_):
            raise AssertionError("work started past the cap")

        for name, fam in cli.FAMILIES.items():
            monkeypatch.setitem(cli.FAMILIES, name, dataclasses.replace(fam, build=refuse))
        for name in ("bell_numbers", "beta_numbers", "_stirling_rows"):
            monkeypatch.setattr(exact, name, refuse)
        monkeypatch.setattr(cli, "_stirling_points", refuse)
        for name in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, name, refuse)

    @pytest.mark.parametrize("argv, n, cap", [
        (["llt", "matsunaga", "5000"], 5000, 1000),
        (["llt", "arima", "10,30", "--max-n", "20"], 30, 20),
        (["llt", "arima", "30", "--hist", "--max-n", "29"], 30, 29),
        (["asym", "bell", "10,2001"], 2001, 2000),
        (["asym", "stirling", "40", "--max-n", "39"], 40, 39),
        (["verify", "identities", "201"], 201, 200),
        (["verify", "variants", "5", "--max-n", "4"], 5, 4),
    ])
    def test_beyond_cap_is_usage_error(self, capsys, no_work, argv, n, cap):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: N={n} beyond cap {cap} (raise with --max-n)\n"

    def test_phi_takes_no_ladder_to_cap(self, capsys):
        assert run(capsys, "asym", "phi", "--max-n", "1")[0] == 0

    def test_defaults_admit_the_sizes_in_use(self):
        # the benchmark's cold CLI matrix runs llt up to 600 and asym up to
        # 900; the roadmap times verify identities 100
        import bellnum.cli as cli

        assert cli.LLT_CAP >= 600 and cli.ASYM_CAP >= 900 and cli.VERIFY_CAP >= 100

    @pytest.mark.parametrize("argv", [
        ["table", "bell", "5"],
        ["verify", "identities", "5"],
        ["asym", "phi"],
        ["llt", "arima", "10"],
        ["bench", "4"],
        ["genjiko"],
    ])
    def test_negative_cap_is_usage_error(self, capsys, no_work, argv):
        code = main([*argv, "--max-n", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --max-n must be >= 0, got -1\n"

    def test_negative_cap_skips_no_bfile_entry(self, capsys, tmp_path):
        # taken as a count, -1 would slice off the last of these 20
        # entries, the only wrong one, and the check would pass
        f = tmp_path / "b.txt"
        f.write_text("".join(f"{i} {v}\n" for i, v in enumerate(exact.bell_numbers(18)))
                     + "19 0\n")
        assert run(capsys, "oeis-check", "bell", str(f))[0] == 1
        assert run(capsys, "oeis-check", "bell", str(f), "--max-n", "-1") == (2, "")

    @pytest.mark.parametrize("argv", [
        ["llt", "arima", "10,30", "--max-n", "30"],
        ["asym", "stirling", "40", "--max-n", "40"],
        ["verify", "identities", "5", "--max-n", "5"],
    ])
    def test_at_cap_runs(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0


class TestBench:
    def test_agreement_and_bit_gap(self, capsys):
        code, out = run(capsys, "bench", "8", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_n: dict[int, dict[str, list[str]]] = {}
        for r in rows:
            by_n.setdefault(int(r[0]), {})[r[1]] = r
        assert set(by_n) == {2, 4, 8}
        for n, recs in by_n.items():
            assert recs["matsunaga"][5] == recs["arima"][5]
            assert int(recs["matsunaga"][3]) >= int(recs["arima"][3])
        assert by_n[2]["matsunaga"][5] == "2"
        assert int(by_n[8]["matsunaga"][3]) > int(by_n[8]["arima"][3])

    def test_cap(self, capsys):
        assert run(capsys, "bench", "401")[0] == 2

    def test_zero_repeats_is_usage_error(self, capsys):
        code = main(["bench", "2", "--repeats", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: --repeats must be >= 1\n"

    def test_procedure_is_timed_from_empty_prefixes(self, capsys, monkeypatch):
        # a warm kernel must not turn the timed Stirling pipeline into a lookup
        import bellnum.cli as cli

        exact.matsunaga_rows(40)
        seen = []

        def procedure(n):
            seen.append((len(exact._PREFIX.poisson), len(exact._PREFIX.matsunaga)))
            return cli.exact.bell_matsunaga(n).result, 0

        monkeypatch.setattr(exact, "bench_matsunaga_procedure", procedure)
        assert run(capsys, "bench", "16", "--repeats", "3")[0] == 0
        assert seen == [(0, 1)] * 12


class TestOeisCheck:
    def test_match_and_mismatch(self, capsys, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("\n".join(f"{i} {v}" for i, v in enumerate(exact.bell_numbers(12))))
        code, out = run(capsys, "oeis-check", "bell", str(good))
        assert code == 0 and "match: 13 values" in out

        bad = tmp_path / "bad.txt"
        bad.write_text(good.read_text() + "\n13 9999")
        code, out = run(capsys, "oeis-check", "bell", str(bad))
        assert code == 1 and "MISMATCH" in out and "27644437" in out

    def test_parse_error_exits_three(self, capsys, tmp_path):
        f = tmp_path / "malformed.txt"
        f.write_text("abc\n")
        code, _ = run(capsys, "oeis-check", "bell", str(f))
        assert code == 3

    def test_missing_file_exits_three(self, capsys, tmp_path):
        f = tmp_path / "missing.txt"
        assert main(["oeis-check", "bell", str(f)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: cannot read {f}: No such file or directory\n"

    def test_undecodable_file_exits_three(self, capsys, tmp_path):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"0 1\n1 1\n2 \xff\n")
        code = main(["oeis-check", "bell", str(f)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"parse error: cannot decode {f} as UTF-8: invalid start byte\n"

    def test_unknown_sequence(self, capsys, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("0 1\n")
        assert run(capsys, "oeis-check", "A999999", str(f))[0] == 2


class TestGenjiko:
    def test_listing(self, capsys):
        code, out = run(capsys, "genjiko")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "52 patterns"
        assert len(lines) == 53
        assert "{1,2,3,4,5}" in out
        assert "{1} {2} {3} {4} {5}" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_out_of_range_parameter_is_usage_error(self, capsys):
        assert main(["asym", "beta", "1"]) == 2
        assert main(["llt", "weighted-matsunaga", "3"]) == 2


class TestMain:
    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_int_digit_limit_restored(self, capsys):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            # B_500 has 844 digits, more than the limit outside main()
            code, out = run(capsys, "table", "bell", "500", "--format", "csv")
            assert code == 0
            assert len(out.splitlines()[-1]) > 640
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(before)


class TestVerifyAll:
    def test_all_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "all", "8")
        assert code == 0
        assert "0 failures" in out
        # all three suites contributed checks
        assert "row sums zero" in out
        assert "enumeration total" in out
        assert "two-route moments" in out



class TestVerifyIndependence:
    """The splitting check stays independent of the kernel's routes: beta
    is derived from B, so a fault in the beta prefix must show."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        exact._reset()
        yield
        exact._reset()

    def _line(self, capsys, check="splitting"):
        code, out = run(capsys, "verify", "identities", "12")
        return code, next(line for line in out.splitlines() if check in line)

    def test_clean_prefixes_pass(self, capsys):
        assert self._line(capsys) == (0, "ok: splitting B_n = beta_(n+1) + beta_n (n<=12)")

    def test_corrupted_beta_prefix_fails(self, capsys):
        exact.beta_numbers(13)
        exact._PREFIX.betas[9] += 1
        code, line = self._line(capsys)
        assert code == 1
        assert line.startswith("FAIL: splitting")
