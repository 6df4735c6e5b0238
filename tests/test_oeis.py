"""b-file parsing and sequence cross-check tests.

The positive-match files are built from values published independently
of this package's generators (the beta and Bell lists, the triangle
rows), so a match genuinely ties the code to external data.
"""

from itertools import islice

import pytest

from bellnum import distributions, exact, oeis

BETA_PUBLISHED = [1, 0, 1, 1, 4, 11, 41, 162, 715, 3425, 17722, 98253, 580317]
BELL_PUBLISHED = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
ARIMA_LINEAR_HEAD = [1, 1, 1, 2, 2, 1, 5, 6, 3, 1, 15, 20, 12, 4, 1, 52, 75, 50, 20, 5, 1]
STIRLING_LINEAR_HEAD = [1, -1, 1, 2, -3, 1, -6, 11, -6, 1, 24, -50, 35, -10, 1]


def lines(values, start=0):
    return "\n".join(f"{i} {v}" for i, v in enumerate(values, start=start))


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n0 1\n1 1\n# middle\n2 2\n"
        entries = oeis.parse_bfile(text)
        assert [(e.index, e.value) for e in entries] == [(0, 1), (1, 1), (2, 2)]

    def test_malformed_line_reports_number(self):
        with pytest.raises(oeis.BFileParseError) as exc:
            oeis.parse_bfile("0 1\nabc\n")
        assert exc.value.line_number == 2
        assert str(exc.value) == "line 2: expected 'index value', got 'abc'"

    def test_file_level_error_has_no_line(self):
        err = oeis.BFileParseError("cannot read b.txt: No such file or directory")
        assert err.line_number is None
        assert str(err) == "cannot read b.txt: No such file or directory"

    def test_non_integer_field(self):
        with pytest.raises(oeis.BFileParseError):
            oeis.parse_bfile("0 x")

    def test_three_fields(self):
        with pytest.raises(oeis.BFileParseError):
            oeis.parse_bfile("0 1 2")

    def test_indices_strictly_increasing(self):
        with pytest.raises(oeis.BFileParseError):
            oeis.parse_bfile("3 5\n3 6")

    def test_negative_values_allowed(self):
        assert oeis.parse_bfile("1 -6")[0].value == -6


class TestChecking:
    def test_bell_matches_published(self):
        r = oeis.check_bfile("bell", lines(BELL_PUBLISHED))
        assert r.ok and r.compared == len(BELL_PUBLISHED)

    def test_beta_matches_published(self):
        r = oeis.check_bfile("A000296", lines(BETA_PUBLISHED))
        assert r.ok
        assert BETA_PUBLISHED[5] == 11

    def test_arima_triangle_matches_published(self):
        r = oeis.check_bfile("arima", lines(ARIMA_LINEAR_HEAD, start=1))
        assert r.ok and r.compared == len(ARIMA_LINEAR_HEAD)

    def test_stirling_triangle(self):
        r = oeis.check_bfile("stirling", lines(STIRLING_LINEAR_HEAD, start=1))
        assert r.ok

    def test_mismatch_reported_with_expected_value(self):
        text = lines(BELL_PUBLISHED) + "\n9 11111"
        r = oeis.check_bfile("bell", text)
        assert not r.ok
        assert r.first_mismatch.index == 9
        assert r.expected == 21147

    def test_partial_file_with_offset_start(self):
        # a b-file tail starting mid-sequence still matches
        text = lines(BELL_PUBLISHED[4:], start=4)
        r = oeis.check_bfile("bell", text)
        assert r.ok and r.compared == len(BELL_PUBLISHED) - 4

    def test_unknown_sequence(self):
        with pytest.raises(KeyError):
            oeis.check_bfile("A999999", "0 1")

    def test_max_terms_cap(self):
        r = oeis.check_bfile("bell", lines(BELL_PUBLISHED), max_terms=3)
        assert r.ok and r.compared == 3

    @pytest.mark.parametrize("text, compared", [("1000000 1", 0), ("0 1\n1000000 1", 1)])
    def test_max_terms_bounds_the_terms_computed(self, monkeypatch, text, compared):
        spec = oeis.REGISTRY["bell"]

        def terms():
            # fails at once, where computing B_0..B_999999 would take hours
            for count, value in enumerate(islice(spec.terms(), 2), start=1):
                assert count <= 1, f"drew {count} terms"
                yield value

        monkeypatch.setitem(oeis.REGISTRY, "bell", spec._replace(terms=terms))
        r = oeis.check_bfile("bell", text, max_terms=1)
        assert r.ok == bool(compared) and r.compared == compared

    def test_negative_max_terms_is_refused(self):
        # taken as a slice bound, -1 would drop the last of these 20
        # entries, the only wrong one, and the check would pass
        text = lines(exact.bell_numbers(18)) + "\n19 0"
        assert not oeis.check_bfile("bell", text).ok
        with pytest.raises(ValueError, match="max_terms"):
            oeis.check_bfile("bell", text, max_terms=-1)

    def test_registry_self_consistency(self):
        # every registered generator yields enough terms and matches a
        # b-file generated from itself (offset handling round-trip)
        seen = set()
        for key, spec in oeis.REGISTRY.items():
            if spec.oeis_id in seen:
                continue
            seen.add(spec.oeis_id)
            values = list(islice(spec.terms(), 25))
            assert len(values) == 25
            text = lines(values, start=spec.first_index)
            r = oeis.check_bfile(key, text)
            assert r.ok and r.compared == 25, spec.oeis_id


class TestRowMajorReaders:
    """Each triangle reader streams its triangle's one row source in
    ``exact`` (the source that the public builder reads too): one stream
    per request, read across row boundaries in the triangle's own order,
    and no row past the last term requested."""

    SOURCE = {"stirling_signed_rows": "_stirling_rows", "matsunaga_rows": "_matsunaga_rows",
              "b_table_rows": "_b_table_rows", "arima_rows": "_arima_rows"}

    # (registry key, builder in exact, flattened reference of rows 1..10 or 0..9)
    @pytest.mark.parametrize("key, builder, flat", [
        ("stirling", "stirling_signed_rows",
         lambda: [v for row in exact.stirling_signed_rows(10).rows for v in row]),
        ("matsunaga", "matsunaga_rows",
         lambda: [v for row in exact.matsunaga_rows(10).rows for v in row]),
        ("b-table", "b_table_rows",
         lambda: [v for row in exact.b_table_rows(10).rows for v in row]),
        ("a175757", "arima_rows",
         lambda: [v for row in exact.arima_rows(10).rows for v in row[1:]]),
        ("arima", "arima_rows",
         lambda: [1] + [v for row in exact.arima_rows(9).rows for v in row]),
        ("arima-reversed", "arima_rows",
         lambda: [1] + [v for row in exact.arima_rows(9).rows for v in reversed(row)]),
    ])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_values_at_a_row_boundary(self, monkeypatch, key, builder, flat, offset):
        reference = flat()
        # rows 1..9 (or 0..8) end at 45 terms
        count = 45 + offset
        real = getattr(exact, self.SOURCE[builder])
        calls, pulled = [], []

        def counted():
            calls.append(1)
            for row in real():
                pulled.append(row)
                yield row

        monkeypatch.setattr(exact, self.SOURCE[builder], counted)
        assert list(islice(oeis.REGISTRY[key].terms(), count)) == reference[:count]
        assert len(calls) == 1
        # A175757 drops the Arima source's row 0
        assert len(pulled) == (9 if offset <= 0 else 10) + (key == "a175757")

    @pytest.mark.parametrize("key", ["a056856", "a220883", "a260887", "a220884"])
    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_variant_reader_builds_only_the_rows_it_returns(self, monkeypatch, key, k):
        # rows n = 1..k of n entries each
        first, k_min, real = distributions._ROWS[key]
        calls = []

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setitem(distributions._ROWS, key, (first, k_min, counted))
        values = list(islice(oeis.REGISTRY[key].terms(), sum(range(1, k + 1))))
        assert calls == list(range(1, k + 1))
        assert values == [v for n in range(1, k + 1) for v in real(n)]

    # rows below n = 4 from the first OEIS index on, as OEIS lists them
    @pytest.mark.parametrize("key, rows", [
        ("a033306", [(1,), (1, 1), (2, 2, 2), (5, 6, 6, 5)]),
        ("a056856", [(1,), (1, 2), (2, 9, 9)]),
        ("a220883", [(1,), (1, 3), (2, 12, 16)]),
        ("a260887", [(1,), (2, 2), (6, 15, 9)]),
        ("a220884", [(1,), (2, 1), (6, 8, 2)]),
        ("a124323", [(1,), (0, 1), (1, 0, 1), (1, 3, 0, 1)]),
        ("a086659", [(0,), (1, 0), (1, 3, 0)]),
        ("a078937", [(1,), (2, 1), (6, 4, 1), (22, 18, 6, 1)]),
        ("a078938", [(1,), (3, 1), (12, 6, 1), (57, 36, 9, 1)]),
        ("a078939", [(1,), (4, 1), (20, 8, 1), (116, 60, 12, 1)]),
    ])
    def test_variant_low_rows(self, key, rows):
        spec = oeis.REGISTRY[key]
        assert spec.first_index == 4 - len(rows)
        row = distributions._ROWS[key][2]
        assert [tuple(row(n)) for n in range(spec.first_index, 4)] == rows
        flat = [v for r in rows for v in r]
        assert list(islice(spec.terms(), len(flat))) == flat

    def test_check_stops_at_the_first_mismatch(self, monkeypatch):
        # 600 terms run to row 35; wrong at index 1, the check needs row 1 only
        flat = [v for row in exact.stirling_signed_rows(35).rows for v in row][:600]
        text = lines([flat[0] + 1, *flat[1:]], start=1)
        real, pulled = exact._stirling_rows, []

        def counted():
            for row in real():
                pulled.append(row)
                yield row

        monkeypatch.setattr(exact, "_stirling_rows", counted)
        r = oeis.check_bfile("stirling", text)
        assert (r.compared, r.first_mismatch.index, r.expected) == (0, 1, 1)
        assert len(pulled) <= 1
