import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import spectile
from spectile import (
    GroupParams,
    GroupSet,
    ParseError,
    char_value_exact,
    difference_set,
    parse_set,
    serialize_set,
)
from spectile.cli import main
from spectile.group import DEFAULT_ORDER_LIMIT

from conftest import SMALL_PARAMS, make_set

P22 = GroupParams(2, 2)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSetFormat:
    def test_round_trip(self):
        A = make_set(P22, [(0, 0), (1, 3), (0, 2)])
        assert parse_set(serialize_set(A)) == A

    def test_header_then_elements(self):
        A = parse_set("2 2\n0 0\n1 3\n")
        assert A.params == P22
        assert A.cardinality == 2

    def test_blank_lines_skipped(self):
        assert parse_set("2 2\n\n0 1\n\n").cardinality == 1

    def test_duplicate_rejected_with_line(self):
        with pytest.raises(ParseError) as exc_info:
            parse_set("2 2\n0 1\n0 1\n")
        assert exc_info.value.line == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            parse_set("2 2\n0 4\n")

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError) as exc_info:
            parse_set("2 2\n")
        assert "empty set" in str(exc_info.value)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_set("")

    def test_bad_token_count(self):
        with pytest.raises(ParseError) as exc_info:
            parse_set("2 2\n0 1 2\n")
        assert exc_info.value.line == 2

    def test_non_prime_header(self):
        with pytest.raises(ParseError):
            parse_set("4 1\n0 0\n")


class TestAnalyzeCommand:
    def test_report_fields(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "|A|=2" in out
        assert "pure_power" in out
        assert "(0,p^1) (1,p^1)" in out
        assert "I: {1}" in out
        assert "divisibility-exponent: 1" in out
        assert "ok" in out

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        assert main(["analyze", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cardinality"] == 2
        assert payload["zero_profile"]["reps"] == ["(0,p^1)", "(1,p^1)"]
        assert payload["zero_profile"]["I"] == [1]
        assert payload["divides"] is True

    @pytest.mark.parametrize("q", [GroupParams(2, 2), GroupParams(3, 1)], ids=lambda q: f"p{q.p}n{q.n}")
    def test_zero_reps_are_the_vanishing_classes(self, q, tmp_path, capsys):
        # on every nonempty subset, the labels printed are those of the
        # classes, spelled here from their representatives, whose exact
        # character sum vanishes, in report order
        classes = [("(1,0)", q.element(1, 0))] + [
            (f"({c},p^{i})", q.element(c, q.p**i)) for i in range(q.n) for c in range(q.p)
        ]
        path = tmp_path / "a.txt"
        for mask in range(1, 1 << q.order):
            A = GroupSet(q, mask)
            expected = [label for label, u in classes if char_value_exact(A, u).is_zero()]
            path.write_text(serialize_set(A), encoding="utf-8")
            main(["analyze", str(path)])
            lines = capsys.readouterr().out.splitlines()
            assert lines[2] == "zero-reps: " + (" ".join(expected) or "(none)"), mask
            main(["analyze", str(path), "--json"])
            assert json.loads(capsys.readouterr().out)["zero_profile"]["reps"] == expected, mask

    def test_empty_body_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", "2 2\n")
        assert main(["analyze", path]) == 2

    def test_duplicate_line_exits_2(self, tmp_path):
        path = write(tmp_path, "a.txt", "2 2\n0 0\n0 0\n")
        assert main(["analyze", path]) == 2

    def test_header_flag_mismatch_is_hard_error(self, tmp_path):
        path = write(tmp_path, "a.txt", "2 2\n0 0\n")
        assert main(["analyze", path, "--p", "3"]) == 2
        assert main(["analyze", path, "--n", "1"]) == 2
        assert main(["analyze", path, "--p", "2", "--n", "2"]) == 0


class TestCheckPairCommand:
    def test_spectral_true(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        b = write(tmp_path, "b.txt", "2 2\n0 0\n0 2\n")
        assert main(["check-pair", a, b, "--mode", "spectral"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_symmetry(self, tmp_path):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        b = write(tmp_path, "b.txt", "2 2\n0 0\n0 2\n")
        assert main(["check-pair", b, a, "--mode", "spectral"]) == 0

    def test_tiling_false_with_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        t = write(tmp_path, "t.txt", "2 2\n0 0\n0 1\n1 0\n1 1\n")
        assert main(["check-pair", a, t, "--mode", "tiling"]) == 1
        out = capsys.readouterr().out
        assert "false" in out
        assert "(0, 1)" in out

    def test_params_mismatch_hard_error(self, tmp_path):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n")
        b = write(tmp_path, "b.txt", "2 1\n0 0\n")
        assert main(["check-pair", a, b, "--mode", "spectral"]) == 2

    @pytest.mark.parametrize("q", SMALL_PARAMS, ids=lambda q: f"p{q.p}n{q.n}")
    def test_spectral_failure_prints_witness_class(self, q, tmp_path, capsys):
        rng = random.Random(q.order)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        failures = 0
        for _ in range(40):
            k = rng.randint(2, q.order)
            A = GroupSet.from_indices(q, rng.sample(range(q.order), k))
            B = GroupSet.from_indices(q, rng.sample(range(q.order), k))
            a.write_text(serialize_set(A), encoding="utf-8")
            b.write_text(serialize_set(B), encoding="utf-8")
            argv = ["check-pair", str(a), str(b), "--mode", "spectral"]
            rc = main(argv)
            lines = capsys.readouterr().out.splitlines()
            if rc == 0:
                assert lines == ["true"]
                continue
            failures += 1
            assert rc == 1 and lines[0] == "false" and len(lines) == 4
            x, y = re.fullmatch(r"violation: \((\d+), (\d+)\)", lines[1]).groups()
            witness = q.element(int(x), int(y))
            # the pair line names two points of B whose difference v - u is
            # the witness
            coords = re.fullmatch(r"pair: \((\d+), (\d+)\) \((\d+), (\d+)\)", lines[3])
            ux, uy, vx, vy = map(int, coords.groups())
            u, v = q.element(ux, uy), q.element(vx, vy)
            assert u in B and v in B
            assert v - u == witness
            assert witness.index in difference_set(B).indices()
            assert not char_value_exact(A, witness).is_zero()
            # the printed class is the witness's: a unit scales its
            # representative, (1,0) or (c,p^i), onto the witness
            c, i = re.fullmatch(r"class: \((\d+),(?:0|p\^(\d+))\)", lines[2]).groups()
            rep = q.element(int(c), 0 if i is None else q.p ** int(i))
            assert any(rep.scale(s) == witness for s in q.units()), lines
            assert main(argv + ["--json"]) == 1
            payload = json.loads(capsys.readouterr().out)
            assert payload["class"] == lines[2].removeprefix("class: ")
            assert payload["violation"] == str(witness)
            assert payload["pair"] == [[ux, uy], [vx, vy]]
        assert failures

    def test_class_is_null_on_pass_and_size_mismatch(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        b = write(tmp_path, "b.txt", "2 2\n0 0\n0 2\n")
        c = write(tmp_path, "c.txt", "2 2\n0 0\n")
        assert main(["check-pair", a, b, "--mode", "spectral", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "class": None, "mode": "spectral", "ok": True, "pair": None, "violation": None,
        }
        assert main(["check-pair", a, c, "--mode", "spectral", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] is None and payload["pair"] is None
        assert payload["violation"] == "|A| = 2 but |B| = 1"
        assert main(["check-pair", a, c, "--mode", "spectral"]) == 1
        assert capsys.readouterr().out.splitlines() == ["false", "violation: |A| = 2 but |B| = 1"]
        # tiling mode has no pair either, failing or not
        assert main(["check-pair", a, b, "--mode", "tiling", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] is None and payload["pair"] is None


class TestConstructionCommands:
    def test_spectrum_pipes_into_check_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        assert main(["spectrum", a]) == 0
        captured = capsys.readouterr()
        assert captured.out == "2 2\n0 0\n0 2\n"
        assert "theorem: T2S-p" in captured.err
        b = write(tmp_path, "b.txt", captured.out)
        assert main(["check-pair", a, b, "--mode", "spectral"]) == 0

    def test_spectrum_json_trace(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        assert main(["spectrum", a, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["theorem"] == "T2S-p"
        assert payload["trace"]["witnesses"] == {"zero": [0, 2]}

    def test_complement_command(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 2\n")
        assert main(["complement", a]) == 0
        captured = capsys.readouterr()
        assert captured.out == "2 2\n0 0\n0 1\n1 0\n1 1\n"
        assert "case: Case2" in captured.err

    def test_complement_with_partner(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 3\n0 0\n0 1\n1 0\n1 1\n")
        b = write(tmp_path, "b.txt", "2 3\n0 0\n0 4\n1 0\n1 4\n")
        assert main(["complement", a, "--partner", b]) == 0
        out = capsys.readouterr().out
        t = parse_set(out)
        assert t.cardinality == 4

    def test_witness_lines_print_as_json(self, tmp_path, capsys):
        # trace witnesses are tuples in the library; the text trace prints
        # each as the --json trace does
        tile = write(tmp_path, "tile.txt", "2 2\n0 0\n0 1\n")
        assert main(["spectrum", tile]) == 0
        assert "witness zero: [0, 2]\n" in capsys.readouterr().err
        a = write(tmp_path, "a.txt", "2 3\n0 0\n0 1\n0 2\n1 1\n")  # S2T-ps Case3
        assert main(["search", a, "--mode", "spectral"]) == 0
        b = write(tmp_path, "b.txt", capsys.readouterr().out)
        assert main(["complement", a, "--partner", b]) == 0
        assert "witness pair: [[0, 0], [1, 2]]\n" in capsys.readouterr().err
        assert main(["complement", a, "--partner", b, "--json"]) == 0
        assert '"pair": [[0, 0], [1, 2]]' in capsys.readouterr().out

    def test_non_spectral_size_exits_1(self, tmp_path, capsys):
        lines = "3 2\n" + "\n".join(f"0 {y}" for y in range(6)) + "\n"
        a = write(tmp_path, "a.txt", lines)
        assert main(["complement", a]) == 1
        assert "no spectrum" in capsys.readouterr().err

    def test_non_tile_spectrum_exits_1(self, tmp_path):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n0 2\n1 0\n")
        assert main(["spectrum", a]) == 1


class TestSearchCommand:
    def test_search_spectral(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n")
        assert main(["search", a, "--mode", "spectral"]) == 0
        assert capsys.readouterr().out == "2 2\n0 0\n0 2\n"

    def test_search_tiling_none(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "2 2\n0 0\n0 1\n0 2\n")
        assert main(["search", a, "--mode", "tiling"]) == 1
        assert capsys.readouterr().out.strip() == "none"

    def test_search_capacity_exits_3(self, tmp_path):
        a = write(tmp_path, "a.txt", "2 16\n0 0\n")
        assert main(["search", a, "--mode", "spectral"]) == 3


class TestEnumerateCommand:
    def test_text_summary(self, capsys):
        assert main(["enumerate", "--p", "2", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "tiles: 11" in out
        assert "spectral: 11" in out
        assert "mismatches: 0" in out

    def test_out_file_deterministic_across_shards(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out4 = tmp_path / "r4.json"
        assert main(["enumerate", "--p", "2", "--n", "2", "--out", str(out1)]) == 0
        assert main(["enumerate", "--p", "2", "--n", "2", "--shards", "4", "--out", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_sizes_flag(self, capsys):
        assert main(["enumerate", "--p", "3", "--n", "1", "--sizes", "3,6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size_filter"] == [3, 6]
        assert payload["tiles"] == payload["spectral"] == 84

    def test_bad_sizes_flag(self, capsys):
        assert main(["enumerate", "--p", "3", "--n", "1", "--sizes", "3,x"]) == 2

    @pytest.mark.parametrize("sizes", [",", ""])
    def test_empty_sizes_flag_exits_2(self, sizes, capsys):
        assert main(["enumerate", "--p", "2", "--n", "1", "--sizes", sizes]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "size filter is empty" in err

    def test_capacity_exits_3(self):
        assert main(["enumerate", "--p", "2", "--n", "4"]) == 3

    def test_shard_count_above_limit_exits_3(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert main(["enumerate", "--p", "2", "--n", "1", "--shards", str(10**12)]) == 3
        assert "shards" in capsys.readouterr().err

    def test_verbose_prints_memo_counts(self, capsys):
        assert main(["enumerate", "--p", "2", "--n", "2", "--verbose"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("wall-time: ")
        assert err[1].startswith("spectral-memo: lookups=255 misses=")
        assert err[2].startswith("tile-memo: lookups=107 misses=")
        # one round trip per tile and per spectral set: 75 of each
        assert err[3].startswith("construction-memo: lookups=150 misses=")

    def test_verbose_with_json_keeps_stdout_canonical(self, capsys):
        argv = ["enumerate", "--p", "2", "--n", "2", "--shards", "2", "--json"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(argv + ["--verbose"]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == plain.out
        err = verbose.err.splitlines()
        assert err[0].startswith("wall-time: ")
        assert [line.split(":")[0] for line in err[1:]] == [
            "spectral-memo", "tile-memo", "construction-memo", "shard 0", "shard 1"
        ]

    def test_verbose_prints_one_line_per_shard(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["enumerate", "--p", "2", "--n", "2", "--sizes", "0,4", "--shards", "3",
                "--verbose", "--out", str(out)]
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        shard_lines = [line for line in err if line.startswith("shard ")]
        # sizes 0 and 4 are one block of colex ranks each, dealt to shards 0 and 1
        for i, (line, subsets) in enumerate(zip(shard_lines, (1, 70, 0), strict=True)):
            assert re.fullmatch(rf"shard {i}: subsets={subsets} seconds=\d+\.\d{{3}}", line)
        assert "shard" not in out.read_text() and "seconds" not in out.read_text()

    def test_broken_construction_keeps_exception_type(self, monkeypatch, capsys):
        import spectile.constructions as cons

        def broken(A, T=None, **_):
            raise KeyError("boom")

        monkeypatch.setattr(cons, "spectrum_from_tile", broken)
        assert main(["enumerate", "--p", "2", "--n", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        details = {mm["detail"] for mm in payload["mismatches"]}
        assert details == {"spectrum_from_tile: KeyError: 'boom'"}


class TestOracleCompareCommand:
    def test_small_run(self, capsys):
        assert main(["oracle-compare", "--p", "2", "--n", "2", "--trials", "200", "--seed", "9"]) == 0
        assert "discrepancies=0" in capsys.readouterr().out

    def test_zero_trials(self, capsys):
        assert main(["oracle-compare", "--p", "2", "--n", "1", "--trials", "0"]) == 0
        assert "trials=0" in capsys.readouterr().out

    def test_capacity_exits_3(self):
        assert main(["oracle-compare", "--p", "2", "--n", "16", "--trials", "1"]) == 3

    def test_broken_path_exits_1(self, monkeypatch, capsys):
        import spectile.charsum as cs
        import spectile.cli as cli_mod

        real = cs.ZeroTestComparison

        def broken(params, trials, seed):
            return real(params, trials, seed, ((1, 2),))

        monkeypatch.setattr(cli_mod, "compare_zero_tests", broken)
        assert main(["oracle-compare", "--p", "2", "--n", "1", "--trials", "5"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestLargestAcceptedOrder:
    # A 2-element tile at the order cap: every single-set command here
    # costs O(|A|) arithmetic plus a few O(|G|) bitmaps (2 MB each).
    BOUND_S = 5.0

    def _timed(self, argv):
        start = perf_counter()
        rc = main(argv)
        return rc, perf_counter() - start

    def test_single_set_commands_within_bound(self, tmp_path, capsys):
        assert GroupParams(2, 23).order == DEFAULT_ORDER_LIMIT
        a = write(tmp_path, "a.txt", "2 23\n0 0\n0 1\n")
        rc, wall = self._timed(["analyze", a])
        assert rc == 0 and wall < self.BOUND_S
        assert "divisibility-check: 2^1 | 2 ok" in capsys.readouterr().out
        rc, wall = self._timed(["spectrum", a])
        assert rc == 0 and wall < self.BOUND_S
        spectrum = capsys.readouterr().out
        assert spectrum == f"2 23\n0 0\n0 {2**22}\n"
        b = write(tmp_path, "b.txt", spectrum)
        rc, wall = self._timed(["check-pair", a, b, "--mode", "spectral"])
        assert rc == 0 and wall < self.BOUND_S
        assert capsys.readouterr().out.strip() == "true"

    def test_large_spectrum_verified_within_bound(self, tmp_path, capsys):
        # A 4096-element digit-span tile: the spectral check of its spectrum
        # (2^24 ordered pairs) makes one pass per class and is never skipped.
        a = write(tmp_path, "a.txt", "2 23\n" + "".join(f"0 {y}\n" for y in range(4096)))
        rc, wall = self._timed(["spectrum", a])
        assert rc == 0 and wall < self.BOUND_S
        spectrum, trace = capsys.readouterr()
        assert spectrum == "2 23\n" + "".join(f"0 {y << 11}\n" for y in range(4096))
        assert "case: IFull" in trace and "witness verified" not in trace
        b = write(tmp_path, "b.txt", spectrum)
        rc, wall = self._timed(["check-pair", a, b, "--mode", "spectral"])
        assert rc == 0 and wall < self.BOUND_S
        assert capsys.readouterr().out.strip() == "true"


class TestHugeParameters:
    # Each is refused by its order before any work that grows with p or n:
    # 2^61 - 1 would take about 10^9 trial divisions, and 2^(10^10 + 1) is
    # a 1.25 GB integer.  Each command runs in a subprocess with a timeout,
    # so a regression fails here rather than hanging the suite.
    @pytest.mark.parametrize(
        "header, argv",
        [
            ("2305843009213693951 1", None),
            ("2 10000000000", None),
            (None, ["enumerate", "--p", "2305843009213693951", "--n", "1"]),
        ],
        ids=["huge-p-header", "huge-n-header", "huge-p-enumerate"],
    )
    def test_refused_up_front(self, tmp_path, header, argv):
        if argv is None:
            argv = ["analyze", write(tmp_path, "a.txt", f"{header}\n0 0\n")]
        src = str(Path(spectile.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "spectile.cli", *argv],
            capture_output=True, text=True, timeout=5.0, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert f"exceeds the limit {DEFAULT_ORDER_LIMIT}" in proc.stderr


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "missing.txt")]) == 2
