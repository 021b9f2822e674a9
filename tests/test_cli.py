import json
import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import noma_tdma
from noma_tdma.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRegions:
    def test_csv_schema_and_boundary_values(self, tmp_path):
        out = tmp_path / "regions.csv"
        rc = main(["regions", "--x", "1", "--y", "3", "--points", "201",
                   "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_csv(out)
        assert header == ["region", "r2", "r1"]
        assert len(rows) == 3 * 201
        by_region = {}
        for region, r2, r1 in rows:
            by_region.setdefault(region, []).append((float(r2), float(r1)))
        assert set(by_region) == {"capacity", "noma", "tdma"}

        # capacity and tdma boundaries end at the strong user's full rate
        r1s, r2s = 1.0, 2.0  # log2(1 + x), log2(1 + y)
        assert by_region["capacity"][-1] == pytest.approx((r2s, 0.0), abs=1e-12)
        # noma arc stops at the a2 = 1/2 point F
        assert by_region["noma"][-1][0] == pytest.approx(math.log2(2.5),
                                                         abs=1e-12)
        # every tdma sample satisfies the time-sharing identity
        for r2, r1 in by_region["tdma"]:
            assert r1 / r1s + r2 / r2s == pytest.approx(1.0, abs=1e-9)

    def test_marked_points(self, capsys):
        rc = main(["regions", "--x", "1", "--y", "3", "--points", "5",
                   "--mark-a2", "0.25", "--mark-b2", "0.5"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        for name in ("point_N", "point_T", "point_B", "point_C", "point_D"):
            assert name in text

    def test_invalid_channel_is_usage_error(self):
        assert main(["regions", "--x", "3", "--y", "1"]) == EXIT_USAGE

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_exit_code_is_0_or_2(self, data):
        # valid input exits 0; anything else, argparse's own errors
        # included, exits 2; nothing raises
        x = data.draw(st.one_of(st.floats(5e-324, 1e300), st.floats()))
        y = data.draw(st.one_of(
            st.floats(0.0, 1e9).map(lambda d: x * (1.0 + d)),
            st.floats(5e-324, 1e300), st.floats()))
        a2 = data.draw(st.one_of(st.none(), st.floats(0.0, 0.5), st.floats()))
        b2 = data.draw(st.one_of(st.floats(0.0, 1.0), st.floats()))
        points = data.draw(st.integers(-2, 1000))
        argv = ["regions", f"--x={x!r}", f"--y={y!r}", f"--points={points}",
                f"--mark-b2={b2!r}"]
        if a2 is not None:
            argv.append(f"--mark-a2={a2!r}")
        valid = (math.isfinite(x) and math.isfinite(y) and 0.0 < x < y
                 and points >= 2 and (a2 is None or (0.0 <= a2 <= 0.5
                                                     and 0.0 <= b2 <= 1.0)))
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == (EXIT_OK if valid else EXIT_USAGE)

    @pytest.mark.parametrize("x, y, a2, b2", [
        (1.0, 3.0, 0.25, 0.5),
        (1.0, 3.0, 0.0, 0.3),
        (1.0, 3.0, 0.5, 1.0),
        # y - x = 4.2e-5 and a2 = 1e-12: z_D = 1.9e-11, which a form that
        # subtracts the single-user rates put at -1.3e-10 (exit 2)
        pytest.param(5.625576150119101, 5.625618591374388,
                     1.040696441692828e-12, 0.5, id="near_equal_tiny_split"),
        (5.0, 5.0001, 1e-9, 0.0),
        (0.01, 1e6, 0.1, 0.5),
        (1e-9, 2e-9, 0.5, 0.5),
        (100.0, 3000.0, 1e-6, 0.7),
        (3e7, 3.0000001e7, 0.4, 0.5),
        (1e12, 5e12, 0.49, 0.5),
    ])
    def test_marked_points_match_mpmath(self, x, y, a2, b2, capsys):
        # B, C and D are where the lines r1 = R1N, r2 = R2N and
        # r1 + r2 = R1N + R2N meet the TDMA segment r1/R1* + r2/R2* = 1,
        # here solved at 50 digits from the rate definitions
        mp = pytest.importorskip("mpmath")
        rc = main(["regions", "--x", repr(x), "--y", repr(y),
                   "--mark-a2", repr(a2), "--mark-b2", repr(b2)])
        assert rc == EXIT_OK
        got = {r[0]: (float(r[1]), float(r[2])) for r in
               (line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:])}
        with mp.workdps(50):
            x, y, a2 = mp.mpf(x), mp.mpf(y), mp.mpf(a2)
            r1s, r2s = mp.log1p(x) / mp.ln2, mp.log1p(y) / mp.ln2
            r1n = mp.log((1 + x) / (1 + a2 * x)) / mp.ln2
            r2n = mp.log1p(a2 * y) / mp.ln2
            z_d = r2s * (r1n + r2n - r1s) / (r2s - r1s)
            want = {"point_B": (r2s * (1 - r1n / r1s), r1n),
                    "point_C": (r2n, r1s * (1 - r2n / r2s)),
                    "point_D": (z_d, r1n + r2n - z_d)}
            for name, point in want.items():
                for g, w in zip(got[name], point):
                    assert abs(g - w) <= 1e-15 * r2s, name


class TestEvents:
    def test_closed_row_sums_to_one(self, tmp_path):
        out = tmp_path / "events.csv"
        rc = main(["events", "--m", "2", "--n", "7", "--method", "closed",
                   "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_csv(out)
        assert header[:7] == ["m", "n", "method", "p_e1", "p_e2", "p_e3",
                              "p_e4"]
        assert len(rows) == 1
        probs = [float(v) for v in rows[0][3:7]]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_all_methods_agree(self, tmp_path):
        out = tmp_path / "events.csv"
        rc = main(["events", "--m", "1", "--n", "10", "--method", "all",
                   "--trials", "100000", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert [r[2] for r in rows] == ["closed", "quadrature", "mc"]
        closed = [float(v) for v in rows[0][3:7]]
        for row in rows[1:]:
            probs = [float(v) for v in row[3:7]]
            assert probs == pytest.approx(closed, abs=5e-3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "events.json"
        rc = main(["events", "--m", "4", "--n", "5", "--method", "closed",
                   "--format", "json", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["manifest"]["command"] == "events"
        assert len(doc["records"]) == 1
        assert doc["records"][0]["method"] == "closed"


    def test_closed_form_at_large_population(self, tmp_path):
        # P(E4) is 2.2e-14 here: a result that cancels to a few ulp of the
        # summands lands below zero and is rejected as inconsistent
        out = tmp_path / "events.csv"
        rc = main(["events", "--M", "30", "--m", "7", "--n", "22",
                   "--rho-db", "25", "--a2-mode", "special",
                   "--method", "closed", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert math.fsum(float(v) for v in rows[0][3:7]) == pytest.approx(
            1.0, abs=1e-9)

    @pytest.mark.parametrize("point", [
        ["--m", "600", "--n", "601", "--rho-db", "25"],
        # a2 near 1/2 keeps w2 small, so P(E4) = 0.88 here
        ["--m", "300", "--n", "600", "--rho-db", "0", "--a2-mode", "fixed:0.4"],
    ])
    def test_closed_form_past_float_factorials(self, point, tmp_path):
        # the order-statistic normalisers M!/(...) overflow a float at
        # M = 1200; the closed forms agree with the quadrature within its tol
        probs = {}
        for method in ("closed", "quadrature"):
            out = tmp_path / f"{method}.csv"
            rc = main(["events", "--M", "1200", *point, "--method", method,
                       "--quad-tol", "1e-6", "--out", str(out)])
            assert rc == EXIT_OK
            _, rows = _read_csv(out)
            probs[method] = [float(v) for v in rows[0][3:7]]
        assert probs["closed"] == pytest.approx(probs["quadrature"], abs=1e-6)

    @pytest.mark.parametrize("method", ["closed", "all"])
    def test_closed_form_rejects_unequal_time_split(self, method, capsys):
        rc = main(["events", "--m", "2", "--n", "7", "--method", method,
                   "--b2", "0.3"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b2 = 1/2 only" in captured.err


class TestA2Mode:
    @pytest.mark.parametrize("command", [["events", "--m", "2", "--n", "7"],
                                         ["sweep-n"]])
    def test_unknown_mode_is_usage_error(self, command, capsys):
        rc = main([*command, "--method", "closed", "--a2-mode", "bogus"])
        assert rc == EXIT_USAGE
        assert "a2 mode must be" in capsys.readouterr().err


    def test_split_whose_square_underflows(self, tmp_path):
        # a2**2 is 0 at a2 = 1e-300, so w2 is inf, and every method puts
        # all the mass on E4
        out = tmp_path / "events.csv"
        rc = main(["events", "--m", "2", "--n", "7", "--a2-mode",
                   "fixed:1e-300", "--method", "all", "--trials", "10000",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert [r[2] for r in rows] == ["closed", "quadrature", "mc"]
        for row in rows:
            probs = [float(v) for v in row[3:7]]
            assert probs == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)


class TestNonFiniteInputs:
    # NaN fails every comparison, so a range check written as "reject if
    # out of range" lets it through; the CLI must still exit 2
    @pytest.mark.parametrize("command", [["events", "--m", "2", "--n", "7"],
                                         ["sweep-n", "--M", "4"]])
    @pytest.mark.parametrize("method", ["quadrature", "mc"])
    @pytest.mark.parametrize("split", [["--a2-mode", "fixed:nan"],
                                       ["--b2", "nan"]])
    def test_nan_split_is_usage_error(self, command, method, split, capsys):
        rc = main([*command, "--method", method, *split, "--trials", "1000"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_quad_tol_is_usage_error(self, tol, capsys):
        rc = main(["events", "--m", "2", "--n", "7", "--method", "quadrature",
                   "--quad-tol", tol])
        assert rc == EXIT_USAGE
        assert "tol must be finite" in capsys.readouterr().err


class TestSweepN:
    def test_row_count_and_monotonicity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep-n", "--M", "10", "--m", "1", "--method", "closed",
                   "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_csv(out)
        assert header == ["n", "method", "p_e2", "stderr_e2"]
        assert [int(r[0]) for r in rows] == list(range(2, 11))
        p2 = [float(r[2]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(p2, p2[1:]))

    @pytest.mark.parametrize("m", ["0", "10", "12"])
    def test_empty_sweep_is_usage_error(self, m, capsys):
        # n runs over m+1..M, so m must satisfy 1 <= m < M
        rc = main(["sweep-n", "--M", "10", "--m", m, "--method", "closed"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 <= m < M" in captured.err

    @pytest.mark.parametrize("method", ["closed", "all"])
    def test_closed_form_rejects_unequal_time_split(self, method, capsys):
        rc = main(["sweep-n", "--M", "4", "--method", method, "--b2", "0.2"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b2 = 1/2 only" in captured.err


class TestRates:
    def test_columns_and_positivity(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = main(["rates", "--rho-db", "20", "30", "--trials", "20000",
                   "--out", str(out)])
        assert rc == EXIT_OK
        header, rows = _read_csv(out)
        assert header[:5] == ["rho_db", "r1_noma", "r2_noma", "r1_tdma",
                              "r2_tdma"]
        assert len(rows) == 2
        for row in rows:
            assert all(float(v) >= 0.0 for v in row[1:5])
        # rates grow with SNR
        assert float(rows[1][2]) > float(rows[0][2])


class TestValidate:
    def test_regions_suite_passes(self, capsys):
        assert main(["validate", "--suite", "regions"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "checks passed" in text
        assert "FAIL" not in text

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--suite", "bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_heavy_scipy_loads_with_the_orderstats_suite_only(self):
        # every command pays the import of noma_tdma.cli in a fresh process;
        # these scipy submodules add ~0.2 s and ~25 MB to it, and only the
        # orderstats self-check (dblquad, kstest) needs them
        code = textwrap.dedent("""
            import json, sys
            from noma_tdma.cli import main
            heavy = ["scipy.integrate", "scipy.optimize", "scipy.stats",
                     "scipy.sparse.linalg"]
            at_import = [name for name in heavy if name in sys.modules]
            rc = main(["validate", "--suite", "orderstats"])
            print(json.dumps([at_import, rc, "scipy.integrate" in sys.modules]))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            noma_tdma.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert json.loads(proc.stdout.splitlines()[-1]) == [[], EXIT_OK, True]


class TestManifest:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_manifest_written_and_rerun_byte_identical(self, fmt, tmp_path):
        # the sidecar manifest carries the run's timestamp; the data file,
        # JSON with its embedded manifest included, does not
        out = tmp_path / f"events.{fmt}"
        argv = ["events", "--m", "2", "--n", "7", "--method", "mc",
                "--trials", "30000", "--seed", "17", "--format", fmt,
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        manifest = json.loads(
            (tmp_path / f"events.{fmt}.manifest.json").read_text())
        assert manifest["command"] == "events"
        assert manifest["seed"] == 17
        assert manifest["rng_scheme"].startswith("philox")
        assert "timestamp" in manifest
        assert str(out) in manifest["outputs"]

        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first

    def test_line_endings_are_lf(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["regions", "--x", "1", "--y", "3", "--points", "4",
              "--out", str(out)])
        assert b"\r" not in out.read_bytes()
