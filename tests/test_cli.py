import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import noma_tdma
from noma_tdma import quadrature
from noma_tdma.analytic import event_probabilities_closed
from noma_tdma.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    VALIDATE_SUITES,
    main,
)
from noma_tdma.order_stats import PairingConfig


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

    @pytest.mark.parametrize("M, m, n, rho_db, a2_mode, a2", [
        (1000, 999, 1000, 0.0, "fixed:0.3", 0.3),
        (10000, 5000, 5001, 20.0, "inv_sqrt_rho", 0.1),
    ], ids=["M1000", "M10000"])
    def test_quadrature_sum_within_its_window_exits_0(
            self, M, m, n, rho_db, a2_mode, a2, tmp_path):
        # narrow u-laws at a loose tol: the oracle's masses sum to 1 -
        # 1.3e-10 and 1 - 1.3e-12 here (1 - 3.1e-8 and 1 - 1.1e-9 with eight
        # fixed starting panels), and the command exits 0; the 10 * tol
        # window itself is test_sum_check_window_is_ten_tol's
        out = tmp_path / "events.csv"
        rc = main(["events", "--M", str(M), "--m", str(m), "--n", str(n),
                   "--rho-db", str(rho_db), "--a2-mode", a2_mode,
                   "--method", "quadrature", "--quad-tol", "1e-4",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        closed = event_probabilities_closed(
            PairingConfig(M, m, n, 10.0**(rho_db / 10.0)), a2)
        assert [float(p) for p in rows[0][3:7]] == pytest.approx(
            closed.as_tuple(), abs=1e-4)


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


class TestSnrRange:
    # past ~3060 dB a drawn or integrated x overflows to inf; rho is capped
    # at 1e300 (3000 dB) where it enters every solver
    @pytest.mark.parametrize("argv", [
        *(["events", "--m", "2", "--n", "7", "--rho-db", "3080",
           "--method", method] for method in ("closed", "quadrature", "mc",
                                              "all")),
        ["rates", "--m", "1", "--n", "10", "--rho-db", "3080"],
        # rho = 10**(-400) underflows to 0, which optimal_a2_special rejects
        ["sweep-n", "--rho-db", "-4000", "--a2-mode", "special"],
    ], ids=["closed", "quadrature", "mc", "all", "rates", "special-rho0"])
    def test_out_of_range_is_usage_error(self, argv, capsys):
        rc = main([*argv, "--trials", "1000"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rho" in captured.err

    @pytest.mark.parametrize("argv", [
        ["events", "--m", "2", "--n", "7", "--method", "all"],
        ["sweep-n", "--M", "4", "--method", "all"],
        ["rates", "--m", "1", "--n", "10"],
    ], ids=["events", "sweep-n", "rates"])
    @pytest.mark.parametrize("rho_db", ["3090", "nan"])
    def test_rho_db_above_3000_is_usage_error(self, argv, rho_db, capsys):
        # 10**(3090/10) overflows a float: the limit is checked on the dB
        # value, before any conversion, and NaN fails it too
        rc = main([*argv, "--rho-db", rho_db, "--trials", "1000"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--rho-db" in captured.err and "3000" in captured.err
        assert "Traceback" not in captured.err

    def test_events_at_3000_db(self, tmp_path):
        out = tmp_path / "events.csv"
        rc = main(["events", "--m", "2", "--n", "7", "--rho-db", "3000",
                   "--method", "all", "--trials", "1000", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert [r[2] for r in rows] == ["closed", "quadrature", "mc"]
        for row in rows:
            probs = [float(v) for v in row[3:7]]
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_rates_at_3000_db(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = main(["rates", "--m", "1", "--n", "10", "--rho-db", "3000",
                   "--trials", "1000", "--out", str(out)])
        assert rc == EXIT_OK
        _, rows = _read_csv(out)
        assert all(math.isfinite(float(v)) for v in rows[0])


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
        # scipy.special adds ~0.2 s and ~23 MB to it, and only the closed
        # forms, the quadrature and `validate` need it; the heavier scipy
        # submodules only the orderstats self-check (dblquad, kstest) needs
        code = textwrap.dedent("""
            import json, sys
            def scipy_loaded():
                return any(name.split(".")[0] == "scipy"
                           for name in sys.modules)
            import noma_tdma
            loaded = [scipy_loaded()]
            from noma_tdma.cli import main
            loaded.append(scipy_loaded())
            mc = ["--M", "6", "--m", "2", "--trials", "4096"]
            for argv in (["regions", "--x", "1", "--y", "3", "--points", "3",
                          "--mark-a2", "0.25"],
                         ["rates", *mc, "--n", "5", "--rho-db", "20"],
                         ["events", *mc, "--n", "5", "--method", "mc"],
                         ["sweep-n", *mc, "--method", "mc"]):
                assert main(argv) == 0, argv
                loaded.append(scipy_loaded())
            assert main(["events", "--m", "2", "--n", "7",
                         "--method", "closed"]) == 0
            loaded.append("scipy.special" in sys.modules)
            heavy = ["scipy.integrate", "scipy.optimize", "scipy.stats",
                     "scipy.sparse.linalg"]
            at_import = [name for name in heavy if name in sys.modules]
            rc = main(["validate", "--suite", "orderstats"])
            print(json.dumps([loaded, at_import, rc,
                              "scipy.integrate" in sys.modules]))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            noma_tdma.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert json.loads(proc.stdout.splitlines()[-1]) == [
            [False] * 6 + [True], [], EXIT_OK, True]


class TestPublicApi:
    def test_one_error_class_for_every_solver(self):
        from noma_tdma import analytic, events
        assert (events.ConvergenceError is analytic.ConvergenceError
                is quadrature.ConvergenceError)

    def test_readme_names_resolve(self):
        # the README maps each paper result to `noma_tdma.<module>.<name>`,
        # and names are imported from the module that defines them
        readme = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "README.md")
        with open(readme) as fh:
            names = re.findall(r"`noma_tdma\.(\w+)\.(\w+)`", fh.read())
        assert {module for module, _ in names} >= {
            "regions", "events", "order_stats", "analytic", "quadrature",
            "montecarlo"}
        missing = [f"{module}.{name}" for module, name in names
                   if not hasattr(importlib.import_module(
                       f"noma_tdma.{module}"), name)]
        assert not missing

    def test_quadrature_convergence_error_exits_3(self, monkeypatch, capsys):
        # the shared budget runs out during refinement, not at the start:
        # this solve needs 3 levels
        from noma_tdma import analytic
        monkeypatch.setattr(analytic, "_QUAD_LEVELS", 2)
        rc = main(["events", "--m", "2", "--n", "7", "--method",
                   "quadrature", "--quad-tol", "1e-9"])
        assert rc == EXIT_NO_CONVERGENCE
        assert "residual error estimate" in capsys.readouterr().err

    def test_quadrature_bisection_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(quadrature, "_BISECT_ITERS", 4)
        rc = main(["events", "--m", "4", "--n", "5", "--method",
                   "quadrature"])
        assert rc == EXIT_NO_CONVERGENCE
        assert "bisection cap" in capsys.readouterr().err

    def test_validate_suites_resolve_to_checks(self):
        from noma_tdma import validation
        for name in VALIDATE_SUITES:
            assert callable(getattr(validation, f"check_{name}", None)), name


class TestExitCodes:
    # 63 examples: 7 for each command and method
    @pytest.mark.parametrize("command, method", [("rates", None)] + [
        (command, method) for command in ("events", "sweep-n")
        for method in ("closed", "quadrature", "mc", "all")])
    @settings(max_examples=7, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_solver_commands_exit_0_2_or_3(self, command, method, data):
        # the solvers are imported on first use, so a lookup that fails
        # would show as a traceback or as exit 1, which only `validate`
        # returns.  A valid argv has up to three of its values spoilt; M,
        # --trials and --shards are capped and tolerances in (1e-10, 1e-5),
        # valid but slow, are left out to keep this fast
        M = data.draw(st.integers(2, 50))
        m = data.draw(st.integers(1, M - 1))
        args = {"M": st.just(M), "m": st.just(m),
                "trials": st.integers(1, 2000), "shards": st.integers(1, 2),
                "seed": st.integers(0, 2**64)}
        bad = {"M": st.integers(-2, 1), "m": st.integers(-2, 60),
               "n": st.integers(-2, 60), "rho-db": st.floats(),
               "a2-mode": st.one_of(st.just("bogus"), st.floats().map(
                   lambda v: f"fixed:{v!r}")),
               "b2": st.floats(), "method": st.just("bogus"),
               "quad-tol": st.one_of(st.just(math.nan),
                                     st.floats(max_value=1e-11)),
               "trials": st.integers(-2, 0), "shards": st.integers(-1, 0),
               "seed": st.sampled_from([-1, 2**300])}
        if command != "sweep-n":
            args["n"] = st.integers(m + 1, M)
        if command == "rates":
            args["rho-db"] = st.lists(st.floats(10.0, 40.0), min_size=1,
                                      max_size=3)
            bad["rho-db"] = st.lists(st.floats(), min_size=1, max_size=3)
        else:
            args.update({
                "rho-db": st.floats(10.0, 40.0),
                "a2-mode": st.one_of(
                    st.sampled_from(["inv_sqrt_rho", "special"]),
                    st.floats(1e-3, 0.5).map(lambda v: f"fixed:{v!r}")),
                # the closed forms hold at b2 = 1/2 only
                "b2": st.just(0.5) if method in ("closed", "all")
                else st.floats(0.01, 0.99),
                "method": st.just(method),
                "quad-tol": st.floats(1e-5, 1e-2)})
        spoilt = data.draw(st.lists(st.sampled_from(sorted(args)),
                                    max_size=3, unique=True))
        argv = [command]
        for key, valid in args.items():
            value = data.draw(bad[key] if key in spoilt else valid)
            if isinstance(value, list):
                argv += [f"--{key}", *map(repr, value)]
            elif isinstance(value, str):
                argv.append(f"--{key}={value}")
            else:
                argv.append(f"--{key}={value!r}")
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == EXIT_USAGE
        else:
            assert rc in (EXIT_OK, EXIT_USAGE, EXIT_NO_CONVERGENCE)


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
        assert manifest["rng_scheme"] == "sfc64-seedseq-blocks-v6"
        assert "timestamp" in manifest
        assert str(out) in manifest["outputs"]

        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first

    def test_regions_records_no_rng_scheme(self, tmp_path):
        # regions draws no random number, so neither its data file nor its
        # sidecar may change with the Monte Carlo scheme
        out = tmp_path / "r.json"
        assert main(["regions", "--x", "1", "--y", "3", "--points", "4",
                     "--format", "json", "--out", str(out)]) == EXIT_OK
        sidecar = json.loads((tmp_path / "r.json.manifest.json").read_text())
        for manifest in (json.loads(out.read_text())["manifest"], sidecar):
            assert manifest["seed"] is None
            assert manifest["rng_scheme"] is None

    def test_line_endings_are_lf(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["regions", "--x", "1", "--y", "3", "--points", "4",
              "--out", str(out)])
        assert b"\r" not in out.read_bytes()
