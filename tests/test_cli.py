"""Command-line interface: output formats, schemas, exit codes."""

import contextlib
import csv
import io
import json
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monogamy import cli, spectral
from monogamy.extendibility import p_w_complete

from conftest import PENDANT_EDGES, PENDANT_N, load_golden


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValue:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--family", "werner", "--n", "7", "--d", "3")
        assert code == 0
        assert out.startswith("11/21 ")

    def test_json_schema_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--family", "brauer", "--n", "5", "--d", "3", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "family": "brauer",
            "n": 5,
            "d": 3,
            "value": {"num": 7, "den": 15},
            "method": "closed_form",
        }
        restored = cli.value_from_json(obj)
        assert restored.value == Fraction(7, 15)
        assert cli.value_to_json(restored) == obj

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--family", "isotropic-prime", "--n", "4", "--d", "2",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "d", "value", "decimal", "method"]
        assert rows[1][3] == "1/3"

    def test_bipartite(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", "--family", "isotropic-bipartite", "--n", "2", "--d", "2", "--m", "3"
        )
        assert code == 0
        assert out.startswith("2/3 ")

    def test_bipartite_record_carries_m(self, capsys):
        argv = ["value", "--family", "isotropic-bipartite", "--n", "2", "--m", "3", "--d", "2"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "family": "isotropic_bipartite",
            "n": 2,
            "m": 3,
            "d": 2,
            "value": {"num": 2, "den": 3},
            "method": "closed_form",
        }
        restored = cli.value_from_json(obj)
        assert (restored.graph, restored.m, restored.value) == ("K_{2,3}", 3, Fraction(2, 3))
        assert cli.value_to_json(restored) == obj
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "m", "d", "value", "decimal", "method"]
        assert rows[1][:5] == ["isotropic_bipartite", "2", "3", "2", "2/3"]

    def test_m_with_complete_graph_family_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "value", "--family", "werner", "--n", "3", "--d", "2", "--m", "7"
        )
        assert code == 2
        assert out == ""
        assert "bipartite" in err

    def test_usage_error_bad_n(self, capsys):
        code, _, err = run_cli(capsys, "value", "--family", "werner", "--n", "1", "--d", "2")
        assert code == 2
        assert "error" in err


class TestTable:
    @pytest.mark.parametrize(
        "family,golden",
        [
            ("werner", "werner"),
            ("brauer", "brauer"),
            ("isotropic-prime", "isotropic_prime"),
            ("isotropic", "isotropic"),
        ],
    )
    def test_csv_matches_golden(self, capsys, family, golden):
        code, out, _ = run_cli(
            capsys, "table", "--family", family, "--max", "9", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        ns = [int(x) for x in rows[0][1:]]
        cells = {}
        for row in rows[1:]:
            d = int(row[0])
            for n, val in zip(ns, row[1:]):
                cells[(n, d)] = Fraction(val)
        assert cells == load_golden(golden)

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "werner", "--max", "3", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        by_key = {(r["n"], r["d"]): Fraction(r["value"]["num"], r["value"]["den"]) for r in rows}
        assert by_key[(3, 2)] == p_w_complete(3, 2)

    def test_max_below_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["table", "--family", "werner", "--max", "1"])
        assert exc.value.code == 2
        assert "--max" in capsys.readouterr().err


class TestSpectrum:
    def test_jm_sym(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--what", "jm-sym", "--n", "2", "--d", "2", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["eigenvalue", "multiplicity"]
        pairs = [(round(float(v)), int(m)) for v, m in rows[1:]]
        assert pairs == [(-1, 1), (1, 3)]

    def test_werner_hamiltonian_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--what", "werner", "--n", "3", "--d", "2", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert max(obj["eigenvalues"]) == pytest.approx(float(p_w_complete(3, 2)), abs=1e-9)
        assert sum(obj["multiplicities"]) == 8

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOGAMY_BUDGET", "64")
        code, _, err = run_cli(capsys, "spectrum", "--what", "jm-sym", "--n", "7", "--d", "2")
        assert code == 3
        assert "budget" in err

    def test_malformed_env_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOGAMY_BUDGET", "4k")
        code, out, err = run_cli(capsys, "spectrum", "--what", "jm-sym", "--n", "3", "--d", "2")
        assert code == 2
        assert out == ""
        assert "MONOGAMY_BUDGET" in err and "'4k'" in err
        assert "int()" not in err

    @pytest.mark.parametrize("what", ["jm-sym", "werner"])
    def test_missing_n_is_usage_error(self, capsys, what):
        code, _, err = run_cli(capsys, "spectrum", "--what", what, "--d", "2")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("what", ["jm-sym", "jm-brauer"])
    def test_jm_sum_rejects_graph(self, capsys, tmp_path, what):
        missing = str(tmp_path / "absent.json")
        code, out, err = run_cli(capsys, "spectrum", "--what", what, "--n", "2", "--d", "2",
                                 "--graph", missing)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--graph" in err

    @pytest.mark.parametrize("what", ["werner", "brauer"])
    def test_graph_with_n_is_usage_error(self, capsys, tmp_path, what):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        code, out, err = run_cli(capsys, "spectrum", "--what", what, "--graph", str(path),
                                 "--n", "5", "--d", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--n or --graph, not both" in err

    @pytest.mark.parametrize("what,n", [("jm-sym", "-1"), ("jm-brauer", "-2"), ("jm-sym", "0")])
    def test_negative_n_is_usage_error(self, capsys, what, n):
        code, out, err = run_cli(capsys, "spectrum", "--what", what, "--n", n, "--d", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "n >= 1" in err


class TestMatchings:
    def test_missing_graph_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["matchings", "--count"])
        assert exc.value.code == 2
        assert "--complete" in capsys.readouterr().err

    def test_graph_missing_n_exit_code(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"edges": [[0, 1]]}')
        for argv in (("matchings", "--graph", str(path)),
                     ("spectrum", "--what", "werner", "--d", "2", "--graph", str(path))):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert '"n"' in err

    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "matchings", "--complete", "6", "--count")
        assert code == 0
        assert out.strip() == "15"

    def test_huge_count_stops_at_the_budget(self, capsys):
        # K_40 has 39!! matchings; enumeration stops one past the default cap
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "matchings", "--complete", "40", "--count")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "4096" in err and "Traceback" not in err

    @pytest.mark.parametrize("count_only", [True, False])
    def test_budget_is_a_cap_on_the_count(self, capsys, count_only):
        # K_8 has 7!! = 105 matchings
        flag = ["--count"] if count_only else []
        code, out, _ = run_cli(capsys, "matchings", "--complete", "8", "--budget", "105", *flag)
        assert code == 0
        assert out.splitlines()[-1] == ("105" if count_only else "total 105")
        code, out, err = run_cli(capsys, "matchings", "--complete", "8", "--budget", "104", *flag)
        assert (code, out) == (3, "")
        assert "104" in err

    @pytest.mark.parametrize("k", [15, 21])
    def test_odd_component_counts_zero_at_once(self, capsys, tmp_path, k):
        # K_k plus an isolated vertex has no perfect matching; the search used to
        # meet that dead end once per partial matching of K_k
        path = tmp_path / "g.json"
        edges = [[u, v] for u in range(k) for v in range(u + 1, k)]
        path.write_text(json.dumps({"n": k + 1, "edges": edges}))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "matchings", "--graph", str(path), "--count")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "0\n")

    def test_pendant_dead_end_counts_zero_at_once(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": PENDANT_N, "edges": PENDANT_EDGES}))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "matchings", "--graph", str(path), "--count")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "0\n")

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "matchings", "--complete", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "total 3"
        assert "(0,1) (2,3)" in lines

    @pytest.mark.parametrize("n", [-2, -3])
    def test_graph_negative_n_is_usage_error(self, capsys, tmp_path, n):
        path = tmp_path / "g.json"
        path.write_text('{"n": %d, "edges": []}' % n)
        code, out, err = run_cli(capsys, "matchings", "--graph", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"n={n}" in err

    def test_graph_without_vertices_has_one_empty_matching(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 0, "edges": []}')
        code, out, _ = run_cli(capsys, "matchings", "--graph", str(path))
        assert code == 0
        assert out.splitlines()[-1] == "total 1"

    def test_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 4, "edges": [[0, 1], [2, 3]], "family": "custom"}')
        code, out, _ = run_cli(capsys, "matchings", "--graph", str(path), "--count")
        assert code == 0
        assert out.strip() == "1"


class TestPptRegion:
    def test_separable(self, capsys):
        code, out, _ = run_cli(capsys, "ppt-region", "--p", "1/2", "--q", "1/2", "--d", "2")
        assert code == 0
        assert out.startswith("separable")
        assert "ppt=yes" in out

    def test_entangled(self, capsys):
        code, out, _ = run_cli(capsys, "ppt-region", "--p", "1", "--q", "0", "--d", "2")
        assert code == 0
        assert out.startswith("entangled")
        assert "ppt=no" in out

    def test_prime_parameterization(self, capsys):
        code, out, _ = run_cli(
            capsys, "ppt-region", "--p", "0", "--q", "0", "--d", "3", "--prime"
        )
        assert code == 0
        assert out.startswith("separable")

    def test_invalid_state(self, capsys):
        code, out, _ = run_cli(capsys, "ppt-region", "--p", "2", "--q", "0", "--d", "2")
        assert code == 0
        assert out.startswith("invalid")

    def test_d_below_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ppt-region", "--p", "0", "--q", "0", "--d", "1"])
        assert exc.value.code == 2
        assert "--d" in capsys.readouterr().err


class TestDualScan:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "dual-scan", "--n", "3", "--d", "2", "--points", "5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "lambda_max"]
        assert len(rows) == 6

    def test_points_below_two_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dual-scan", "--n", "3", "--d", "2", "--points", "1"])
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--lo", "nan"), ("--hi", "inf")])
    def test_non_finite_bound_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dual-scan", "--n", "3", "--d", "2", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "finite" in err

    def test_overflowing_range_is_usage_error(self, capsys):
        # the pair operator at x = -1e308 overflows; the scan bound refuses it first
        with pytest.raises(SystemExit) as exc:
            cli.main(["dual-scan", "--n", "3", "--d", "2", "--lo=-1e308", "--hi=1e308"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--lo" in captured.err and "1e+100" in captured.err

    @pytest.mark.parametrize("lo,hi", [("1e160", "1e160"), ("-1e100", "1.1e100")])
    def test_bound_beyond_scan_limit_is_usage_error(self, capsys, lo, hi):
        # at 1e160 the Lanczos norms overflowed and lambda_max/x printed 0.439, not 6
        with pytest.raises(SystemExit) as exc:
            cli.main(["dual-scan", "--n", "3", "--d", "2", f"--lo={lo}", f"--hi={hi}",
                      "--points", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1e+100" in captured.err

    def test_scan_at_the_bound_is_exact_and_warns_nothing(self, capsys):
        # lambda_max(H(x)) = 6x at n = 3, d = 2 for large positive x
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, "dual-scan", "--n", "3", "--d", "2", "--lo", "1e100",
                                   "--hi", "1e100", "--points", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for row in rows:
            assert abs(float(row["lambda_max"]) / float(row["x"]) - 6) <= 1e-9
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "dual-scan", "--n", "7", "--d", "4")
        assert code == 3
        assert "error" in err

    def test_budget_below_one_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "dual-scan", "--n", "3", "--d", "2", "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "budget must be at least 1, got -1" in err

    def test_eigensolver_non_convergence_exit_code(self, capsys, monkeypatch):
        # H(-1) on 3 qubits has three distinct eigenvalues, so at the scan's
        # first point a two-vector basis fills before the top pair converges
        # and, with no restart allowed, the solver raises
        monkeypatch.setattr(spectral, "BASIS_VECTORS", 2)
        monkeypatch.setattr(spectral, "MAX_RESTARTS", 0)
        code, out, err = run_cli(capsys, "dual-scan", "--n", "3", "--d", "2")
        assert code == 4
        assert out == ""
        assert err.startswith("error: numeric eigensolver did not converge")
        assert "Traceback" not in err

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOGAMY_BUDGET", "16")
        code, _, _ = run_cli(capsys, "dual-scan", "--n", "3", "--d", "3")
        assert code == 3
        monkeypatch.setenv("MONOGAMY_BUDGET", "64")
        code, _, _ = run_cli(capsys, "dual-scan", "--n", "3", "--d", "3", "--points", "3")
        assert code == 0


class TestCycle:
    def test_output(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", "--max", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("C_4: 0.75")
        assert lines[-1].startswith("ln(2) limit: 0.6931")

    def test_budget_below_one_is_usage_error_without_a_cycle(self, capsys):
        # --max 3 runs no cycle; the cap is still checked
        code, out, err = run_cli(capsys, "cycle", "--max", "3", "--budget", "-1")
        assert code == 2
        assert out == ""
        assert "budget must be at least 1, got -1" in err


class TestVerify:
    def test_check_names_in_run_order(self):
        assert [f.__name__ for f in cli.checks.CHECKS] == [
            "check_dual_solvers_exact",
            "check_brauer_composition",
            "check_jm_spectra",
            "check_joint_spectrum_easy_pairs",
            "check_ppt_region",
            "check_conjecture_probe",
            "check_asymptotics",
            "check_oracle_closed_forms",
            "check_primal_certificates",
            "check_matching_states",
            "check_iso_dual_numeric",
            "check_cycle_values",
            "check_bipartite",
        ]

    @pytest.mark.parametrize("budget", ["1", "10", "64"])
    def test_small_budget_runs_every_check(self, capsys, budget):
        code, out, err = run_cli(capsys, "verify", "--all", "--budget", budget)
        assert code == 0
        assert len([ln for ln in out.splitlines() if ln.startswith(("PASS ", "FAIL "))]) == 13
        assert err == ""

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run_cli(capsys, "verify", "--all", "--budget", budget)
        assert code == 2
        assert out == ""
        assert f"budget must be at least 1, got {budget}" in err

    def test_env_budget_below_one_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MONOGAMY_BUDGET", "0")
        code, out, err = run_cli(capsys, "verify", "--all")
        assert code == 2
        assert out == ""
        assert "MONOGAMY_BUDGET must be at least 1" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.checks, "run_all", lambda budget=None: iter([("stub", False, "boom")])
        )
        code, out, _ = run_cli(capsys, "verify", "--all")
        assert code == 1
        assert "FAIL stub" in out

    def test_success_output_shape(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli.checks,
            "run_all",
            lambda budget=None: iter([("a", True, "ok"), ("b", True, "ok")]),
        )
        code, out, _ = run_cli(capsys, "verify", "--all")
        assert code == 0
        assert out.count("PASS") == 2
        assert out.strip().endswith("(0 failing checks)")


class TestInternalError:
    def test_unexpected_exception_exits_5_without_traceback(self, capsys, monkeypatch):
        def broken(args, out):
            raise RuntimeError("planted fault")

        monkeypatch.setattr(cli, "cmd_value", broken)
        code, out, err = run_cli(capsys, "value", "--family", "werner", "--n", "3", "--d", "2")
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err == "internal error: RuntimeError: planted fault\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["spectrum --what jm-sym", "dual-scan"])
    def test_zero_d_with_negative_n_is_a_usage_error(self, capsys, command):
        # the budget guard once evaluated 0 ** -1 and exited 5
        code, out, err = run_cli(capsys, *command.split(), "--n", "-1", "--d", "0")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: need n >= ")


FORMATS = st.sampled_from(["text", "csv", "json", "xml"])
NO_GRAPH = st.just("no-such-graph.json")
# every d^n path stays at n <= 4, d <= 3; --max, --complete and --points stay
# small, so no generated run can start a search that no cap bounds
N_SMALL = st.integers(-1, 4)
D_SMALL = st.integers(-1, 3)
# scan bounds on both sides of cli.SCAN_BOUND
SCAN_X = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300))
# per command, its flags with a strategy for the value (None for a switch)
COMMAND_FLAGS = {
    "value": [("--family", st.sampled_from(cli.CLI_FAMILIES)), ("--n", st.integers(-1, 12)),
              ("--d", st.integers(-1, 12)), ("--m", st.integers(-1, 12)), ("--format", FORMATS)],
    "table": [("--family", st.sampled_from(cli.CLI_FAMILIES)), ("--max", st.integers(-1, 6)),
              ("--format", FORMATS)],
    "spectrum": [("--what", st.sampled_from(["jm-sym", "jm-brauer", "werner", "brauer", "flip"])),
                 ("--n", N_SMALL), ("--d", D_SMALL), ("--graph", NO_GRAPH), ("--format", FORMATS)],
    "matchings": [("--complete", st.integers(-1, 10)), ("--graph", NO_GRAPH), ("--count", None),
                  ("--budget", st.integers(-1, 1000))],
    "ppt-region": [("--p", st.fractions(-2, 2, max_denominator=12)),
                   ("--q", st.fractions(-2, 2, max_denominator=12)), ("--d", st.integers(-1, 12)),
                   ("--prime", None)],
    "dual-scan": [("--n", N_SMALL), ("--d", D_SMALL), ("--lo", SCAN_X), ("--hi", SCAN_X),
                  ("--points", st.integers(-1, 5)),
                  ("--budget", st.integers(-1, 100)), ("--format", FORMATS)],
    "cycle": [("--max", st.integers(-1, 6)), ("--budget", st.integers(-1, 100))],
}
REQUIRED_FLAGS = {"--family", "--n", "--d", "--what", "--complete", "--p", "--q"}
# no junk token names an option or is a large number, so none can lift a size bound
JUNK = st.sampled_from(["", "x", "0", "-1", "1/0", "nan", "inf", "1e999", "--bogus", "-z", "--"])


@st.composite
def generated_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag, values in COMMAND_FLAGS[command]:
        # a required flag is left out less often, so more runs get past argparse
        if draw(st.integers(0, 3)) < (3 if flag in REQUIRED_FLAGS else 2):
            # flag=value, so that argparse reads a negative value as a value
            argv.append(flag if values is None else f"{flag}={draw(values)}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


class TestGeneratedArgv:
    @given(generated_argv())
    # few generated dual-scan runs get past argparse, so the overflow that
    # once printed a wrong lambda_max with exit 0 is pinned as an example
    @example(["dual-scan", "--n=3", "--d=2", "--lo=1e160", "--hi=1e160", "--points=2"])
    @settings(max_examples=300, deadline=None)
    def test_every_exit_code_is_documented_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in {0, 2, 3, 4, 5}, (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        # a numpy overflow warning means the printed numbers may be wrong
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not runtime, (argv, runtime)
