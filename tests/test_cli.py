"""CLI contracts: artifacts, summaries, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import load_json, read_table
from finitejj import observables, wick
from finitejj.cli import (
    MAX_WICK_DEGREE,
    CliError,
    _grid_from,
    _write_scalars,
    _write_table,
    build_parser,
    main,
)
from oracles import fock_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def run_in_tmpdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_bands_row_column_contract(tmp_path, capsys):
    code = main(
        "bands --pairs 10 --ejec 0.2 --from -11 --to 11 --steps 441 --levels 3 "
        "--window full".split()
    )
    assert code == 0
    table = read_table(tmp_path / "bands.csv")
    assert table.grid.size == 441
    assert list(table.columns) == ["E0", "E1", "E2", "converged"]
    assert np.all(table.columns["converged"] == 1.0)
    assert "bands" in capsys.readouterr().out


def test_bands_csv_body_is_rfc4180(tmp_path):
    main("bands --pairs 4 --ejec 1.0 --from -1 --to 1 --steps 3 --window full".split())
    raw = (tmp_path / "bands.csv").read_bytes().decode()
    lines = raw.split("\r\n")
    assert lines[0].startswith("# meta ")
    assert lines[1].split(",")[0] == "n_g"
    assert lines[-1] == ""  # trailing CRLF
    # every data cell parses back to a float exactly (17 significant digits)
    cells = lines[2].split(",")
    assert float(cells[0]) == -1.0


GOLDEN_TABLE = {
    "csv": b'# meta {"e_c": 1.0, "pairs_total": 10, "window_mode": "full"}\r\n'
           b"n_g,E0,n_expect,converged\r\n"
           b"-0.5,-1.25,0,1\r\n"
           b"0,0.10000000000000001,-1e-300,1\r\n"
           b"0.25,0.66666666666666663,3.5,0\r\n",
    "json": b'{"columns": {"E0": [-1.25, 0.1, 0.6666666666666666], "converged": [1.0, 1.0, 0.0],'
            b' "n_expect": [0.0, -1e-300, 3.5]}, "grid": [-0.5, 0.0, 0.25],'
            b' "meta": {"e_c": 1.0, "pairs_total": 10, "window_mode": "full"}}',
}
GOLDEN_SCALARS = {
    "csv": b'# meta {"degree": 6, "name": "x", "seed": 7}\r\n'
           b"quantity,value\r\n"
           b"count,3\r\n"
           b"gap,0.10000000000000001\r\n"
           b"huge,1.5000000000000001e+300\r\n"
           b"missing,\r\n",
    "json": b'{"meta": {"degree": 6, "name": "x", "seed": 7},'
            b' "results": {"count": 3.0, "gap": 0.1, "huge": 1.5e+300, "missing": null}}',
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_artifact_bytes_are_pinned(fmt, tmp_path):
    """Meta keys sorted, header in column order, 17 digits, CRLF endings, None empty/null."""
    table = observables.SweepTable(
        grid=[-0.5, 0.0, 0.25],
        columns={"E0": [-1.25, 0.1, 2.0 / 3.0], "n_expect": [0.0, -1e-300, 3.5],
                 "converged": [1.0, 1.0, 0.0]},
        meta={"window_mode": "full", "pairs_total": 10, "e_c": 1.0},
    )
    path = _write_table(table, argparse.Namespace(format=fmt, output=None), "table")
    assert path == Path(f"table.{fmt}")
    assert (tmp_path / path).read_bytes() == GOLDEN_TABLE[fmt]
    if fmt == "json":
        load_json(tmp_path / path)

    results = {"gap": 0.1, "missing": None, "count": 3.0, "huge": 1.5e300}
    args = argparse.Namespace(format=fmt, output=str(tmp_path / f"scalars.{fmt}"))
    path = _write_scalars(results, {"seed": 7, "degree": 6, "name": "x"}, args, "scalars", {})
    assert path.read_bytes() == GOLDEN_SCALARS[fmt]
    if fmt == "json":
        load_json(path)


def test_unconverged_rows_are_null_in_json(tmp_path, capsys):
    """A window capped below the 2N = 5e8 island's needs: each flagged row's NaN cells are
    null in JSON (RFC 8259 has no NaN) and stay 'nan' in CSV."""
    argv = "bands --pairs 5e8 --ejec 50 --from 0 --to 1 --steps 2 --w-initial 4 --w-max 4".split()
    assert main(argv + ["--format", "json"]) == 2
    columns = load_json(tmp_path / "bands.json")["columns"]
    assert columns == {"E0": [None, None], "E1": [None, None], "E2": [None, None],
                       "converged": [0.0, 0.0]}
    assert main(argv) == 2
    assert all(math.isnan(v) for v in read_table(tmp_path / "bands.csv").column_values["E0"])
    assert "2 unconverged points" in capsys.readouterr().out


def test_nan_in_a_converged_row_is_refused_in_json(tmp_path):
    table = observables.SweepTable(grid=[0.0], columns={"E0": [math.nan], "converged": [1.0]},
                                   meta={})
    with pytest.raises(ValueError, match="JSON compliant"):
        _write_table(table, argparse.Namespace(format="json", output=None), "table")
    assert list(tmp_path.iterdir()) == []


def test_transmon_shift_summary(tmp_path, capsys):
    code = main(
        "transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 5e8 --ng 1e6 --format json".split()
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "-8.00" in out
    payload = load_json(tmp_path / "transmon_shift.json")
    assert payload["results"]["shift_numeric_khz"] == pytest.approx(-8.0, rel=0.02)
    assert payload["results"]["shift_analytic_khz"] == pytest.approx(-8.0, rel=1e-6)
    assert payload["meta"]["pairs_total"] == 500000000


def test_validity_aluminum(tmp_path, capsys):
    code = main("validity --material aluminum --pairs 5e8 --ng 1e6 --format json".split())
    assert code == 0
    payload = load_json(tmp_path / "validity.json")
    assert payload["results"]["n_min"] == pytest.approx(1.0e4, rel=0.05)
    assert payload["results"]["island_volume_um3"] == pytest.approx(0.005, rel=0.10)
    assert payload["results"]["gate_voltage_v"] == pytest.approx(1000.0, rel=1e-9)
    assert "N_min" in capsys.readouterr().out


def test_validity_from_materials_file(tmp_path):
    preset = tmp_path / "mats.txt"
    preset.write_text(
        "name = custom\ngap_meV = 0.34\nfermi_eV = 11.63\n"
        "n_e_per_cm3 = 18.06e22\nlambdaL_nm = 16\n"
    )
    code = main(
        ["validity", "--materials-file", str(preset), "--material", "custom", "--format", "json"]
    )
    assert code == 0
    payload = load_json(tmp_path / "validity.json")
    assert payload["results"]["n_min"] == pytest.approx(1.0e4, rel=0.05)


_MATERIAL = ("name = x\ngap_meV = {gap}\nfermi_eV = 11.63\nn_e_per_cm3 = 18.06e22\n"
             "lambdaL_nm = {depth}\n")


@pytest.mark.parametrize("contents", [
    None,  # no such file
    "directory",
    _MATERIAL.format(gap="abc", depth=16).encode(),
    b"name = x\ngap_meV = \xff\n",  # not UTF-8
    _MATERIAL.format(gap=-1, depth=16).encode(),
    _MATERIAL.format(gap="nan", depth=16).encode(),
    b"name = x\ngap_meV = 0.34\n",  # missing keys
    _MATERIAL.format(gap=0.34, depth=1e-170).encode(),  # lambda_L^2 underflows to zero
    _MATERIAL.format(gap=0.34, depth=1e300).encode(),  # lambda_L^2 overflows
], ids=["missing", "directory", "not-a-number", "not-utf8", "negative", "nan", "missing-keys",
        "tiny-depth", "huge-depth"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bad_materials_file_names_the_flag(contents, fmt, tmp_path, capsys):
    path = tmp_path / "mats.txt"
    if contents == "directory":
        path.mkdir()
    elif contents is not None:
        path.write_bytes(contents)
    argv = ["validity", "--materials-file", str(path), "--material", "x", "--pairs", "10"]
    assert main(argv + ["--format", fmt]) == 1
    assert "--materials-file" in capsys.readouterr().err
    assert not (tmp_path / f"validity.{fmt}").exists()


def test_steps_stop_at_the_array_limit():
    # Parsed only: an accepted 2**26-point sweep would run for hours.
    parser = build_parser()
    argv = "imbalance --pairs 10 --ejec 0.2 --from 0 --to 1 --steps".split()
    assert parser.parse_args(argv + ["67108864"]).steps == 2**26
    with pytest.raises(CliError, match="--steps"):
        parser.parse_args(argv + ["67108865"])


def test_validity_unknown_material_is_parameter_error(capsys):
    code = main("validity --material unobtainium".split())
    assert code == 1
    assert "--material" in capsys.readouterr().err


def test_analytic_values(tmp_path):
    code = main("analytic --ej 0.01 --ec 1.0 --pairs 10 --ng 0.5 --format json".split())
    assert code == 0
    payload = load_json(tmp_path / "analytic.json")
    results = payload["results"]
    assert results["cpb_gap"] == pytest.approx(0.001 * np.sqrt(120.0))
    assert results["cpb_susceptibility"] == pytest.approx(1000.0 / np.sqrt(120.0))
    assert results["transmon_frequency"] == pytest.approx(
        np.sqrt(0.02) * (1 - (0.5 / 10) ** 2)
    )
    assert results["level_spacing"] == pytest.approx(np.sqrt(0.02 + (0.01 / 5) ** 2))


def test_analytic_off_degeneracy_reports_null(tmp_path):
    code = main("analytic --ej 0.01 --ec 1.0 --pairs 10 --ng 0.3 --format json".split())
    assert code == 0
    payload = load_json(tmp_path / "analytic.json")
    assert payload["results"]["cpb_gap"] is None


def test_curvature_table(tmp_path):
    code = main(
        "curvature --kind dispersion --pairs 60 --values 10,20 --window full "
        "--format json".split()
    )
    assert code == 0
    table = read_table(tmp_path / "curvature.json", "json")
    assert table.meta["grid_label"] == "ejec"
    assert list(table.grid) == [10.0, 20.0]
    assert np.all(table.columns["reference"] < 0.0)
    assert "step" not in table.meta


@pytest.mark.parametrize("step", ["0", "nan", "1e308"])
def test_curvature_step_must_be_positive_and_finite(step, capsys):
    # The curvatures are exact and take no step: every --step is refused.
    code = main(f"curvature --kind susceptibility --pairs 60 --values 10 --step {step}".split())
    assert code == 1
    assert "--step" in capsys.readouterr().err


@pytest.mark.parametrize("window, per_ratio", [("--window fixed --half-width 10", 1), ("", 2)])
@pytest.mark.parametrize("kind", ["dispersion", "susceptibility"])
def test_curvature_builds_one_window_walk_per_ratio(kind, window, per_ratio, monkeypatch):
    # At 2N = 60 the adaptive walk tries half-width 16, then 32, which holds
    # the whole basis; a fixed window is one operator.
    from finitejj.hamiltonian import TridiagonalHamiltonian

    built = []
    init = TridiagonalHamiltonian.__init__

    def counting(self, params, *window):
        built.append(window)
        init(self, params, *window)

    monkeypatch.setattr(TridiagonalHamiltonian, "__init__", counting)
    argv = f"curvature --kind {kind} --pairs 60 --values 50,100 {window}".split()
    assert main(argv) == 0
    assert len(built) == 2 * per_ratio


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analytic --ej 1 --ec 1 --pairs 10", "--ng", "-1e3"),
        ("bands --pairs 10 --ejec 0.2 --to 0 --steps 3 --window full", "--from", "-1.5e1"),
    ],
)
def test_negative_scientific_notation_is_a_value(command, flag, value, tmp_path):
    spaced = command.split() + [flag, value, "--output", "spaced.csv"]
    joined = command.split() + [f"{flag}={value}", "--output", "joined.csv"]
    assert main(spaced) == 0
    assert main(joined) == 0
    assert (tmp_path / "spaced.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


def test_bands_levels_beyond_the_first_adaptive_window(tmp_path):
    base = "bands --pairs 1000 --ejec 1 --from 0 --to 1 --steps 3 --levels 50"
    assert main(f"{base} --output adaptive.csv".split()) == 0
    assert main(f"{base} --window full --output full.csv".split()) == 0
    adaptive = read_table(tmp_path / "adaptive.csv")
    full = read_table(tmp_path / "full.csv")
    assert list(adaptive.columns) == list(full.columns)
    for name, column in full.columns.items():
        assert adaptive.columns[name] == pytest.approx(column, rel=1e-9), name


# Coefficients overflow from about 1e154: the diagonal E_C (N + |n_g|)^2 and
# the squared coupling (E_J / 2)^2.
@pytest.mark.parametrize(
    "argv, flag",
    [
        ("transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 100 --ng 1e155", "--ng"),
        ("transmon-shift --ej-ghz 1e155 --ec-ghz 0.2 --pairs 100 --ng 1", "--ej-ghz"),
        ("bands --pairs 4 --ejec 1e155 --from 0 --to 1 --steps 3", "--ejec"),
        ("bands --pairs 4 --ejec 1 --from 0 --to 1e155 --steps 3", "--to"),
        ("curvature --kind dispersion --pairs 4 --values 1e155", "--values"),
        ("analytic --ej 1e155 --ec 1 --pairs 10", "--ej"),
    ],
)
def test_overflowing_coefficients_name_the_flag(argv, flag, capsys):
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "overflows" in err


@pytest.mark.parametrize(
    "argv",
    [
        "transmon-shift --ej-ghz 10 --ec-ghz 1e302 --pairs 100 --ng 1 --window fixed "
        "--half-width 4",
        "transmon-shift --ej-ghz 1e153 --ec-ghz 0.2 --pairs 100 --ng 1",
        "bands --pairs 4 --ejec 1e153 --from 0 --to 1 --steps 3",
        # u_0 = n_g E_C sqrt(2 E_J / eps^3) forms no E_C^2.
        "analytic --ej 1e-300 --ec 1e300 --pairs 10",
    ],
)
def test_coefficients_below_overflow_are_solved(argv):
    assert main(argv.split()) == 0


def test_underflowed_curvature_is_refused_without_artifact(tmp_path):
    """Every coupling below the float range: the curvature's cancelling terms underflow
    to 0, so it has no resolved digit, and neither 0 nor NaN is written."""
    argv = ("curvature --kind susceptibility --pairs 6 --values 3.80567423030383e-174"
            " --window fixed --half-width 3 --format json --output").split()
    assert main([*argv, str(tmp_path / "curvature.json")]) == 2
    assert list(tmp_path.iterdir()) == []


# The operator's diagonal is E_C (k - (N + n_g))^2: once N + n_g rounds by a
# charge, neighbouring diagonals are no longer resolved and the spectrum is
# meaningless (a saturated -1967137.7060 kHz shift at --ng 1e17, a singular
# dgtsv at --to 1e20).  Near-overflow offsets are refused for the same reason.
@pytest.mark.parametrize(
    "argv, flag",
    [
        ("transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 100 --ng 1e17", "--ng"),
        ("susceptibility --pairs 4 --ejec 1 --from 0 --to 1e20 --steps 3 --window fixed "
         "--half-width 2", "--from/--to"),
        ("transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 100 --ng 1e153 --window fixed "
         "--half-width 4", "--ng"),
        ("bands --pairs 4 --ejec 1 --from 0 --to 1e153 --steps 3", "--from/--to"),
        ("imbalance --pairs 2 --ejec 1 --from 0 --to 1e16 --steps 2", "--from/--to"),
        # Steps finer than the doubles between the ends: the grid repeats a point.
        ("bands --pairs 10 --ejec 0.2 --from 1 --to 1.0000000000000002 --steps 5",
         "--from/--to/--steps"),
        ("bands --pairs 10 --ejec 0.2 --from 0 --to 5e-324 --steps 3", "--from/--to/--steps"),
    ],
)
def test_unresolved_offsets_name_the_flag(argv, flag, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called")

    monkeypatch.setattr(observables, "band_sweep", no_solve)
    monkeypatch.setattr(observables, "qubit_frequency", no_solve)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "rounded" in err


def test_resolved_large_offsets_are_solved(tmp_path):
    # N + n_g is exact here, or rounded far below 1e-3 charge.
    assert main("transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 1e4 --ng 1e15".split()) == 0
    assert main("bands --pairs 9007199254740992 --ejec 50 --from 0 --to 1 --steps 2".split()) == 0
    assert main("imbalance --pairs 5e8 --ejec 50 --from 1e6 --to 1e6 --steps 1".split()) == 0


def test_wick_verify(tmp_path, capsys):
    code = main("wick-verify --count 40 --degree 5 --format json".split())
    assert code == 0
    payload = load_json(tmp_path / "wick_verify.json")
    assert payload["results"]["max_abs_deviation"] < 1e-9
    assert "ok" in capsys.readouterr().out


def test_wick_verify_tolerance_is_relative_to_the_engine_value(capsys, monkeypatch):
    # Vacuum values reach 30! here; the walk and the engine both sum them exactly.
    assert main("wick-verify --count 200 --degree 60".split()) == 0
    assert "ok" in capsys.readouterr().out
    engine = wick.vacuum_expectation
    monkeypatch.setattr(wick, "vacuum_expectation",
                        lambda poly: engine(poly) + 1e-6 * max(1.0, abs(engine(poly))))
    assert main("wick-verify --count 20 --degree 6".split()) == 2
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    "analytic --ej 1 --ec 1 --pairs 10",
    "bands --pairs 4 --ejec 1 --from 0 --to 1 --steps 2",
])
def test_unwritable_output_names_the_flag_and_path(argv, capsys):
    assert main(argv.split() + ["--output", "nodir/x.csv"]) == 1
    err = capsys.readouterr().err
    assert "--output" in err
    assert str(Path("nodir/x.csv")) in err


def test_wick_verify_long_words(tmp_path):
    assert main("wick-verify --count 3 --degree 80".split()) == 0


def test_wick_degree_bound(capsys):
    assert main(f"wick-verify --count 20 --degree {MAX_WICK_DEGREE}".split()) == 0
    assert "ok" in capsys.readouterr().out
    assert main(f"wick-verify --count 3 --degree {MAX_WICK_DEGREE + 1}".split()) == 1
    assert "--degree" in capsys.readouterr().err


def test_fock_oracle_is_finite_at_the_degree_bound():
    # b^(d/2) b†^(d/2) has the largest vacuum element of any degree-d word, (d/2)!:
    # the walk and the engine both reach it exactly.
    half = MAX_WICK_DEGREE // 2
    word = wick.OperatorPoly.from_word((wick.LOWER,) * half + (wick.RAISE,) * half)
    assert wick.fock_oracle(word, MAX_WICK_DEGREE + 2) == float(math.factorial(half))
    assert wick.vacuum_expectation(word) == float(math.factorial(half))
    # (b b†)^(d/2) has the largest entries of any degree-d word in the dense test oracle.
    word = wick.OperatorPoly.from_word((wick.LOWER, wick.RAISE) * half)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(fock_matrix(word, MAX_WICK_DEGREE + 2)).all()


def test_byte_identical_reruns(tmp_path):
    argv = "bands --pairs 10 --ejec 0.2 --from -2 --to 2 --steps 17 --window full".split()
    assert main(argv + ["--output", "a.csv"]) == 0
    assert main(argv + ["--output", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    argv_json = argv + ["--format", "json"]
    assert main(argv_json + ["--output", "a.json"]) == 0
    assert main(argv_json + ["--output", "b.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    load_json(tmp_path / "a.json")


def test_parameter_error_names_flag(capsys, monkeypatch):
    code = main("bands --pairs nonsense --ejec 0.2 --from -1 --to 1 --steps 3".split())
    assert code == 1
    err = capsys.readouterr().err
    assert "--pairs" in err

    code = main("bands --pairs 10 --ejec 0.2 --from -1 --to 1 --steps 3 --bogus 1".split())
    assert code == 1
    assert "--bogus" in capsys.readouterr().err

    # Windows beyond the operator limit, a too-small start, window flags the
    # policy does not read, and more levels than the states they need are
    # refused before any solve.
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called")

    for name in ("lowest_eigenvalues", "eigenpair", "charge_response", "fourth_order_terms"):
        monkeypatch.setattr(observables, name, no_solve)
    for argv, flag in [
        ("bands --pairs 5e8 --ejec 50 --from 0 --to 1 --steps 2 --window fixed "
         "--half-width 4e7", "--half-width"),
        ("transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 5e8 --ng 1e6 --w-initial 4e7 "
         "--w-max 1e8", "--w-max"),
        ("bands --pairs 100 --ejec 1 --from 0 --to 1 --steps 3 --w-initial 2", "--w-initial"),
        ("bands --pairs 1000 --ejec 50 --from 0 --to 1 --steps 3 --half-width 2", "--half-width"),
        ("bands --pairs 100 --ejec 1 --from 0 --to 1 --steps 3 --window full --w-initial 2",
         "--w-initial"),
        ("bands --pairs 100 --ejec 1 --from 0 --to 1 --steps 3 --window full --w-max 64",
         "--w-max"),
        ("bands --pairs 100 --ejec 1 --from 0 --to 1 --steps 3 --window full --half-width 8",
         "--half-width"),
        ("curvature --kind dispersion --pairs 60 --window fixed --half-width 8 --w-max 64",
         "--w-max"),
        ("bands --pairs 1 --ejec 1 --from 0 --to 1 --steps 3", "--levels"),
        ("curvature --kind dispersion --pairs 60 --values 50 --window fixed --half-width 0",
         "--half-width"),
        ("imbalance --pairs 1000 --ejec 50 --from 0 --to 1 --steps 3 --window-rtol 0.5",
         "--window-rtol"),
        # A grid past the array limit, and ratios out of order, are refused by the parser.
        ("bands --pairs 10 --ejec 0.2 --from 0 --to 1 --steps 1e16", "--steps"),
        ("bands --pairs 10 --ejec 0.2 --from 0 --to 1 --steps 1e20", "--steps"),
        ("curvature --kind dispersion --pairs 60 --values 50,20", "--values"),
        ("curvature --kind dispersion --pairs 60 --values 20,20", "--values"),
    ]:
        assert main(argv.split()) == 1, argv
        assert flag in capsys.readouterr().err, argv
    assert list(Path.cwd().iterdir()) == []


def test_invalid_range_is_parameter_error(capsys):
    code = main("bands --pairs 10 --ejec 0.2 --from 2 --to -2 --steps 5".split())
    assert code == 1
    assert "--from" in capsys.readouterr().err


def test_full_window_eigenvalues_beyond_the_operator_limit(tmp_path):
    # Full mode proves every result on a window, so it solves at any 2N and
    # writes the adaptive policy's numbers.
    import time

    from finitejj import eigensolve
    from finitejj.hamiltonian import build
    from finitejj.model import CircuitParams

    shift = "transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 5e8 --ng 1e6 --format json"
    start = time.perf_counter()
    assert main(f"{shift} --window full --output full.json".split()) == 0
    assert time.perf_counter() - start < 1.0
    assert main(f"{shift} --output adaptive.json".split()) == 0
    full = load_json(tmp_path / "full.json")["results"]
    adaptive = load_json(tmp_path / "adaptive.json")["results"]
    for key, ng in (("frequency_at_zero_ghz", 0.0), ("frequency_at_ng_ghz", 1e6)):
        # Both are within the certificate radii of the full-basis gap.
        params = CircuitParams.from_pairs(500_000_000, e_j=10.0, e_c=0.2, n_g=ng)
        h = build(params, 16)
        radii = eigensolve.window_certificate(h, eigensolve.lowest_eigenvalues(h, 2))
        assert abs(full[key] - adaptive[key]) <= 2.0 * sum(radii), key
    assert main("bands --pairs 5e8 --ejec 50 --from 0 --to 1 --steps 3 --window full".split()) == 0
    for name in ("imbalance", "susceptibility"):
        argv = f"{name} --pairs 2e8 --ejec 50 --from 0 --to 1 --steps 2".split()
        assert main(argv + ["--window", "full", "--output", f"{name}_full.csv"]) == 0
        assert main(argv + ["--output", f"{name}_adaptive.csv"]) == 0
        bodies = [(tmp_path / f"{name}_{mode}.csv").read_bytes().split(b"\r\n", 1)[1]
                  for mode in ("full", "adaptive")]
        assert bodies[0] == bodies[1], name


def test_full_window_without_a_certificate_names_the_flag(capsys, monkeypatch):
    # A certificate that never closes doubles the window up to the operator
    # limit (lowered here to 1024 states) and is then refused.
    from finitejj import hamiltonian

    monkeypatch.setattr(hamiltonian, "ARRAY_LIMIT", 1024)
    monkeypatch.setattr(observables, "window_certificate", lambda h, spectrum: [])
    assert main("bands --pairs 5000 --ejec 50 --from 0 --to 1 --steps 2 --window full".split()) == 1
    assert "--window full" in capsys.readouterr().err


def test_nonconvergence_exit_code(capsys, monkeypatch):
    # At half-width 16 the <n> truncation bound is about 1e-11 charge, above
    # its target, and the cap stops the walk there.
    code = main("imbalance --pairs 5e8 --ejec 50 --from 0 --to 1 --steps 2 "
                "--w-initial 16 --w-max 16".split())
    assert code == 2
    assert "2 unconverged points" in capsys.readouterr().out

    # At a charge degeneracy whose gap lies within the eigenvalue radii no
    # window proves <n>, and the radii grow with the window: the point is
    # flagged at once instead of doubling to the cap.
    code = main("imbalance --pairs 1e8 --ejec 1e-14 --from 0 --to 1 --steps 3 "
                "--window full".split())
    assert code == 2
    assert "1 unconverged points" in capsys.readouterr().out

    # Half-width 16 is certified at 2N = 5e8, so the certificate is made to refuse it.
    monkeypatch.setattr(observables, "window_certificate", lambda h, spectrum: [])
    code = main(
        "transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 5e8 --ng 1e6 "
        "--w-initial 16 --w-max 16".split()
    )
    assert code == 2
    assert "window" in capsys.readouterr().err


def test_warnings_name_the_coupling_flag_not_a_source_line(capsys):
    # Two near-degenerate points, n_g = 0 and 1, print one line for their class.
    for argv, line in (
        ("imbalance --pairs 3 --ejec 1e-16 --from 0 --to 1 --steps 3",
         "warning: --ejec: levels nearly degenerate (gap 1.388e-16) at n_g = 0;"),
        ("curvature --kind dispersion --pairs 60 --values 5",
         "warning: --values: dispersion curvature is a transmon-regime diagnostic;"),
    ):
        assert main(argv.split()) == 0
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1, err
        assert ".py:" not in err


def test_curvature_below_its_rounding_floor_is_refused(capsys):
    for kind in ("dispersion", "susceptibility"):
        assert main(f"curvature --kind {kind} --pairs 1e8 --values 50".split()) == 2
        err = capsys.readouterr().err
        assert "--pairs" in err and "transmon-shift" in err


def test_subnormal_energies_are_solved_or_name_the_flag(tmp_path, capsys):
    # E_C = 1e-320 spreads the ground state over every charge: the first
    # window is the whole basis, -(E_J / N) s_x, whose levels are E_J / N apart.
    argv = "transmon-shift --ej-ghz 1 --ec-ghz 1e-320 --pairs 10 --ng 0.5 --format json"
    assert main(argv.split()) == 0
    results = load_json(tmp_path / "transmon_shift.json")["results"]
    assert results["frequency_at_zero_ghz"] == pytest.approx(0.2, rel=1e-12)
    # The Bogoliubov denominator sqrt(4 N eps E_J) underflows at E_J = 1e-320.
    assert main("analytic --ej 1e-320 --ec 1 --pairs 1 --ng 0.5".split()) == 1
    assert "--ej" in capsys.readouterr().err


def test_imbalance_and_susceptibility_tables(tmp_path):
    code = main(
        "imbalance --pairs 10 --ejec 0.2 --from -3 --to 3 --steps 13 --window full".split()
    )
    assert code == 0
    table = read_table(tmp_path / "imbalance.csv")
    assert "n_expect" in table.columns
    center = table.columns["n_expect"][6]
    assert abs(center) < 1e-10

    code = main(
        "susceptibility --pairs 10 --ejec 0.2 --from -1 --to 1 --steps 5 --window full".split()
    )
    assert code == 0
    table = read_table(tmp_path / "susceptibility.csv")
    assert "chi" in table.columns
    assert np.all(table.columns["chi"] > 0.0)


def test_scientific_notation_counts():
    code = main("bands --pairs 1e1 --ejec 0.2 --from -1 --to 1 --steps 3 --window full".split())
    assert code == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("analytic --ej 1 --ec 1 --pairs 10 --ng inf", "--ng"),
        ("analytic --ej inf --ec 1 --pairs 10", "--ej"),
        ("analytic --ej 1 --ec nan --pairs 10", "--ec"),
        ("bands --pairs 10 --ejec inf --from 0 --to 1 --steps 3", "--ejec"),
        ("bands --pairs 10 --ejec 1 --from 0 --to inf --steps 3", "--to"),
        ("bands --pairs 10 --ejec 1 --from nan --to 1 --steps 3", "--from"),
        ("bands --pairs 10 --ejec 1 --from=-1e308 --to 1e308 --steps 3", "--from"),
        ("transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 100 --ng inf", "--ng"),
        ("transmon-shift --ej-ghz nan --ec-ghz 0.2 --pairs 100 --ng 1", "--ej-ghz"),
        ("transmon-shift --ej-ghz 10 --ec-ghz inf --pairs 100 --ng 1", "--ec-ghz"),
        ("validity --ng inf", "--ng"),
        ("curvature --kind dispersion --pairs 60 --values 10,inf", "--values"),
    ],
)
def test_non_finite_inputs_name_the_flag(argv, flag, capsys):
    assert main(argv.split()) == 1
    assert flag in capsys.readouterr().err


def test_closed_form_overflow_is_parameter_error(capsys):
    assert main("analytic --ej 1 --ec 1 --pairs 10 --ng 1e308".split()) == 1
    assert "float range" in capsys.readouterr().err


def test_pairs_beyond_exactness_limit_is_parameter_error(capsys):
    code = main("bands --pairs 1e20 --ejec 1 --from 0 --to 1 --steps 3".split())
    assert code == 1
    err = capsys.readouterr().err
    assert "--pairs" in err
    assert "2**53" in err


# Each bounded count flag: its type's name, the argv around its value, its limit, a
# value past it and the refusal's reason.  The trailing flag is refused, so an accepted
# count starts no computation.
_BOUNDED = {
    "--pairs": ("_pairs", ["analytic", "--pairs"], ["--ej", "0"], 2**53, 2**53 + 2,
                f"2**53 = {2**53}, where charge offsets stop being exact in doubles"),
    "--steps": ("_steps", ["bands", "--steps"], ["--ejec", "0"], 2**26, 2**26 + 1,
                f"2**26 = {2**26}, the array limit"),
    "--degree": ("_wick_degree", ["wick-verify", "--degree"], ["--rtol", "0"], 250, 251,
                 "250, where the vacuum counts stay inside the float range"),
}


@pytest.mark.parametrize("flag", sorted(_BOUNDED))
@pytest.mark.parametrize("case", ["zero", "limit", "past", "fraction", "word"])
def test_bounded_counts_refuse_with_the_same_words(flag, case, capsys):
    name, head, tail, limit, past, reason = _BOUNDED[flag]
    value, expected = {
        "zero": ("0", f"argument {flag}: expected a positive integer, got '0'"),
        "limit": (str(limit), f"argument {tail[0]}: expected a positive finite number, got '0'"),
        "past": (str(past), f"argument {flag}: expected at most {reason}, got '{past}'"),
        "fraction": ("1.5", f"argument {flag}: expected a non-negative integer, got '1.5'"),
        "word": ("abc", f"argument {flag}: invalid {name} value: 'abc'"),
    }[case]
    assert main([*head, value, *tail]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_counts_read_integer_literals_exactly(capsys, tmp_path):
    # 2**53 + 1 is not a double: read through float it would be 2**53, the limit.
    past = 2**53 + 1
    reason = _BOUNDED["--pairs"][-1]
    assert main(["analytic", "--pairs", str(past), "--ej", "1", "--ec", "1"]) == 1
    assert capsys.readouterr().err == (f"error: argument --pairs: expected at most {reason},"
                                       f" got '{past}'\n")
    assert main(["wick-verify", "--count", "2", "--degree", "2", "--seed", str(past),
                 "--format", "json"]) == 0
    assert load_json(tmp_path / "wick_verify.json")["meta"]["seed"] == past


def test_levels_beyond_fixed_window_names_both_flags(capsys):
    code = main(
        "bands --pairs 10 --ejec 1 --from 0 --to 1 --steps 3 --window fixed --half-width 0 "
        "--levels 3".split()
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--levels" in err
    assert "--half-width" in err


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SUBNORMAL = st.floats(min_value=-1e-320, max_value=1e-320)
# transmon-window's sweeps: a unit window around a centre 1e6 +- 1000 +- 0.5.
_CENTRE = st.builds(lambda k, f: 1e6 + k + f, st.integers(-1000, 1000), st.floats(-0.5, 0.5))


@given(ends=st.one_of(
           st.tuples(_FINITE, _FINITE).map(sorted),
           _CENTRE.map(lambda c: (c - 0.5, c + 0.5)),
           st.tuples(_SUBNORMAL, _SUBNORMAL).map(sorted),
       ),
       steps=st.one_of(st.sampled_from([1, 2, 3, 21, 89]), st.integers(1, 2000)))
@example(ends=(0.0, 1.5e-323), steps=10)  # a step that rounds to 0
@example(ends=(-5e-324, 5e-324), steps=2)
@example(ends=(1e6 - 0.25, 1e6 + 0.75), steps=1)
@example(ends=(-0.0, 1.0), steps=1)  # 0 * delta + start is +0.0
@example(ends=(-1e308, 1e308), steps=3)
def test_grid_is_linspace_bit_for_bit(ends, steps):
    start, stop = ends
    args = argparse.Namespace(start=start, stop=stop, steps=steps)
    if steps > 1 and not start < stop or not math.isfinite(stop - start):
        with pytest.raises(CliError):
            _grid_from(args)
        return
    expected = np.linspace(start, stop, steps)
    assert np.array(_grid_from(args)).tobytes() == expected.tobytes()


_UNLOADED = ("numpy", "scipy", "scipy.linalg", "scipy.linalg._flapack", "dataclasses", "inspect")


def test_no_command_loads_numpy_scipy_or_dataclasses(tmp_path):
    """Import and all eight commands load neither numpy nor any scipy module.

    The solver commands open LAPACK through ctypes; no command imports
    ``dataclasses``, nor ``inspect``, which numpy's import and dataclasses pull in.
    """
    script = f"""
import json, sys
loaded = {{}}
def record(step):
    loaded[step] = [name for name in {_UNLOADED!r} if name in sys.modules]
import finitejj
record("import finitejj")
import finitejj.cli
record("import finitejj.cli")
for line in sys.argv[1:]:
    argv = line.split()
    assert finitejj.cli.main(argv) == 0, argv
    record(argv[0])
print(json.dumps(loaded))
"""
    commands = [
        "analytic --ej 1 --ec 1 --pairs 10 --ng 0.5",
        "validity --pairs 1e6 --ng 3",
        "wick-verify --count 5",
        "bands --pairs 4 --ejec 1 --from 0 --to 1 --steps 2",
        "imbalance --pairs 4 --ejec 1 --from 0 --to 1 --steps 2",
        "susceptibility --pairs 4 --ejec 1 --from 0 --to 1 --steps 2",
        "curvature --kind dispersion --pairs 60 --values 10,20",
        "transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 100 --ng 1",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *commands], cwd=tmp_path, env=env, capture_output=True,
        text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    steps = ["import finitejj", "import finitejj.cli", *(c.split()[0] for c in commands)]
    assert loaded == dict.fromkeys(steps, [])


# Cheap invocations (fixed small windows, few points) and the flags fed hostile values.
_CHEAP = {
    "analytic": (
        "analytic --ej 1 --ec 1 --pairs 10 --ng 0.5",
        ["--ej", "--ec", "--pairs", "--ng"],
    ),
    "validity": (
        "validity --pairs 1e6 --ng 10 --cg-farad 1e-15",
        ["--pairs", "--ng", "--cg-farad"],
    ),
    "bands": (
        "bands --pairs 4 --ejec 1 --from 0 --to 1 --steps 3 --levels 2 --window fixed "
        "--half-width 2",
        ["--pairs", "--ejec", "--from", "--to", "--levels", "--half-width"],
    ),
    "curvature": (
        "curvature --kind susceptibility --pairs 6 --values 1 --window fixed --half-width 3",
        ["--pairs", "--values"],
    ),
    "transmon-shift": (
        "transmon-shift --ej-ghz 10 --ec-ghz 0.2 --pairs 100 --ng 1 --window fixed "
        "--half-width 4",
        ["--ej-ghz", "--ec-ghz", "--pairs", "--ng"],
    ),
    "wick-verify": ("wick-verify --count 2 --degree 2", ["--rtol", "--seed"]),
}
_HOSTILE = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "1e20", "9007199254740993",
                     "1e-300", "5e-324", "0", "-1"]),
    st.floats().map(repr),
)


_LAYERS_SCRIPT = """
import json, sys
def layers():
    return sorted(name[len("finitejj."):] for name in sys.modules
                  if name.startswith("finitejj."))
import finitejj
loaded = {"import finitejj": layers()}
import finitejj.cli
loaded["import finitejj.cli"] = layers()
assert finitejj.cli.main(json.loads(sys.argv[1])) == 0
loaded["command"] = layers()
print(json.dumps(loaded))
"""
_SOLVER = ["eigensolve", "hamiltonian", "observables"]


@pytest.mark.parametrize("argv, layers", [
    ("analytic --ej 1 --ec 1 --pairs 10 --ng 0.5", ["perturbation"]),
    ("validity --pairs 1e6 --ng 3", []),
    ("wick-verify --count 5", ["wick"]),
    ("bands --pairs 4 --ejec 1 --from 0 --to 1 --steps 2", _SOLVER),
    ("imbalance --pairs 4 --ejec 1 --from 0 --to 1 --steps 2", _SOLVER),
    (_CHEAP["curvature"][0], _SOLVER),
    (_CHEAP["transmon-shift"][0], [*_SOLVER, "perturbation"]),
])
def test_each_command_loads_only_the_layers_it_runs(argv, layers, tmp_path):
    """``import finitejj`` loads no submodule; a command adds only the layers it runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LAYERS_SCRIPT, json.dumps(argv.split())], cwd=tmp_path, env=env,
        capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    cli = ["cli", "constants", "errors", "model"]
    assert loaded == {"import finitejj": [], "import finitejj.cli": cli,
                      "command": sorted(cli + layers)}


@given(command=st.sampled_from(sorted(_CHEAP)), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hostile_numbers_never_raise(command, data):
    base, flags = _CHEAP[command]
    flag = data.draw(st.sampled_from(flags))
    value = data.draw(_HOSTILE)
    fmt = data.draw(st.sampled_from(["csv", "json"]))
    argv = base.split()
    if flag in argv:
        i = argv.index(flag)
        del argv[i:i + 2]
    output = Path(f"hostile.{fmt}")
    output.unlink(missing_ok=True)
    # "--flag=value" keeps argparse from reading a negative value as an option.
    code = main(argv + [f"{flag}={value}", "--format", fmt, "--output", str(output)])
    assert code in (0, 1, 2)
    if fmt == "json" and output.exists():
        load_json(output)


@pytest.mark.parametrize("argv, flag", [
    ("analytic --ej 1 --ec 1e-320 --pairs 1 --ng 0.5", "--ec"),
    ("validity --ng 1e10 --cg-farad 1e-320", "--cg-farad"),
    ("validity --materials-file hot.txt --material hot", "--materials-file"),
    ("transmon-shift --ej-ghz 1e154 --ec-ghz 1e154 --pairs 100 --ng 1 --window fixed"
     " --half-width 4", "--ej-ghz"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_results_name_the_flag(argv, flag, fmt, tmp_path, capsys):
    # E_F = 1e300 eV over a 1e-300 meV gap puts N_min = (E_F / gap)(n_s / n_e) past the floats.
    (tmp_path / "hot.txt").write_text(
        "name = hot\ngap_meV = 1e-300\nfermi_eV = 1e300\nn_e_per_cm3 = 1.8e23\nlambdaL_nm = 16\n")
    assert main(argv.split() + ["--format", fmt]) == 1
    assert flag in capsys.readouterr().err
    assert list(tmp_path.glob(f"*.{fmt}")) == []
