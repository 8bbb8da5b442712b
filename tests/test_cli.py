"""Command-line behavior: modes, formats, exit codes, reproducibility."""

import json
import math

import numpy as np
import pytest

from statvac import cli, io as svio, mass
from statvac.curvature import random_jet
from statvac.spherical import harmonics, operators
from statvac.spherical.grid import SphereGrid

ROOT4PI = math.sqrt(4.0 * math.pi)


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schwarzschild_case(c, eps, tau=None):
    case = {
        "gamma1": {"trace": [{"l": 0, "m": 0, "value": 2.0 * c * ROOT4PI}]},
        "H1": [{"l": 0, "m": 0, "value": eps * ROOT4PI}],
    }
    if tau is not None:
        case["tau"] = tau
    return case


def second_order_mass(c, eps):
    return 0.5 * (eps - c) + 0.25 * (3.0 * c * eps - 0.5 * eps ** 2 - c ** 2)


def test_moments_mode_passes(capsys):
    code, out, err = run_cli(capsys, "--mode", "moments", "--lmax", "8")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["passed"] is True
    assert list(payload["suites"]) == ["moments"]


def test_fields_without_input_is_the_round_sphere(capsys):
    code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "8")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["m1"] == 0.0 and report["m2"] == 0.0


def test_fields_pure_mean_curvature_offset(tmp_path, capsys):
    eps = 0.05
    path = write_json(tmp_path / "h.json", {
        "H1": [{"l": 0, "m": 0, "value": eps * ROOT4PI}]})
    code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                           "--input", path)
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert abs(report["m1"] - eps / 2.0) < 1e-13
    assert abs(report["m2"] + eps ** 2 / 8.0) < 1e-14


def test_fields_csv_sweep_matches_the_closed_quadratic(tmp_path, capsys):
    values = (-0.08, 0.0, 0.06)
    cases = [schwarzschild_case(c, eps, tau=0.5)
             for c in values for eps in values]
    path = write_json(tmp_path / "sweep.json", {"cases": cases})
    code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                           "--format", "csv", "--input", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(svio.CSV_COLUMNS)
    assert len(lines) == 1 + len(cases)
    for line, (c, eps) in zip(lines[1:],
                              [(c, e) for c in values for e in values]):
        cells = line.split(",")
        assert float(cells[0]) == 0.5
        total = float(cells[3])
        assert abs(total - second_order_mass(c, eps)) < 1e-12
        assert abs(float(cells[4]) - 0.5 * total) < 1e-15
        assert cells[5] == "" and cells[6] == "" and cells[7] == ""


def band4_case(seed):
    """Random boundary data supported on degrees <= 4."""
    rng = np.random.default_rng(seed)
    ls, ms = harmonics.mode_table(4)

    def block(min_l):
        return [{"l": int(l), "m": int(m), "value": float(0.02 * rng.standard_normal())}
                for l, m in zip(ls, ms) if l >= min_l]

    return {"gamma1": {"trace": block(0), "p": block(2), "q": block(2)},
            "H1": block(0)}


def test_fields_at_lmax_128_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "128")
    assert code == 0
    assert json.loads(out)["reports"][0]["m1"] == 0.0


def test_band_limited_input_gives_the_same_masses_at_any_lmax(tmp_path, capsys):
    path = write_json(tmp_path / "band4.json", {"cases": [band4_case(s) for s in (1, 2)]})
    reports = {}
    for lmax in ("16", "128"):
        code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", lmax,
                               "--input", path)
        assert code == 0
        reports[lmax] = json.loads(out)["reports"]
    for low, high in zip(reports["16"], reports["128"]):
        for key in ("m1", "m2"):
            assert abs(high[key] - low[key]) <= 1e-12 * abs(low[key]), key


def test_fields_reports_every_truncation(tmp_path, capsys):
    path = write_json(tmp_path / "band4.json", band4_case(3))
    code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                           "--input", path)
    assert code == 0
    diagnostics = json.loads(out)["reports"][0]["diagnostics"]
    for key in ("h1_truncation", "trace_truncation", "tracefree_truncation"):
        assert 0.0 <= diagnostics[key] <= 1e-13, key


def test_cli_field_paths_build_no_dense_table(tmp_path, capsys, monkeypatch):
    def refuse(grid, table):
        raise AssertionError(f"dense table {table} built")

    monkeypatch.setattr(SphereGrid, "_dense", refuse)
    data = write_json(tmp_path / "band4.json", band4_case(4))
    jet = write_json(tmp_path / "jet.json", {"ric": np.diag([1.0, 0.5, 0.0]).tolist()})
    for argv in (("--mode", "fields", "--input", data),
                 ("--mode", "small-sphere", "--input", jet, "--tau", "0.01", "0.02"),
                 ("--mode", "verify")):
        code, _, _ = run_cli(capsys, *argv, "--lmax", "8")
        assert code == 0


def test_small_sphere_anchor_values(tmp_path, capsys):
    path = write_json(tmp_path / "jet.json",
                      {"ric": np.diag([1.0, 0.0, 0.0]).tolist()})
    code, out, _ = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8",
                           "--tau", "0.01", "--input", path)
    assert code == 0
    payload = json.loads(out)
    coeff = payload["coefficients"]
    assert abs(coeff["assembled_c3"] - 1.0 / 12.0) < 1e-12
    assert abs(coeff["assembled_c5"] - 1.0 / 432.0) < 1e-10
    assert coeff["fit_c3"] is None and coeff["fit_c5"] is None
    assert abs(coeff["reference"]["static_c5"] - 1.0 / 432.0) < 1e-15
    report = payload["reports"][0]
    assert abs(report["m1"] - (1.0 / 12.0) * 1e-4) < 1e-12


def test_small_sphere_space_form_quintic(tmp_path, capsys):
    path = write_json(tmp_path / "jet.json",
                      {"ric": (2.0 * np.eye(3)).tolist()})
    code, out, _ = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8",
                           "--tau", "0.01", "--input", path)
    assert code == 0
    coeff = json.loads(out)["coefficients"]
    assert abs(coeff["assembled_c3"] - 0.5) < 1e-12
    assert abs(coeff["assembled_c5"] + 0.25) < 1e-10


def test_small_sphere_zero_jet_default_tau(capsys):
    code, out, _ = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == [0.01]
    assert payload["coefficients"]["assembled_c3"] == 0.0
    report = payload["reports"][0]
    assert report["m1"] == 0.0 and report["m2"] == 0.0


def test_small_sphere_fit_coefficients(tmp_path, capsys):
    path = write_json(tmp_path / "jet.json",
                      {"ric": np.diag([1.0, 0.0, 0.0]).tolist()})
    code, out, _ = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8",
                           "--tau", "0.005", "0.01", "0.02", "--input", path)
    assert code == 0
    coeff = json.loads(out)["coefficients"]
    assert abs(coeff["fit_c3"] - coeff["assembled_c3"]) < 1e-8
    assert abs(coeff["fit_c5"] - coeff["assembled_c5"]) < 1e-3


def test_small_sphere_coefficients_ignore_tau_and_lmax(tmp_path, capsys):
    jet = random_jet(np.random.default_rng(0))
    path = write_json(tmp_path / "jet.json", {
        "ric": jet.ric.tolist(), "dric": jet.dric.tolist(),
        "d2ric": jet.d2ric.tolist()})
    blocks = set()
    # tau^4 of 1e-200 underflows to zero, which nothing may divide by
    for tau, lmax in (("0.001", "16"), ("0.3", "16"), ("0.3", "4"), ("1e-200", "16")):
        code, out, _ = run_cli(capsys, "--mode", "small-sphere", "--input", path,
                               "--tau", tau, "--lmax", lmax)
        assert code == 0
        # repr round-trips floats, so equal text means equal bits
        blocks.add(json.dumps(json.loads(out)["coefficients"]))
    assert len(blocks) == 1


def test_runs_are_byte_identical(tmp_path):
    jet = write_json(tmp_path / "jet.json", {"ric": np.eye(3).tolist()})
    outs = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code = cli.main(["--mode", "small-sphere", "--lmax", "8",
                         "--tau", "0.01", "--input", jet,
                         "--output", str(target)])
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]

    for name in ("v1.json", "v2.json"):
        target = tmp_path / name
        code = cli.main(["--mode", "verify", "--only", "moments",
                         "--lmax", "8", "--seed", "7",
                         "--output", str(target)])
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[2] == outs[3]

    for name in ("t1.json", "t2.json"):
        target = tmp_path / name
        code = cli.main(["--mode", "verify", "--only", "taylor",
                         "--lmax", "8", "--seed", "7",
                         "--output", str(target)])
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[4] == outs[5]
    diagnostics = json.loads(outs[4])["suites"]["taylor"]["diagnostics"]
    assert diagnostics["nfev"] > diagnostics["num_steps"] > 0


def test_output_file_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                             "--output", str(target))
    assert code == 0 and out == "" and err == ""
    assert json.loads(target.read_text())["mode"] == "fields"


def test_verify_only_filters_suites(capsys):
    code, out, _ = run_cli(capsys, "--mode", "verify", "--lmax", "8",
                           "--only", "multipliers")
    assert code == 0
    assert list(json.loads(out)["suites"]) == ["multipliers"]


@pytest.mark.parametrize("argv", [
    ("--mode", "fields", "--lmax", "2"),
    ("--mode", "fields", "--lmax", "200"),
    ("--mode", "small-sphere", "--tau", "-0.1"),
    ("--mode", "verify", "--format", "csv"),
    ("--mode", "verify", "--only", "nonsense"),
    ("--mode", "fields", "--tau", "inf"),
    ("--mode", "small-sphere", "--tau", "inf"),
    ("--mode", "small-sphere", "--tau", "1e308"),
])
def test_schema_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("schema error:")


def test_malformed_input_files_exit_2(tmp_path, capsys):
    missing_m = write_json(tmp_path / "a.json",
                           {"H1": [{"l": 1, "value": 1.0}]})
    code, _, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                           "--input", missing_m)
    assert code == 2 and "missing key" in err

    low_p = write_json(tmp_path / "b.json",
                       {"gamma1": {"p": [{"l": 1, "m": 0, "value": 1.0}]}})
    code, _, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                           "--input", low_p)
    assert code == 2

    empty_cases = write_json(tmp_path / "c.json", {"cases": []})
    code, _, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                           "--input", empty_cases)
    assert code == 2

    asym = write_json(tmp_path / "d.json",
                      {"ric": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0]]})
    code, _, err = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8",
                           "--input", asym)
    assert code == 2

    falsy_gamma = write_json(tmp_path / "e.json", {"gamma1": 0})
    code, _, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                           "--input", falsy_gamma)
    assert code == 2 and "gamma1" in err

    string_ric = write_json(tmp_path / "f.json",
                            {"ric": [["1", "0", "0"], ["0", "0", "0"],
                                     ["0", "0", "0"]]})
    code, _, err = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8",
                           "--input", string_ric)
    assert code == 2 and "ric" in err


def test_residual_gate_exits_3(monkeypatch, capsys):
    def fake_estimate(data, tau=None, jet=None):
        return mass.MassReport(m1=0.0, m2=0.0,
                               diagnostics={"residuals": {"d": 1e-3}})

    monkeypatch.setattr(mass, "estimate", fake_estimate)
    code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "8")
    assert code == 3
    block = json.loads(out)
    assert block["residuals"]["d"] == 1e-3
    assert block["limit"] == cli.RESIDUAL_LIMIT


def test_nan_residuals_exit_3_with_strict_json(tmp_path, capsys):
    """A coefficient near the float limit overflows the solve; its NaN
    residuals must fail the gate and be written as null."""
    path = write_json(tmp_path / "huge.json",
                      {"H1": [{"l": 1, "m": 0, "value": 1e308}]})
    with np.errstate(all="ignore"):
        code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                               "--input", path)
    assert code == 3

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    block = json.loads(out, parse_constant=reject)
    assert block["residuals"]["b"] is None and block["residuals"]["c"] is None


def test_integers_beyond_the_float_range_exit_2(tmp_path, capsys):
    huge = "1" + "0" * 400
    for name, text in (
            ("value.json", '{"H1": [{"l": 1, "m": 0, "value": %s}]}' % huge),
            ("tau.json", '{"cases": [{"tau": %s}]}' % huge)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                                 "--input", str(path))
        assert code == 2 and out == "", name
        assert err.startswith("schema error:") and "finite" in err, name


def test_bad_entry_deep_in_a_full_band_case_exits_2(tmp_path, capsys):
    ls, ms = harmonics.mode_table(48)
    coeffs = [{"l": int(l), "m": int(m), "value": 1e-3 / (1.0 + l) ** 2}
              for l, m in zip(ls, ms)]
    coeffs[2000]["value"] = True
    path = write_json(tmp_path / "deep.json",
                      {"cases": [{"H1": {"lmax": 48, "coeffs": coeffs}}]})
    code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "48",
                             "--input", path)
    assert code == 2 and out == ""
    assert err == ("schema error: input.cases[0].H1.coeffs[2000]: "
                   "value must be a number\n")


def test_tampered_multiplier_fails_verification(monkeypatch, capsys):
    original = operators.divdiv_multiplier
    monkeypatch.setattr(operators, "divdiv_multiplier",
                        lambda ls: 1.02 * original(ls))
    code, out, _ = run_cli(capsys, "--mode", "verify", "--lmax", "8",
                           "--only", "multipliers")
    assert code == 4
    payload = json.loads(out)
    assert payload["passed"] is False
    assert not payload["suites"]["multipliers"]["passed"]
