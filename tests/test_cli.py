"""Command-line behavior: modes, formats, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_taylor_diagnostics_report_the_spectral_tail(capsys):
    code, out, _ = run_cli(capsys, "--mode", "verify", "--only", "taylor",
                           "--lmax", "8", "--seed", "3")
    assert code == 0
    diagnostics = json.loads(out)["suites"]["taylor"]["diagnostics"]
    tail = diagnostics["max_spectral_tail"]
    assert isinstance(tail, float) and math.isfinite(tail) and tail >= 0.0
    assert "max_richardson_gap" not in diagnostics


def test_output_file_keeps_stdout_clean(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                             "--output", str(target))
    assert code == 0 and out == "" and err == ""
    assert json.loads(target.read_text())["mode"] == "fields"


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                             "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("schema error:") and str(target) in err


def test_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"H1": [], "note": "\u00e9"}'.encode("latin-1"))
    code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                             "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("schema error:") and str(path) in err


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
    ("--mode", "small-sphere", "--tau", "1e70"),
    ("--mode", "small-sphere", "--tau", "1e70", "--format", "csv"),
    ("--mode", "verify", "--seed", "-1"),
    ("--mode", "moments", "--seed", "-1"),
])
def test_schema_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("schema error:")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_small_sphere_data_overflow_exits_2(tmp_path, capsys, fmt):
    """A tau whose small-sphere data overflow is refused without warnings;
    a tau whose data stay finite still reaches the residual gate."""
    jet = write_json(tmp_path / "jet.json", {"ric": np.eye(3).tolist()})
    for tau in ("1e30", "1e60"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "--mode", "small-sphere",
                                     "--lmax", "8", "--tau", "0.01",
                                     "--tau", tau, "--input", jet,
                                     "--format", fmt)
        assert code == 2 and out == ""
        assert err == (f"schema error: tau {float(tau)!r} too large: the "
                       "small-sphere data overflow\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8",
                               "--tau", "1e20", "--input", jet, "--format", fmt)
    assert code == 3
    assert json.loads(out)["error"] == "boundary solver residual above threshold"


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

    # its R**2 and |Ric|^2 overflow, at the default tau
    huge_ric = write_json(tmp_path / "g.json",
                          {"ric": [[1e300, 0.0, 0.0], [0.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]]})
    code, out, err = run_cli(capsys, "--mode", "small-sphere", "--lmax", "8",
                             "--input", huge_ric)
    assert code == 2 and out == ""
    assert err == ("schema error: input: curvature jet too large: its "
                   "reference expansion coefficients overflow\n")


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


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_nan_residuals_exit_3_with_strict_json(monkeypatch, capsys):
    """NaN residuals must fail the gate and be written as null."""
    def nan_estimate(data, tau=None, jet=None):
        return mass.MassReport(m1=0.0, m2=0.0, diagnostics={
            "residuals": {"a": 0.0, "b": math.nan, "c": math.nan}})

    monkeypatch.setattr(mass, "estimate", nan_estimate)
    code, out, _ = run_cli(capsys, "--mode", "fields", "--lmax", "8")
    assert code == 3
    block = json.loads(out, parse_constant=reject_constant)
    assert block["residuals"]["b"] is None and block["residuals"]["c"] is None


@pytest.mark.parametrize("case", [
    {"H1": [{"l": 0, "m": 0, "value": 1e160}]},
    {"gamma1": {"trace": [{"l": 0, "m": 0, "value": 1e160}]}},
    {"gamma1": {"p": [{"l": 2, "m": 0, "value": 1e160}]}},
    # overflows inside the boundary solve, before any mass
    {"H1": [{"l": 1, "m": 0, "value": 1e308}]},
    # finite masses, but tau * (m1 + m2) overflows
    {"H1": [{"l": 0, "m": 0, "value": 1e10}], "tau": 1e300},
])
def test_fields_overflow_exits_2(tmp_path, capsys, case):
    path = write_json(tmp_path / "huge.json", {"cases": [{}, case]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                                 "--input", path)
    assert code == 2 and out == ""
    assert err == ("schema error: input.cases[1]: data too large: the mass "
                   "report overflows\n")


def test_fields_takes_a_single_tau(capsys):
    code, out, err = run_cli(capsys, "--mode", "fields", "--lmax", "8",
                             "--tau", "0.1", "0.2")
    assert code == 2 and out == ""
    assert err.startswith("schema error:") and '"tau" key' in err


@pytest.mark.parametrize("taus", [("0.01", "0.01"), ("0.01", "0.02", "1e-2")])
def test_small_sphere_rejects_a_repeated_tau(tmp_path, capsys, taus):
    """Radii must be distinct: with two, a repeat makes the (tau^3, tau^5)
    fit rank-deficient, and least squares would report its minimum-norm
    solution as a fit."""
    jet = random_jet(np.random.default_rng(0))
    path = write_json(tmp_path / "jet.json", {
        "ric": jet.ric.tolist(), "dric": jet.dric.tolist(),
        "d2ric": jet.d2ric.tolist()})
    code, out, err = run_cli(capsys, "--mode", "small-sphere", "--input", path,
                             "--tau", *taus)
    assert code == 2 and out == ""
    assert err == "schema error: tau 0.01 is given twice; the fit needs distinct radii\n"


_EDGE_MAGNITUDES = (1e154, 1e155, 1e160, 1e300, 1e308, sys.float_info.max)
_magnitudes = st.one_of(st.floats(0.0, 308.0).map(lambda e: 10.0 ** e),
                        st.sampled_from(_EDGE_MAGNITUDES))
_signs = st.sampled_from((1.0, -1.0))


@st.composite
def _fields_run(draw):
    block = draw(st.sampled_from(("H1", "trace", "p", "q")))
    l = draw(st.integers(2 if block in ("p", "q") else 0, 6))
    entry = {"l": l, "m": draw(st.integers(-l, l)),
             "value": draw(_signs) * draw(_magnitudes)}
    case = {"H1": [entry]} if block == "H1" else {"gamma1": {block: [entry]}}
    if draw(st.booleans()):
        case["tau"] = draw(_magnitudes)
    return ["--mode", "fields"], {"cases": [case]}


@st.composite
def _small_sphere_run(draw):
    ric = np.diag([draw(_signs) * draw(_magnitudes), 0.0, draw(_signs)])
    taus = [repr(draw(_magnitudes) * 1e-3) for _ in range(draw(st.integers(1, 2)))]
    return ["--mode", "small-sphere", "--tau", *taus], {"ric": ric.tolist()}


@settings(max_examples=60, deadline=None)
@given(run=st.one_of(_fields_run(), _small_sphere_run()))
def test_large_inputs_exit_with_a_documented_code_and_strict_json(tmp_path_factory, run):
    """Inputs up to the float limit either work, exit 2, or fail the
    residual gate; stdout is strict JSON and no numpy warning escapes."""
    argv, payload = run
    path = tmp_path_factory.getbasetemp() / "large_input.json"
    write_json(path, payload)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([*argv, "--lmax", "8", "--input", str(path)])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("schema error:")
    else:
        json.loads(out.getvalue(), parse_constant=reject_constant)


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


def test_importing_the_cli_loads_no_oracle():
    """The oracles, and scipy.integrate with them, load only for verify
    runs; cli.suites still resolves on first use."""
    code = ("import sys, statvac.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.integrate' or m.startswith('statvac.oracles'))); "
            "print(statvac.cli.suites.SUITE_NAMES[0])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:2] == ["[]", "moments"]


def test_the_package_loads_no_scipy():
    """scipy is a test dependency only: neither the command line nor the
    oracle suites, geodesic integration included, import any of it."""
    code = ("import sys, statvac.cli, statvac.oracles.suites; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
