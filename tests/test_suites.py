"""Registry behavior of the named verification suites."""

import math

import numpy as np
import pytest

from statvac import cli
from statvac.oracles import SUITE_NAMES, run_all, run_suite, suites
from statvac.spherical import harmonics

EXPECTED_NAMES = ("moments", "multipliers", "invariants", "conformal",
                  "linearized", "flux", "variations", "boundary", "anchors",
                  "taylor")


def test_registry_names_and_order():
    assert SUITE_NAMES == EXPECTED_NAMES


def test_unknown_suite_name_raises():
    with pytest.raises(KeyError):
        run_suite("nonsense")


def test_check_reports_have_a_fixed_shape():
    report = run_suite("moments", seed=0, lmax=8)
    assert set(report) == {"checks", "passed"}
    assert report["passed"]
    assert len(report["checks"]) >= 1
    for check in report["checks"].values():
        assert set(check) == {"max_residual", "tolerance", "passed"}
        assert check["max_residual"] <= check["tolerance"]
        assert check["passed"]


def test_suite_results_do_not_depend_on_the_subset():
    alone = run_all(["multipliers"], seed=3, lmax=8)
    paired = run_all(["moments", "multipliers"], seed=3, lmax=8)
    assert alone["suites"]["multipliers"] == paired["suites"]["multipliers"]
    assert paired["passed"]

    again = run_suite("multipliers", seed=3, lmax=8)
    assert again == alone["suites"]["multipliers"]


def test_seed_changes_the_numbers_but_not_the_verdict():
    a = run_suite("invariants", seed=0, lmax=8)
    b = run_suite("invariants", seed=1, lmax=8)
    assert a["passed"] and b["passed"]
    residuals_a = [c["max_residual"] for c in a["checks"].values()]
    residuals_b = [c["max_residual"] for c in b["checks"].values()]
    assert residuals_a != residuals_b


def test_nan_residuals_fail_their_check(monkeypatch, tmp_path):
    """A NaN residual must fail its check, not vanish into a running max."""
    monkeypatch.setattr(suites, "fd_linearized_ricci",
                        lambda *args, **kwargs: np.full((3, 3), np.nan))
    report = run_suite("linearized", seed=0)
    check = report["checks"]["linearized_ricci_fd"]
    assert math.isnan(check["max_residual"])
    assert not check["passed"] and not report["passed"]
    out = tmp_path / "verify.json"
    assert cli.main(["--mode", "verify", "--only", "linearized",
                     "--output", str(out)]) == cli.EXIT_VERIFY


def test_one_nan_sample_fails_the_conformal_check(monkeypatch):
    """The 20 samples share one fd_ricci call; a NaN in the third fails."""
    calls = []
    original = suites.fd_ricci

    def third_is_nan(metric, points, step=1e-3):
        calls.append(points)
        ric = original(metric, points, step).copy()
        ric[2] = np.nan
        return ric

    monkeypatch.setattr(suites, "fd_ricci", third_is_nan)
    report = run_suite("conformal", seed=0)
    assert len(calls) == 1 and calls[0].shape == (20, 1, 3)
    assert math.isnan(report["checks"]["conformal_ricci_fd"]["max_residual"])
    assert not report["passed"]


def test_fast_multiplier_suite_builds_three_offgrid_tables(monkeypatch):
    """One for the Laplacian probes (four modes, two steps) and one per
    step for every divdiv mode together."""
    degrees = []
    original = harmonics.harmonic_tables

    def counted(lmax, *args, **kwargs):
        degrees.append(lmax)
        return original(lmax, *args, **kwargs)

    monkeypatch.setattr(harmonics, "harmonic_tables", counted)
    assert run_suite("multipliers", seed=0)["passed"]
    assert len(degrees) == 3
