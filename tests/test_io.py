"""Input parsing, schema validation, and output formats."""

import numpy as np
import pytest

from statvac import io as svio
from statvac.curvature import random_jet
from statvac.spherical import harmonics


def test_coeff_vector_reads_both_block_forms():
    lmax = 4
    bare = [{"l": 1, "m": 0, "value": 2.5}]
    vec = svio.coeff_vector(bare, lmax, "t")
    assert vec.shape == (harmonics.num_modes(lmax),)
    assert vec[harmonics.index_of(1, 0)] == 2.5
    assert np.count_nonzero(vec) == 1

    wrapped = {"lmax": 3, "coeffs": [{"l": 3, "m": -2, "value": -1.0},
                                     {"l": 0, "m": 0, "value": 0.5}]}
    vec = svio.coeff_vector(wrapped, lmax, "t")
    assert vec[harmonics.index_of(3, -2)] == -1.0
    assert vec[harmonics.index_of(0, 0)] == 0.5

    assert np.all(svio.coeff_vector(None, lmax, "t") == 0.0)
    assert np.all(svio.coeff_vector({}, lmax, "t") == 0.0)


@pytest.mark.parametrize("block", [
    {"lmax": 9, "coeffs": []},                      # beyond the run band
    {"lmax": -1, "coeffs": []},
    {"lmax": 2.0, "coeffs": []},
    {"coeffs": [], "extra": 1},
    {"coeffs": 3},
    "not a list",
    [3],
    [{"l": 1, "m": 0}],                             # missing value
    [{"l": 1, "m": 0, "value": 1.0, "tag": "x"}],
    [{"m": 0, "value": 1.0}],
    [{"l": 1, "value": 1.0}],
    [{"l": True, "m": 0, "value": 1.0}],
    [{"l": 1.0, "m": 0, "value": 1.0}],
    [{"l": 1, "m": 0.0, "value": 1.0}],
    [{"l": 9, "m": 0, "value": 1.0}],               # beyond the band limit
    [{"l": 2, "m": 3, "value": 1.0}],               # order outside [-l, l]
    [{"l": 1, "m": 0, "value": True}],
    [{"l": 1, "m": 0, "value": "x"}],
    [{"l": 1, "m": 0, "value": float("nan")}],
    [{"l": 1, "m": 0, "value": float("inf")}],
    [{"l": 1, "m": 0, "value": 1.0}, {"l": 1, "m": 0, "value": 2.0}],
    [{"l": 1, "m": 0, "value": 10 ** 400}],         # beyond the float range
    {"lmax": 2, "coeffs": [{"l": 5, "m": 0, "value": 1.0}]},  # beyond own lmax
    {"lmax": True, "coeffs": []},
])
def test_coeff_vector_rejects_malformed_blocks(block):
    with pytest.raises(svio.SchemaError):
        svio.coeff_vector(block, 8, "t")


def test_coeff_vector_enforces_minimum_degree():
    entries = [{"l": 1, "m": 1, "value": 1.0}]
    svio.coeff_vector(entries, 8, "t")
    with pytest.raises(svio.SchemaError):
        svio.coeff_vector(entries, 8, "t", min_l=2)


def test_data_from_dict_empty_object_is_zero_data(grid8):
    data = svio.data_from_dict({}, grid8)
    assert data.epsilon_estimate == 0.0
    assert np.all(data.gamma1.trace.values == 0.0)
    assert np.all(data.H1.values == 0.0)


def test_data_from_dict_places_every_block(grid8):
    obj = {
        "gamma1": {
            "trace": [{"l": 0, "m": 0, "value": 1.5}],
            "p": [{"l": 2, "m": 1, "value": -0.25}],
            "q": {"coeffs": [{"l": 3, "m": 0, "value": 0.5}]},
        },
        "H1": [{"l": 1, "m": -1, "value": 2.0}],
        "tau": 0.02,
    }
    data = svio.data_from_dict(obj, grid8)
    assert data.gamma1.trace.coeffs[harmonics.index_of(0, 0)] == 1.5
    assert data.gamma1.p_coeffs[harmonics.index_of(2, 1)] == -0.25
    assert data.gamma1.q_coeffs[harmonics.index_of(3, 0)] == 0.5
    assert data.H1.coeffs[harmonics.index_of(1, -1)] == 2.0
    assert svio.case_tau(obj, "input") == 0.02


@pytest.mark.parametrize("obj", [
    [],
    {"gamma": {}},
    {"gamma1": 3},
    {"gamma1": {"trace": None, "pp": []}},
    {"gamma1": {"p": [{"l": 1, "m": 0, "value": 1.0}]}},
    {"gamma1": {"q": [{"l": 0, "m": 0, "value": 1.0}]}},
])
def test_data_from_dict_rejects_malformed_objects(grid8, obj):
    with pytest.raises(svio.SchemaError):
        svio.data_from_dict(obj, grid8)


def test_case_tau_validation():
    assert svio.case_tau(None, "w") is None
    assert svio.case_tau({}, "w") is None
    assert svio.case_tau({"tau": 2}, "w") == 2.0
    for bad in (True, "x", -0.1, 0.0, float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(svio.SchemaError):
            svio.case_tau({"tau": bad}, "w")


def test_jet_from_dict_roundtrip(rng):
    jet = random_jet(rng)
    obj = {"ric": jet.ric.tolist(), "dric": jet.dric.tolist(),
           "d2ric": jet.d2ric.tolist()}
    back = svio.jet_from_dict(obj)
    np.testing.assert_allclose(back.ric, jet.ric, atol=1e-15)
    np.testing.assert_allclose(back.dric, jet.dric, atol=1e-15)
    np.testing.assert_allclose(back.d2ric, jet.d2ric, atol=1e-15)

    zero = svio.jet_from_dict({})
    assert np.all(zero.ric == 0.0) and np.all(zero.d2ric == 0.0)
    assert np.all(svio.jet_from_dict(None).dric == 0.0)


@pytest.mark.parametrize("obj", [
    [],
    {"ricci": np.eye(3).tolist()},
    {"ric": [[1.0, 0.0], [0.0, 1.0]]},
    {"ric": [["a", "b", "c"]] * 3},
    {"ric": [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    {"ric": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
])
def test_jet_from_dict_rejects_malformed_objects(obj):
    with pytest.raises(svio.SchemaError):
        svio.jet_from_dict(obj)


def test_rows_to_csv_layout():
    rows = [
        {"tau": 0.1, "m1": 1.0 / 3.0, "m2": -0.25, "total": 1.0 / 3.0 - 0.25,
         "tau_scaled_total": 0.01, "hawking_ref": None, "by_ref": None,
         "static_ref": None},
    ]
    text = svio.rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(svio.CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "0.1"
    assert float(cells[1]) == 1.0 / 3.0
    assert cells[5] == "" and cells[6] == "" and cells[7] == ""
    assert text.endswith("\n")


def test_dump_json_is_deterministic():
    a = svio.dump_json({"b": 1, "a": [1, 2]})
    b = svio.dump_json({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')


def test_load_json_failures(tmp_path):
    with pytest.raises(svio.SchemaError):
        svio.load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(svio.SchemaError):
        svio.load_json(str(bad))
    good = tmp_path / "good.json"
    good.write_text('{"x": 1}', encoding="utf-8")
    assert svio.load_json(str(good)) == {"x": 1}
