"""Input parsing, schema validation, and output formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


MALFORMED_BLOCKS = [
    ({"lmax": 9, "coeffs": []},                     # beyond the run band
     "t.lmax: 9 exceeds the run band limit 8"),
    ({"lmax": -1, "coeffs": []}, "t.lmax: must be a nonnegative integer"),
    ({"lmax": 2.0, "coeffs": []}, "t.lmax: must be a nonnegative integer"),
    ({"coeffs": [], "extra": 1}, "t: unknown keys ['extra']"),
    ({"coeffs": 3}, "t: expected a coefficient list"),
    ("not a list", "t: expected a coefficient list"),
    ([3], "t.coeffs[0]: expected an object with l, m, value"),
    ([{"l": 1, "m": 0}],                            # missing value
     "t.coeffs[0]: value must be a number"),
    ([{"l": 1, "m": 0, "value": 1.0, "tag": "x"}],
     "t.coeffs[0]: unknown keys ['tag']"),
    ([{"m": 0, "value": 1.0}], "t.coeffs[0]: missing key 'l'"),
    ([{"l": 1, "value": 1.0}], "t.coeffs[0]: missing key 'm'"),
    ([{"l": True, "m": 0, "value": 1.0}], "t.coeffs[0]: l must be an integer"),
    ([{"l": 1.0, "m": 0, "value": 1.0}], "t.coeffs[0]: l must be an integer"),
    ([{"l": 1, "m": 0.0, "value": 1.0}], "t.coeffs[0]: m must be an integer"),
    ([{"l": 9, "m": 0, "value": 1.0}],              # beyond the band limit
     "t.coeffs[0]: degree 9 exceeds the band limit 8"),
    ([{"l": 2, "m": 3, "value": 1.0}],              # order outside [-l, l]
     "t.coeffs[0]: order 3 outside [-2, 2]"),
    ([{"l": 1, "m": 0, "value": True}], "t.coeffs[0]: value must be a number"),
    ([{"l": 1, "m": 0, "value": "x"}], "t.coeffs[0]: value must be a number"),
    ([{"l": 1, "m": 0, "value": float("nan")}],
     "t.coeffs[0]: value must be finite"),
    ([{"l": 1, "m": 0, "value": float("inf")}],
     "t.coeffs[0]: value must be finite"),
    ([{"l": 1, "m": 0, "value": 1.0}, {"l": 1, "m": 0, "value": 2.0}],
     "t.coeffs[1]: duplicate mode (l=1, m=0)"),
    ([{"l": 1, "m": 0, "value": 10 ** 400}],        # beyond the float range
     "t.coeffs[0]: value must be finite"),
    ({"lmax": 2, "coeffs": [{"l": 5, "m": 0, "value": 1.0}]},  # beyond own lmax
     "t.coeffs[0]: degree 5 exceeds the band limit 2"),
    ({"lmax": True, "coeffs": []}, "t.lmax: must be a nonnegative integer"),
]


# the ids are the ones pytest gives a parametrization over the blocks alone
@pytest.mark.parametrize("block, message", MALFORMED_BLOCKS, ids=[
    block if isinstance(block, str) else f"block{i}"
    for i, (block, _) in enumerate(MALFORMED_BLOCKS)])
def test_coeff_vector_rejects_malformed_blocks(block, message):
    with pytest.raises(svio.SchemaError) as info:
        svio.coeff_vector(block, 8, "t")
    assert str(info.value) == message


def full_band_block(lmax):
    """Every (l, m) through lmax in flat-index order, with distinct values."""
    ls, ms = harmonics.mode_table(lmax)
    return {"lmax": lmax, "coeffs": [
        {"l": int(l), "m": int(m), "value": 1.0 / (1.0 + k)}
        for k, (l, m) in enumerate(zip(ls, ms))]}


@pytest.mark.parametrize("bad, message", [
    ({"value": True}, "value must be a number"),
    ({"value": float("nan")}, "value must be finite"),
    ({"value": 10 ** 400}, "value must be finite"),
    ({"m": 0}, "duplicate mode (l=44, m=0)"),
    ({"m": 50}, "order 50 outside [-44, 44]"),
    ({"l": 49}, "degree 49 exceeds the band limit 48"),
    ({"l": "44"}, "l must be an integer"),
    ({"tag": 1}, "unknown keys ['tag']"),
], ids=["bool", "nan", "huge", "duplicate", "order", "degree", "string_l",
        "extra_key"])
def test_coeff_vector_names_the_bad_entry_of_a_full_band_block(bad, message):
    block = full_band_block(48)
    assert block["coeffs"][2000]["l"] == 44
    block["coeffs"][2000].update(bad)
    with pytest.raises(svio.SchemaError) as info:
        svio.coeff_vector(block, 48, "t")
    assert str(info.value) == f"t.coeffs[2000]: {message}"


def reference_entries(entries, lmax, entry_lmax, min_l, where):
    """The entry schema checked one entry at a time, in list order."""
    out = np.zeros(harmonics.num_modes(lmax))
    seen = set()
    for pos, entry in enumerate(entries):
        spot = f"{where}.coeffs[{pos}]"
        if not isinstance(entry, dict):
            raise svio.SchemaError(f"{spot}: expected an object with l, m, value")
        extra = set(entry) - {"l", "m", "value"}
        if extra:
            raise svio.SchemaError(f"{spot}: unknown keys {sorted(extra)}")
        if "l" not in entry or "m" not in entry:
            missing = "l" if "l" not in entry else "m"
            raise svio.SchemaError(f"{spot}: missing key '{missing}'")
        l, m, value = entry["l"], entry["m"], entry.get("value")
        if not isinstance(l, int) or isinstance(l, bool):
            raise svio.SchemaError(f"{spot}: l must be an integer")
        if not isinstance(m, int) or isinstance(m, bool):
            raise svio.SchemaError(f"{spot}: m must be an integer")
        if l < min_l:
            raise svio.SchemaError(f"{spot}: degree {l} below the minimum "
                                   f"{min_l} for this block")
        if l > entry_lmax:
            raise svio.SchemaError(f"{spot}: degree {l} exceeds the band "
                                   f"limit {entry_lmax}")
        if abs(m) > l:
            raise svio.SchemaError(f"{spot}: order {m} outside [-{l}, {l}]")
        if (l, m) in seen:
            raise svio.SchemaError(f"{spot}: duplicate mode (l={l}, m={m})")
        seen.add((l, m))
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise svio.SchemaError(f"{spot}: value must be a number")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise svio.SchemaError(f"{spot}: value must be finite")
        out[l * l + l + m] = value
    return out


def random_value(rnd, kinds):
    kind = rnd.choice(kinds)
    if kind == "int":
        return rnd.randint(-2 ** 70, 2 ** 70) >> rnd.randint(0, 70)
    value = rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-300, 300)
    if kind == "zero":
        return rnd.choice((0.0, -0.0, 0))
    return np.float64(value) if kind == "float64" else value


@st.composite
def coeff_blocks(draw):
    """(block, run lmax, band limit of the entries, min_l, entry list)."""
    rnd = draw(st.randoms(use_true_random=False))
    min_l = draw(st.sampled_from((0, 2)))
    block_lmax = draw(st.integers(min_l, 12))
    lmax = draw(st.integers(block_lmax, 12))
    modes = [(l, m) for l in range(min_l, block_lmax + 1)
             for m in range(-l, l + 1)]
    if draw(st.booleans()):  # sparse
        modes = rnd.sample(modes, rnd.randint(0, len(modes)))
    rnd.shuffle(modes)
    # numpy scalars send a block to the per-entry loop, so some blocks
    # draw only plain Python numbers
    kinds = sorted(draw(st.sets(st.sampled_from(("float", "int", "float64",
                                                 "zero")), min_size=1)))
    entries = [{"l": l, "m": m, "value": random_value(rnd, kinds)}
               for l, m in modes]
    if draw(st.booleans()):
        return entries, lmax, lmax, min_l, entries
    return ({"lmax": block_lmax, "coeffs": entries}, lmax, block_lmax, min_l,
            entries)


def mutate(rnd, kind, entries, entry_lmax, min_l):
    """Break the entry at a random position in the way ``kind`` names."""
    if not entries:
        entries.append({"l": min_l, "m": 0, "value": 1.0})
    pos = rnd.randrange(len(entries))
    entry = entries[pos]
    key = rnd.choice(("l", "m", "value"))
    if kind == "not_object":
        entries[pos] = rnd.choice(([entry["l"], entry["m"]], 3, None, "x"))
    elif kind == "wrong_type":
        entry[rnd.choice(("l", "m"))] = rnd.choice((1.0, "1", None, [1]))
        entry["value"] = rnd.choice((entry["value"], "1", None, [1.0]))
    elif kind == "bool":
        entry[key] = rnd.choice((True, False))
    elif kind == "degree":
        entry["l"] = rnd.choice((entry_lmax + rnd.randint(1, 3),
                                 min_l - rnd.randint(1, 3), 10 ** 30, -2 ** 63))
    elif kind == "order":
        entry["m"] = rnd.choice((entry["l"] + rnd.randint(1, 3),
                                 -entry["l"] - rnd.randint(1, 3),
                                 -2 ** 63, 2 ** 63, 10 ** 30))
    elif kind == "duplicate":
        twin = dict(entries[rnd.randrange(len(entries))], value=2.5)
        entries.insert(rnd.randint(0, len(entries)), twin)
    elif kind == "nonfinite":
        entry["value"] = rnd.choice((math.nan, math.inf, -math.inf,
                                     np.float64(math.nan)))
    elif kind == "huge":
        entry["value"] = rnd.choice((10 ** 400, -10 ** 400, 2 ** 1024))
    elif kind == "extra_key":
        entry["tag"] = 1
    elif kind == "missing_key":
        del entry[key]


def outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except svio.SchemaError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(drawn=coeff_blocks())
def test_coeff_vector_matches_the_entry_by_entry_reference(drawn):
    block, lmax, entry_lmax, min_l, entries = drawn
    vec = svio.coeff_vector(block, lmax, "t", min_l=min_l)
    ref = reference_entries(entries, lmax, entry_lmax, min_l, "t")
    assert vec.tobytes() == ref.tobytes()


MUTATIONS = ("not_object", "wrong_type", "bool", "degree", "order",
             "duplicate", "nonfinite", "huge", "extra_key", "missing_key")


@settings(max_examples=200, deadline=None)
@given(drawn=coeff_blocks(), kind=st.sampled_from(MUTATIONS),
       rnd=st.randoms(use_true_random=False))
def test_coeff_vector_rejects_a_broken_entry_like_the_reference(drawn, kind,
                                                                rnd):
    block, lmax, entry_lmax, min_l, entries = drawn
    mutate(rnd, kind, entries, entry_lmax, min_l)
    expected = outcome(reference_entries, entries, lmax, entry_lmax, min_l, "t")
    assert isinstance(expected, str), kind
    assert outcome(svio.coeff_vector, block, lmax, "t", min_l) == expected


def test_coeff_vector_enforces_minimum_degree():
    entries = [{"l": 1, "m": 1, "value": 1.0}]
    svio.coeff_vector(entries, 8, "t")
    with pytest.raises(svio.SchemaError) as info:
        svio.coeff_vector(entries, 8, "t", min_l=2)
    assert str(info.value) == ("t.coeffs[0]: degree 1 below the minimum 2 "
                               "for this block")


def test_data_from_dict_empty_object_is_zero_data(grid8):
    data = svio.data_from_dict({}, grid8)
    assert data.epsilon_estimate == 0.0
    assert np.all(data.gamma1.trace.values == 0.0)
    assert np.all(data.H1.values == 0.0)
    assert svio.data_from_dict({"gamma1": None}, grid8).epsilon_estimate == 0.0


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
    {"gamma1": 0},                                  # falsy, but not null
    {"gamma1": []},
    {"gamma1": False},
    {"gamma1": ""},
    {"gamma1": {"trace": 0}},
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
    {"ric": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},  # numeric strings
    {"ric": [[True, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
    {"dric": [[[False] * 3] * 3] * 3},
    {"d2ric": [[[[0.0, 0.0, "0"]] * 3] * 3] * 3},
    {"ric": [[10 ** 400, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},  # beyond float range
    {"ric": [[0.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0, 0.0]]},  # ragged
    {"ric": {"0": [0.0, 0.0, 0.0]}},
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
