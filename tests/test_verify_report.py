"""verify_bounds.json is rendered straight from the BoundReports; it must be
byte for byte what json.dump(sort_keys=True, indent=2) wrote for them."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rigkit import harness
from rigkit.harness import ExperimentConfig
from rigkit.verify import (BoundReport, _json_number, _json_scalar,
                          check_intersection_bounds)

from oracles import verify_report_reference

SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
                  5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5, 0.1]
FLOATS = st.sampled_from(SPECIAL_FLOATS) | st.floats()
TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀a') | st.characters(),
               max_size=8)
PARAM_VALUES = st.one_of(st.integers(-2**70, 2**70), FLOATS, TEXT, st.booleans(),
                         st.none())
REPORTS = st.builds(
    BoundReport, bound_id=TEXT,
    params=st.dictionaries(TEXT, PARAM_VALUES, max_size=5),
    lhs=FLOATS, rhs=FLOATS,
    status=st.sampled_from(["pass", "fail", "vacuous", "skipped"]) | TEXT,
    note=TEXT)


def written(tmp_path, reports) -> str:
    cfg = ExperimentConfig(n_values=[100], out_dir=str(tmp_path))
    with open(harness.write_verify_report(cfg, reports)) as fh:
        return fh.read()


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reports=st.lists(REPORTS, max_size=6))
def test_written_report_matches_json_dump(tmp_path, reports):
    assert written(tmp_path, reports) == verify_report_reference(reports)


def test_empty_report_list(tmp_path):
    text = written(tmp_path, [])
    assert text == verify_report_reference([])
    assert json.loads(text) == {"counts": {}, "kind": "verify", "reports": []}


def test_full_default_grid_matches_json_dump(tmp_path, default_verify_grid):
    reports = check_intersection_bounds(default_verify_grid)
    assert len(reports) == 76911
    assert written(tmp_path, reports) == verify_report_reference(reports)


def test_mixed_grid_matches_json_dump(tmp_path, mixed_verify_grid):
    # skipped reports write NaN as null; the suite's reports carry their
    # grid point's spelled params.  No report at m = 1.5e8 fails: its
    # P(H = 0) keeps its digits (a failed report is written in
    # test_params_key_orders_and_prefixes_share_no_layout)
    reports = check_intersection_bounds(mixed_verify_grid)
    assert {r.status for r in reports} == {"pass", "skipped"}
    assert not any(r.status == "fail" for r in reports if r.params["m"] == 150000000)
    text, want = written(tmp_path, reports), verify_report_reference(reports)
    # the first difference only: a diff of two 4 MB texts takes minutes
    at = next((i for i, (a, b) in enumerate(zip(text, want)) if a != b),
              min(len(text), len(want)))
    assert text[max(at - 200, 0):at + 200] == want[max(at - 200, 0):at + 200]
    assert len(text) == len(want)


def test_suite_report_with_changed_params_writes_them(tmp_path):
    # a report spells the params its grid point spelled only while they hold
    # those very values: an equal value of another type, a new value, an
    # added key, a removed one and a new dict are each written as they are
    reports = check_intersection_bounds([(3, 4, 20)])
    reports[0].params["j"] = 3.0
    reports[1].params["m"] = True
    reports[2].params["k"] = 5
    reports[3].params["u"] = 1
    reports[4].params["j"] = reports[4].params.pop("k")
    reports[5].params = {"j": -0.0}
    assert written(tmp_path, reports) == verify_report_reference(reports)
    text = written(tmp_path, reports[:6])
    for spelled in ('"j": 3.0', '"m": true', '"k": 5', '"u": 1', '"j": -0.0'):
        assert spelled in text


@pytest.mark.parametrize("value, text", [
    (0.0, "0.0"), (-0.0, "-0.0"), (1.0, "1.0"), (-1.0, "-1.0"),
    (math.nan, "null"), (-math.nan, "null"), (math.inf, "Infinity"),
    (-math.inf, "-Infinity"), (5e-324, "5e-324"), (0.1, "0.1")])
def test_report_numbers_are_spelled_as_json_writes_them(value, text):
    assert _json_number(value) == text
    if not math.isnan(value):
        assert json.dumps(value) == text


def test_slack_of_signed_zeros_is_written_as_json_dump(tmp_path):
    # slack reuses rhs's text only when lhs is 0.0: -0.0 - -0.0 is 0.0
    reports = [BoundReport("z", {}, lhs, rhs, "pass") for lhs in (0.0, -0.0)
               for rhs in (0.0, -0.0, 2.5, math.nan)]
    assert written(tmp_path, reports) == verify_report_reference(reports)


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), object(), [1],
                                   {"a": 1}])
def test_param_that_is_no_json_scalar_raises(tmp_path, value):
    # json rejects the first three too; lists and dicts it would nest, but
    # no report holds one, so the renderer refuses them
    rep = BoundReport("b", {"j": 1}, 0.5, 1.0, "pass")
    rep.params["j"] = value  # slipped in after the type pin
    with pytest.raises(TypeError):
        rep.json_block()
    with pytest.raises(TypeError):
        written(tmp_path, [rep])


@pytest.mark.parametrize("value", [np.float64(0.25), -0.0, math.nan, -math.inf,
                                   2**70, True, None, "é\"\\"])
def test_json_scalar_matches_json_dumps(value):
    assert _json_scalar(value) == json.dumps(value)


def test_params_key_orders_and_prefixes_share_no_layout(tmp_path):
    # the renderer caches one template per key tuple of params: the same
    # keys in two insertion orders, a key set that is a prefix of another,
    # keys that need escaping or hold a "%", and note and status strings
    # repeated across reports must each render as json.dump does
    reports = [
        BoundReport("a", {"j": 1, "k": 2, "m": 3}, 0.5, 1.0, "pass", "same note"),
        BoundReport("a", {"m": 3, "k": 2, "j": 1}, 0.5, 1.0, "pass", "same note"),
        BoundReport("b", {"k": 2.5, "m": None, "j": True}, 1.0, 0.5, "fail", "same note"),
        BoundReport("b", {"j": 1, "k": 2}, math.nan, 1.0, "skipped", "other"),
        BoundReport("c", {"j": 1, "k": 2, "m": 3, "t": 0}, 1.0, 0.5, "fail", "same note"),
        BoundReport("c", {"j": 1}, 0.25, math.inf, "pass", ""),
        BoundReport("d", {}, 0.25, 0.5, "vacuous", "%s %d %%"),
        BoundReport("d", {"%s": "%", "é\"": 1, "%d%%": -0.0}, 0.1, 0.2, "pass", "%"),
        BoundReport("d", {"é\"": 2, "%s": "x", "%d%%": 3}, 0.1, 0.2, "%s", "same note"),
    ]
    assert written(tmp_path, reports) == verify_report_reference(reports)
    for rep in reports:
        assert written(tmp_path, [rep]) == verify_report_reference([rep])
