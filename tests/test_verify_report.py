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
from rigkit.verify import BoundReport, _json_scalar, check_intersection_bounds

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
