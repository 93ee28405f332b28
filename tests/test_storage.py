import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigkit.graphgen import BipartiteIncidence, generate, sample_incidence
from rigkit.harness import ExperimentConfig, Trial
from rigkit.model import ModelParams, default_attribute_count, trial_rng
from rigkit.storage import (
    GraphFormatError,
    file_checksum,
    read_graph,
    write_graph,
)


@pytest.fixture()
def instance():
    params = ModelParams(n=120, m=900, alpha=0.8, c0=1.0)
    inc, w = generate(params, trial_rng(21, 120, 0))
    return params, inc, w


@pytest.mark.parametrize("fmt,ext", [("binary", "rig"), ("json", "json")])
def test_round_trip(tmp_path, instance, fmt, ext):
    params, inc, w = instance
    path = tmp_path / f"g.{ext}"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=21,
                fmt=fmt)
    inc2, params2, seed = read_graph(path)
    assert inc2 == inc
    assert params2.n == 120 and params2.m == 900
    assert params2.alpha == params.alpha and params2.c0 == params.c0
    assert seed == 21
    assert params2 == params
    # a Trial on the file carries realized normalized weights
    t = Trial.from_file(ExperimentConfig(n_values=[120]), path, 0)
    assert np.array_equal(t.weights.sizes, inc.sizes())
    assert np.allclose(t.weights.tilde_z, inc.sizes() / params.size_scale)


def test_rewrite_is_byte_identical(tmp_path, instance):
    params, inc, w = instance
    p1, p2 = tmp_path / "a.rig", tmp_path / "b.rig"
    write_graph(p1, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=21)
    write_graph(p2, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=21)
    assert file_checksum(p1) == file_checksum(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_format_sniffing(tmp_path, instance):
    params, inc, w = instance
    # extension does not matter; the magic does
    path = tmp_path / "oddly.named"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1,
                fmt="binary")
    inc2, _, _ = read_graph(path)
    assert inc2 == inc
    path2 = tmp_path / "oddly2.named"
    write_graph(path2, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1,
                fmt="json")
    inc3, _, _ = read_graph(path2)
    assert inc3 == inc


def test_truncated_binary_rejected(tmp_path, instance):
    params, inc, w = instance
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1)
    blob = path.read_bytes()
    for cut in (3, 20, len(blob) - 5):
        bad = tmp_path / f"cut{cut}.rig"
        bad.write_bytes(blob[:cut])
        with pytest.raises(GraphFormatError):
            read_graph(bad)


def test_trailing_garbage_rejected(tmp_path, instance):
    params, inc, w = instance
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1)
    bad = tmp_path / "pad.rig"
    bad.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(GraphFormatError):
        read_graph(bad)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bogus.rig"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(GraphFormatError):
        read_graph(path)


def test_corrupt_json_rejected(tmp_path, instance):
    params, inc, w = instance
    path = tmp_path / "g.json"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1,
                fmt="json")
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError):
        read_graph(bad)
    bad.write_text("{not json")
    with pytest.raises(GraphFormatError):
        read_graph(bad)


def test_inconsistent_sets_rejected(tmp_path, instance):
    params, inc, w = instance
    path = tmp_path / "g.json"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1,
                fmt="json")
    doc = json.loads(path.read_text())
    bad = tmp_path / "bad.json"
    for entry in ([0, 0], 5):  # a duplicate attribute; a number, not a list
        doc["sets"][0] = entry
        bad.write_text(json.dumps(doc))
        with pytest.raises(GraphFormatError):
            read_graph(bad)


def test_unknown_format_argument(tmp_path, instance):
    params, inc, w = instance
    with pytest.raises(ValueError):
        write_graph(tmp_path / "x", inc.m, inc.set_indptr, inc.set_attrs, params.alpha,
                    params.c0, seed=1,
                    fmt="yaml")


def test_every_constructor_gives_one_keyed_form(tmp_path):
    # the sampler, from_flat and from_sets of its view, and a round trip
    # through either file format all give the same sorted keys; m = 12
    # makes the sampler top up
    sizes = np.array([3, 0, 2, 5, 1, 4])
    inc = sample_incidence(12, sizes, trial_rng(5, 6, 0))
    n, m, indptr, ids = inc.n, inc.m, inc.set_indptr, inc.set_attrs
    sets = [ids[a:b][::-1] for a, b in zip(indptr[:-1], indptr[1:])]
    built = [BipartiteIncidence.from_flat(n, m, sizes, ids.copy()),
             BipartiteIncidence.from_sets(n, m, sets)]
    for fmt in ("binary", "json"):
        path = tmp_path / f"g.{fmt}"
        write_graph(path, m, indptr, ids, 0.5, 1.0, seed=0, fmt=fmt)
        built.append(read_graph(path)[0])
    for other in built:
        assert other.keys.dtype == np.int64
        assert np.array_equal(other.keys, inc.keys)
        assert other == inc
    # every set shifted by one attribute: the same sizes, other keys
    assert BipartiteIncidence.from_sets(n, m, [(s + 1) % m for s in sets]) != inc
    # from_flat gives up an int64 flat: it is packed in place into the keys
    flat = ids.copy()
    assert BipartiteIncidence.from_flat(n, m, sizes, flat).keys is flat


def test_empty_sets_round_trip(tmp_path):
    inc = BipartiteIncidence.from_sets(3, 50, [[], [7], []])
    write_graph(tmp_path / "tiny.rig", inc.m, inc.set_indptr, inc.set_attrs, 0.5, 1.0, seed=0)
    inc2, _, _ = read_graph(tmp_path / "tiny.rig")
    assert inc2 == inc
    assert inc2.sizes().tolist() == [0, 1, 0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(st.tuples(st.integers(1, 14), st.integers(0, 2**64 - 1)),
                      max_size=3),
       cut=st.integers(0, 120))
def test_damaged_binary_fails_only_as_format_error(tmp_path_factory, edits, cut):
    """Overwrite whole 8-byte words (n, m, alpha, c0, seed, body) and cut the
    file short: reading either succeeds or raises GraphFormatError."""
    inc = BipartiteIncidence.from_sets(4, 50, [[1, 7], [7, 9], [], [9]])
    path = tmp_path_factory.mktemp("fuzz") / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, 0.5, 1.0, seed=0)
    blob = bytearray(path.read_bytes())
    assert len(blob) == 120  # 48-byte header, 4 size words, 5 attribute ids
    for word, value in edits:
        blob[8 * word:8 * word + 8] = value.to_bytes(8, "little")
    path.write_bytes(bytes(blob[:cut]))
    try:
        read_graph(path)
    except GraphFormatError:
        pass


def test_huge_attribute_word_fails_range_check(tmp_path):
    # an id word of 2**63 or more reads as a negative int64, which
    # from_flat's range check rejects like any other id outside [0, m)
    inc = BipartiteIncidence.from_sets(2, 50, [[1, 7], [9]])
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, 0.5, 1.0, seed=0)
    blob = bytearray(path.read_bytes())
    for value in (2**63, 2**64 - 1):
        blob[-8:] = value.to_bytes(8, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(GraphFormatError, match=r"attribute ids must lie in \[0, m\)"):
            read_graph(path)


def test_binary_read_holds_one_copy_of_the_ids(tmp_path):
    # the id words are read straight into one int64 array, which is packed
    # into the incidence's keys in place, with no second copy beside it
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    inc, _ = generate(params, trial_rng(1, n, 0))
    path = tmp_path / "g.rig"
    write_graph(path, inc.m, inc.set_indptr, inc.set_attrs, params.alpha, params.c0, seed=1)
    size = inc.keys.nbytes
    del inc
    tracemalloc.start()
    try:
        read_graph(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * size


def test_binary_write_holds_no_copy_of_the_ids(tmp_path):
    # the int64 arrays' own buffers go to the file, and their bytes are the
    # u64 words of the format.  The vertex-major view is derived before
    # tracing starts, so that the traced region holds the writer alone and
    # not the sort that derives the ids from the keys.
    n = 100_000
    params = ModelParams(n=n, m=default_attribute_count(n), alpha=0.8, c0=1.0)
    inc, _ = generate(params, trial_rng(1, n, 0))
    ids = inc.set_attrs
    path = tmp_path / "g.rig"
    tracemalloc.start()
    try:
        write_graph(path, inc.m, inc.set_indptr, ids, params.alpha, params.c0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * ids.nbytes
    body = path.read_bytes()[48:]
    assert body == (inc.sizes().astype("<u8").tobytes() + ids.astype("<u8").tobytes())


@pytest.mark.parametrize("fmt", ["binary", "json"])
@pytest.mark.parametrize("indptr,ids", [
    ([1, 2, 3], [4, 5]),  # the row pointer starts at 1
    ([0, 2, 3], [4, 5]),  # it ends past the ids
    ([0, 1, 1], [4, 5]),  # it ends short of them
], ids=["start", "past-end", "short-end"])
def test_write_rejects_a_row_pointer_off_the_ids(tmp_path, fmt, indptr, ids):
    # a file whose size words do not add up to its ids would not read back
    path = tmp_path / "g.rig"
    with pytest.raises(ValueError, match="set_indptr"):
        write_graph(path, 10, np.array(indptr), np.array(ids), 0.5, 1.0, seed=0, fmt=fmt)
    assert not path.exists()
