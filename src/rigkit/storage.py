"""Graph persistence.

Binary format v2 (extension-agnostic, magic-sniffed), the incidence's
vertex-major view:

    header, 48 bytes, little-endian:
        magic   4s   b"RIGB"
        version u32  2
        n       u64
        m       u64
        alpha   f64
        c0      f64
        seed    u64  master seed of the run that wrote the file
    body, all u64 little-endian:
        n set sizes, one per vertex in id order;
        then every vertex's attribute ids back to back, strictly increasing
        within each vertex.

The reader checks the header against the file length (from fstat) before
it allocates anything, and reads each block straight into its final array
without a per-vertex loop or a copy of the file's bytes: the size words
into the tail of the instance's row pointer, where they are checked against
the file length and then summed in place, and the ids into the array that
becomes the keys.  The range and order checks of the ids are left to
BipartiteIncidence.from_flat's pack walk; every failure is a
GraphFormatError, version 1 included.  from_flat packs the checked ids in
place into the sorted attr * n + vertex keys that every instance is held in
(graphgen), so a binary file reads back with the one array of its ids and
its row pointer, and no other array of the ids' or the vertices' length.
The instance read is full; a Trial shrinks it to its shared entries
(graphgen's keep_core).  The writers take the file's own layout, a row
pointer and the vertex-major ids (an incidence's set_indptr and set_attrs),
and write those arrays as they are.  hashlib, which loads OpenSSL, is
imported only by file_checksum, so a graph read does not load it.

A JSON mirror ({"format": "rig-json", "version": 1, ...}) covers small
graphs where a readable artifact matters more than compactness.  Its reader
takes n, m, seed and the set entries only as JSON integers, never as
booleans, floats or strings, with the seed in [0, 2**64) as in the binary
header, and alpha and c0 only as numbers.

A file reads back as the instance it stores: (incidence, params, seed),
with params a ModelParams.  Neither format stores the latent weight draws,
and this module applies no weight rule: the Trial that loads a graph
derives realized normalized weights from its set sizes, so layer
decompositions of a reloaded graph can differ marginally from those of the
in-memory instance that wrote it.
"""

from __future__ import annotations

import itertools
import json
import os
import struct

import numpy as np

from .graphgen import BipartiteIncidence
from .model import ModelParams

__all__ = [
    "GraphFormatError",
    "write_graph",
    "read_graph",
    "file_checksum",
]

MAGIC = b"RIGB"
VERSION = 2
JSON_VERSION = 1
_HEADER = struct.Struct("<4sIQQddQ")


class GraphFormatError(ValueError):
    """Raised on malformed or truncated graph files."""


def write_graph(path, m: int, set_indptr: np.ndarray, ids: np.ndarray,
                alpha: float, c0: float, seed: int, fmt: str = "binary") -> None:
    """Persist an instance with its model parameters; fmt binary or json.

    The instance is given in the file's layout: vertex v's attribute ids,
    strictly increasing, are ids[set_indptr[v]:set_indptr[v + 1]], and n is
    len(set_indptr) - 1.  A row pointer that does not start at 0 or end at
    len(ids) raises ValueError before the file is opened.
    """
    if set_indptr[0] != 0 or len(ids) != set_indptr[-1]:
        raise ValueError(f"set_indptr runs {set_indptr[0]}..{set_indptr[-1]}, "
                         f"not 0..{len(ids)} over the ids")
    if fmt == "binary":
        _write_binary(path, m, set_indptr, ids, alpha, c0, seed)
    elif fmt == "json":
        _write_json(path, m, set_indptr, ids, alpha, c0, seed)
    else:
        raise ValueError(f"unknown graph format {fmt!r}")


def read_graph(path):
    """Load a graph file of either format as (incidence, params, seed)."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return _read_binary(path)
    if head[:1] == b"{":
        return _read_json(path)
    raise GraphFormatError(f"{path}: not a graph file (bad magic)")


def _write_binary(path, m, set_indptr, ids, alpha, c0, seed):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(set_indptr) - 1, m, float(alpha),
                              float(c0), int(seed)))
        # the words are non-negative, so their little-endian int64 bytes are
        # the u64 bytes: a little-endian host writes the arrays' own buffers
        fh.write(np.ascontiguousarray(np.diff(set_indptr), dtype="<i8"))
        fh.write(np.ascontiguousarray(ids, dtype="<i8"))


def _read_binary(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise GraphFormatError(f"{path}: truncated header")
        magic, version, n, m, alpha, c0, seed = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise GraphFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise GraphFormatError(f"{path}: unsupported version {version}")
        if (size - _HEADER.size) % 8:
            raise GraphFormatError(f"{path}: body is not a whole number of words")
        params = _checked_params(path, n, m, alpha, c0)
        words = (size - _HEADER.size) // 8
        # every vertex needs its size word; checked before allocating
        if n > words:
            raise GraphFormatError(
                f"{path}: header claims {n} vertices but the body holds {words} words")

        # the size words go straight into the row pointer's tail, where
        # _from_row_sizes sums them in place; they are checked as u64 words
        set_indptr = np.empty(n + 1, dtype="<i8")
        _read_into(path, fh, set_indptr[1:])
        sizes = set_indptr[1:].view("<u8")
        num_ids = words - n
        # Clipping each size at num_ids + 1 keeps the running totals exact up
        # to the first vertex whose list would run past the end of the body.
        ends = np.cumsum(np.minimum(sizes, num_ids + 1).astype(np.int64))
        over = np.flatnonzero(ends > num_ids)
        if over.size:
            v = int(over[0])
            left = num_ids - (int(ends[v - 1]) if v else 0)
            raise GraphFormatError(
                f"{path}: vertex {v} claims {int(sizes[v])} attributes but only "
                f"{left} words are left")
        if ends[-1] != num_ids:
            raise GraphFormatError(f"{path}: {num_ids - int(ends[-1])} trailing words")
        # every size is now at most num_ids < 2**61, so its u64 word reads
        # the same as an int64 word
        del ends, over, sizes
        # Read as signed words: an id of 2**63 or more comes out negative
        # and fails the range check of the pack walk, as its int64 cast would.
        ids = np.empty(num_ids, dtype="<i8")
        _read_into(path, fh, ids)
    try:
        # both arrays are this reader's own: the row pointer is summed in
        # place, and the ids are packed in place into the keys
        return (BipartiteIncidence._from_row_sizes(n, m, set_indptr, ids), params,
                seed)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc


def _read_into(path, fh, out):
    """Fill out with the next little-endian words of fh."""
    if fh.readinto(out) != out.nbytes:
        raise GraphFormatError(f"{path}: file ended early")


def _checked_params(path, n, m, alpha, c0) -> ModelParams:
    """The stored header fields as model parameters, which must be valid
    (n >= 1, m >= 1, alpha in (0, 1), c0 > 0)."""
    try:
        return ModelParams(n=n, m=m, alpha=alpha, c0=c0)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: bad header ({exc})") from exc


def _write_json(path, m, set_indptr, ids, alpha, c0, seed):
    doc = {
        "format": "rig-json",
        "version": JSON_VERSION,
        "n": len(set_indptr) - 1,
        "m": int(m),
        "alpha": float(alpha),
        "c0": float(c0),
        "seed": int(seed),
        "sets": [ids[a:b].tolist() for a, b in zip(set_indptr[:-1], set_indptr[1:])],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


# (key, accepted types, description) of the scalar fields.  The checks use
# type(), not isinstance(): JSON true and false load as bool, a subclass of
# int, and a float or a string must not pass for an integer either.
_JSON_FIELDS = (("n", (int,), "an integer"), ("m", (int,), "an integer"),
                ("seed", (int,), "an integer"), ("alpha", (int, float), "a number"),
                ("c0", (int, float), "a number"))


def _read_json(path):
    # ValueError covers invalid JSON, invalid UTF-8 and integer literals past
    # Python's digit limit; RecursionError, deeply nested arrays
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise GraphFormatError(f"{path}: invalid JSON ({exc})") from exc
    if doc.get("format") != "rig-json":
        raise GraphFormatError(f"{path}: not a rig-json document")
    if doc.get("version") != JSON_VERSION:
        raise GraphFormatError(f"{path}: unsupported version {doc.get('version')}")
    fields = {}
    for key, kinds, what in _JSON_FIELDS:
        if key not in doc:
            raise GraphFormatError(f"{path}: missing field {key!r}")
        if type(doc[key]) not in kinds:
            raise GraphFormatError(f"{path}: field {key!r} must be {what}, "
                                   f"got {doc[key]!r}")
        fields[key] = float(doc[key]) if float in kinds else doc[key]
    if not 0 <= fields["seed"] < 2**64:
        raise GraphFormatError(f"{path}: field 'seed' must lie in [0, 2**64), "
                               f"got {fields['seed']}")
    params = _checked_params(path, fields["n"], fields["m"], fields["alpha"],
                             fields["c0"])
    n, m, sets = params.n, params.m, doc.get("sets")
    if type(sets) is not list or any(type(s) is not list for s in sets):
        raise GraphFormatError(f"{path}: field 'sets' must be a list of lists")
    if len(sets) != n:
        raise GraphFormatError(f"{path}: expected {n} sets, found {len(sets)}")
    kinds = set(map(type, itertools.chain.from_iterable(sets)))
    if kinds - {int}:
        raise GraphFormatError(f"{path}: field 'sets' must hold integers only, "
                               f"found {sorted(k.__name__ for k in kinds - {int})}")
    try:
        inc = BipartiteIncidence.from_sets(n, m, sets)
    except (ValueError, TypeError, OverflowError) as exc:
        raise GraphFormatError(f"{path}: bad set data ({exc})") from exc
    return inc, params, fields["seed"]


def file_checksum(path) -> str:
    """sha256 hex digest of a file's bytes."""
    # imported here: hashlib loads OpenSSL, several MB of resident memory
    # that no graph read needs
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
