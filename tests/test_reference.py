"""Fixed-seed outputs against the stored references in tests/reference/.

Integers, strings, bits, edges and graph sizes must match exactly. Floats
match to a relative tolerance of 1e-12, so the check holds on machines
whose BLAS rounds differently but fails on any change to a draw, a stream
or a fit. tests/reference/record.py documents how to re-record.
"""

import json
import math
import os

import pytest

from reference import record

_REL = 1e-12


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("reference"))
    return record.make_inputs(d), d


def _mismatches(got, want, where="$"):
    """Where got differs from want, with floats compared to _REL."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=_REL) else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)} != {list(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", list(record.CASES))
def test_output_matches_reference(name, inputs):
    paths, d = inputs
    with open(record.path_of(name)) as fh:
        want = json.load(fh)
    bad = _mismatches(record.payload(name, paths, d), want)
    assert not bad, f"{len(bad)} differences, first: " + "; ".join(bad[:5])


def test_every_reference_file_has_a_case():
    stored = {f[:-5] for f in os.listdir(record.HERE) if f.endswith(".json")}
    assert stored == set(record.CASES)


def test_mismatches_compares_floats_relatively_and_the_rest_exactly():
    assert _mismatches({"a": [1.0, 2, "x"]}, {"a": [1.0 + 1e-15, 2, "x"]}) == []
    assert _mismatches([1.0], [1.0 + 1e-9]) != []
    assert _mismatches([0], [0.0]) != []  # an int that became a float
    assert _mismatches([True], [1]) != []
    assert _mismatches({"a": 1, "b": 2}, {"b": 2, "a": 1}) != []  # key order is output
