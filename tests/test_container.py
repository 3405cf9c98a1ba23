"""The one layout of every cache artifact: round trips, alignment, and the
bytes it refuses."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bugloc import container

LAYOUT = container.Layout(b"bugloc-test v1\n", [
    ("names", container.STR), ("counts", "i4"), ("offsets", "i8"), ("weights", "f8")])


def encoded(**values):
    return b"".join(LAYOUT.encode({"names": [], "counts": [], "offsets": [], "weights": [],
                                   **values}))


@given(names=st.lists(st.text()), counts=st.lists(st.integers(-2 ** 31, 2 ** 31 - 1)),
       weights=st.lists(st.floats(allow_nan=False)))
def test_round_trip(names, counts, weights):
    got = LAYOUT.decode(encoded(names=names, counts=counts, offsets=counts, weights=weights))
    assert got["names"] == names
    assert got["counts"].tolist() == counts and got["offsets"].tolist() == counts
    assert got["weights"].tolist() == weights
    assert not got["weights"].flags.writeable


def test_strings_round_trip_any_str():
    names = ["a\nb", "", "é", "\ud800", "\udcff", "tab\there"]
    assert LAYOUT.decode(encoded(names=names))["names"] == names


@pytest.mark.parametrize("names", [
    ["alpha", "", "b", "gamma_delta"], ["alpha", "é", "", "日本"], ["a", "\ud800", "\udcff", ""]],
    ids=["ascii", "non_ascii", "lone_surrogates"])
def test_string_offsets_count_utf8_bytes(names):
    only = container.Layout(b"bugloc-test v1\n", [("names", container.STR)])
    header, count, record, offsets, blob, padding = only.encode({"names": names})
    sizes = [len(s.encode("utf-8", "surrogatepass")) for s in names]
    assert offsets.dtype == np.dtype("<i4") and offsets.tolist() == np.cumsum([0, *sizes]).tolist()
    assert blob == "".join(names).encode("utf-8", "surrogatepass")
    assert only.decode(b"".join([header, count, record, offsets, blob, padding]))["names"] == names


def test_arrays_start_8_byte_aligned():
    data = encoded(names=["abc"], counts=[1, 2, 3], offsets=[4], weights=[0.5, 1.5])
    base = np.frombuffer(data, np.uint8).ctypes.data
    for name in ("counts", "offsets", "weights"):
        assert (LAYOUT.decode(data)[name].ctypes.data - base) % 8 == 0
    assert len(data) % 8 == 0


@pytest.mark.parametrize("counts", [[2 ** 31], [-2 ** 31 - 1]])
def test_integer_that_does_not_fit_is_refused(counts):
    with pytest.raises(ValueError, match="does not fit"):
        LAYOUT.encode({"names": [], "counts": counts, "offsets": [], "weights": []})


@pytest.mark.parametrize("other", [
    container.Layout(b"bugloc-test v2\n", LAYOUT.arrays),
    container.Layout(LAYOUT.header, LAYOUT.arrays[:-1]),
    container.Layout(LAYOUT.header, [*LAYOUT.arrays[:-1], ("weights", "i8")]),
    container.Layout(LAYOUT.header, [*LAYOUT.arrays[:-1], ("weight", "f8")])],
    ids=["other_version", "fewer_arrays", "other_dtype", "other_name"])
def test_other_layout_is_refused(other):
    with pytest.raises(ValueError):
        other.decode(encoded(names=["x"], counts=[1], weights=[2.0]))
