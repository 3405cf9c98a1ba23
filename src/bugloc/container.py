"""The one on-disk layout of every cache artifact: a header line naming its
kind and version, NUL-padded to 8 bytes; the int64 number of arrays; a table
of one (name: 16 bytes, dtype code: 8 bytes, both NUL-padded; length: int64)
record per array; then the arrays in table order, little-endian, each
zero-padded to 8 bytes, so every array starts 8-byte aligned. An array of
code ``str`` holds strings as int32 byte offsets (one more than the strings)
then their UTF-8 text, lone surrogates passed through, so any ``str``
round-trips. A :class:`Layout` is an artifact kind: its header line and the
(name, dtype code) of its arrays.

:mod:`bugloc.cache` keeps every artifact in this layout as
``<kind>[_<project>].bin``: ``tokens``, ``index_local``, ``index_global``
and ``index_docvec``, of one layout (a project's direct scores and its
history-bridged scores under each policy), ``idf``, and ``dm`` and ``dbow``
models, which hold only what inference reads (terms, counts, ``W``, ``U``,
``b``). The header line is part of each artifact's fingerprint, so a
cache of an older layout rebuilds every artifact once, quietly."""

from __future__ import annotations

import struct

import numpy as np

STR = "str"
_DTYPES = {"i4": np.dtype("<i4"), "i8": np.dtype("<i8"), "f8": np.dtype("<f8")}
_OFFSETS = _DTYPES["i4"]
_COUNT = struct.Struct("<q")
_RECORD = struct.Struct("<16s8sq")


def _padding(size: int) -> bytes:
    return bytes(-size % 8)


def check_spans(offsets, indices, n_spans: int, bound: int, *aligned) -> None:
    """Raise ``ValueError`` unless ``offsets`` cut ``indices`` into
    ``n_spans`` spans (from 0, never decreasing, to the end), every index is
    in ``[0, bound)`` and every ``aligned`` array is as long as ``indices``."""
    if (n_spans < 0 or len(offsets) != n_spans + 1 or offsets[0] != 0
            or offsets[-1] != len(indices) or np.any(offsets[1:] < offsets[:-1])
            or (len(indices) and not 0 <= indices.min() <= indices.max() < bound)
            or any(len(a) != len(indices) for a in aligned)):
        raise ValueError("offsets, indices or lengths out of range")


def _decode_strings(data: bytes, start: int, count: int) -> tuple[list[str], int]:
    """The ``count`` strings stored at ``start``, and the bytes they take."""
    text = start + _OFFSETS.itemsize * (count + 1)
    if text > len(data):
        raise ValueError("string offsets cut short")
    ends = np.frombuffer(data, _OFFSETS, count + 1, start)
    bounds = ends.tolist()
    if bounds[0] != 0 or np.any(ends[1:] < ends[:-1]) or text + bounds[-1] > len(data):
        raise ValueError("string offsets out of range")
    blob, size = data[text:text + bounds[-1]], text - start + bounds[-1]
    whole = blob.decode("utf-8", "surrogatepass")
    if len(whole) != len(blob):  # not all ASCII: offsets count bytes, not characters
        return [blob[a:b].decode("utf-8", "surrogatepass")
                for a, b in zip(bounds, bounds[1:])], size
    return [whole[a:b] for a, b in zip(bounds, bounds[1:])], size


class Layout:
    """An artifact kind: its header line, ending in a newline, and the
    (name, dtype code) of its arrays in order; the codes are ``i4``,
    ``i8``, ``f8`` and ``str``."""

    def __init__(self, header: bytes, arrays: list[tuple[str, str]]):
        self.header, self.arrays = header, arrays
        self._records = [_RECORD.pack(name.encode(), code.encode(), 0)[:-8]
                         for name, code in arrays]  # each array's record but its length

    def encode(self, values: dict) -> list:
        """The buffers, in write order, of the artifact holding ``values``:
        per name, an array of any shape (stored flat) or a list of strings.
        ``ValueError`` for an integer that does not fit its dtype."""
        table, chunks = [], []
        for record, (name, code) in zip(self._records, self.arrays):
            if code == STR:
                strings, length = values[name], len(values[name])
                whole = "".join(strings)
                # all ASCII: every character is one byte, as _decode_strings assumes too
                sizes = (map(len, strings) if whole.isascii()
                         else (len(s.encode("utf-8", "surrogatepass")) for s in strings))
                value = np.cumsum([0, *sizes])
                parts = [value.astype(_OFFSETS), whole.encode("utf-8", "surrogatepass")]
            else:
                value = np.asarray(values[name]).reshape(-1)
                parts, length = [np.ascontiguousarray(value, dtype=_DTYPES[code])], len(value)
            if parts[0].dtype.kind == "i" and not np.array_equal(parts[0], value):
                raise ValueError(f"array {name} does not fit {code}")
            table.append(record + _COUNT.pack(length))
            chunks += [*parts, _padding(sum(memoryview(p).nbytes for p in parts))]
        return [self.header + _padding(len(self.header)), _COUNT.pack(len(table)), *table,
                *chunks]

    def decode(self, data: bytes) -> dict:
        """The arrays of an artifact in this layout, by name: read-only views
        of ``data``, or lists of strings. ``ValueError`` for bytes that are not
        exactly such an artifact."""
        prefix = self.header + _padding(len(self.header))
        if not data.startswith(prefix):
            raise ValueError(f"not a {self.header.decode('ascii').strip()} artifact")
        table = len(prefix) + _COUNT.size
        offset = table + _RECORD.size * len(self.arrays)
        if len(data) < offset or _COUNT.unpack_from(data, table - _COUNT.size)[0] != len(
                self.arrays):
            raise ValueError("array table cut short or of another layout")
        arrays = {}
        for record, (name, code) in zip(self._records, self.arrays):
            (length,) = _COUNT.unpack_from(data, table + len(record))
            if data[table:table + len(record)] != record or length < 0:
                raise ValueError(f"array {name} missing")
            table += _RECORD.size
            if code == STR:
                arrays[name], size = _decode_strings(data, offset, length)
            else:
                size = length * _DTYPES[code].itemsize
                if offset + size > len(data):
                    raise ValueError(f"array {name} cut short")
                arrays[name] = np.frombuffer(data, _DTYPES[code], length, offset)
            offset += size + -size % 8
        if offset != len(data):
            raise ValueError("trailing bytes after the last array")
        return arrays
