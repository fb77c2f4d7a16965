"""Flattened typemaps: the byte-segment layout of one datatype element.

MPI defines a datatype by its *typemap* — a sequence of (basic type,
displacement) pairs.  For movement purposes only the byte coverage
matters, so we flatten to sorted, coalesced ``(offset, length)``
segments.  :class:`GatherPlan` compiles the segment list, once per
datatype, into the word-index arrays the pack engine gathers and
scatters through.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class TypeSegment:
    """A half-open byte range ``[offset, offset+length)`` of true data
    within one element extent."""

    offset: int
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError(f"segment length must be positive, got {self.length}")
        if self.offset < 0:
            raise ValueError(f"segment offset must be >= 0, got {self.offset}")

    @property
    def end(self) -> int:
        """One past the last byte of the segment."""
        return self.offset + self.length

    def shifted(self, delta: int) -> "TypeSegment":
        """The same segment displaced by *delta* bytes."""
        return TypeSegment(self.offset + delta, self.length)


class Typemap:
    """An immutable, sorted, coalesced sequence of :class:`TypeSegment`.

    Overlapping input segments are rejected: an MPI typemap never maps
    two basic components onto the same byte of a single element.
    """

    __slots__ = ("segments", "ub")

    def __init__(self, segments: Iterable[TypeSegment]):
        ordered = sorted(segments)
        coalesced: list[TypeSegment] = []
        for seg in ordered:
            if coalesced and seg.offset < coalesced[-1].end:
                raise ValueError(
                    f"overlapping typemap segments: {coalesced[-1]} and {seg}")
            if coalesced and seg.offset == coalesced[-1].end:
                prev = coalesced.pop()
                coalesced.append(TypeSegment(prev.offset,
                                             prev.length + seg.length))
            else:
                coalesced.append(seg)
        if not coalesced:
            raise ValueError("typemap must contain at least one segment")
        self.segments: tuple[TypeSegment, ...] = tuple(coalesced)
        #: Upper bound: one past the last byte of true data (a slot,
        #: read per message by every span computation).
        self.ub: int = coalesced[-1].end

    def __iter__(self) -> Iterator[TypeSegment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Typemap) and self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    @property
    def size(self) -> int:
        """Total bytes of true data in one element."""
        return sum(s.length for s in self.segments)

    @property
    def lb(self) -> int:
        """Lower bound: offset of the first byte of true data."""
        return self.segments[0].offset

    @property
    def span(self) -> int:
        """Bytes from lower to upper bound (>= size; == size iff dense)."""
        return self.ub - self.lb

    def is_contiguous(self) -> bool:
        """True when the element is one dense segment starting at 0."""
        return len(self.segments) == 1 and self.segments[0].offset == 0

    def replicate(self, count: int, stride_bytes: int) -> "Typemap":
        """Typemap of *count* copies of this map placed every
        *stride_bytes* bytes — the core of the vector constructor."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        out: list[TypeSegment] = []
        for k in range(count):
            delta = k * stride_bytes
            out.extend(seg.shifted(delta) for seg in self.segments)
        return Typemap(out)

    def shifted(self, delta: int) -> "Typemap":
        """The whole map displaced by *delta* bytes."""
        return Typemap(seg.shifted(delta) for seg in self.segments)

    def merged(self, other: "Typemap") -> "Typemap":
        """Union of two non-overlapping maps (struct constructor)."""
        return Typemap((*self.segments, *other.segments))

    def granule(self, extent: int) -> int:
        """The widest word — 8, 4, 2 or 1 bytes — that divides *extent*
        and every segment offset and length, so that elements placed
        *extent* bytes apart can be moved as whole words."""
        g = gcd(extent, 8)
        for seg in self.segments:
            g = gcd(g, seg.offset, seg.length)
        return g

    def word_offsets(self, granule: int) -> np.ndarray:
        """Every true-data offset of one element in *granule*-byte
        words, ascending, built from the segments (O(segments) Python,
        O(size / granule) numpy).  *granule* must divide every segment
        offset and length (see :meth:`granule`)."""
        spans = np.array([(s.offset, s.length) for s in self.segments],
                         dtype=np.intp) // granule
        offs, lens = spans[:, 0], spans[:, 1]
        # Word j of the packed element belongs to the segment whose
        # packed range [first, first+len) holds j; it sits at
        # offset + (j - first).
        first = np.cumsum(lens) - lens
        return np.repeat(offs - first, lens) + np.arange(
            int(lens.sum()), dtype=np.intp)

    def byte_offsets(self) -> Sequence[int]:
        """Every true-data byte offset of one element, ascending.

        The per-byte definition of the layout, O(size) in Python: the
        oracle the tests hold :class:`GatherPlan` against.
        """
        out: list[int] = []
        for seg in self.segments:
            out.extend(range(seg.offset, seg.end))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"({s.offset},{s.length})" for s in self.segments)
        return f"Typemap[{inner}]"


class GatherPlan:
    """A datatype's layout compiled for the pack engine.

    Everything that depends on the type alone is derived here, once
    (at ``MPI_Type_commit``): the granule — the widest word all of the
    layout is a multiple of — and the word offsets of one element.
    ``index(count, granule)`` replicates them over *count* extents into
    the ``intp`` array ``pack`` gathers through and ``unpack`` scatters
    through.  One index per granule is kept, covering the largest count
    asked for so far; a smaller count is a prefix of it, so a receive
    that completes short builds nothing.

    Parameters
    ----------
    typemap / extent:
        The element layout and the spacing of consecutive elements.
    """

    __slots__ = ("granule", "_elem", "_extent", "_ub", "_built")

    def __init__(self, typemap: Typemap, extent: int):
        #: Bytes per word of the widest index this layout allows.
        self.granule = typemap.granule(extent)
        self._elem = typemap.word_offsets(self.granule)
        self._elem.setflags(write=False)    # handed out as the index
        self._extent = extent
        self._ub = typemap.ub
        # granule -> (count covered, index, first overlapping count)
        self._built: dict[int, tuple[int, np.ndarray, Optional[int]]] = {
            self.granule: (1, self._elem, None)}

    def index(self, count: int, granule: int) -> tuple[np.ndarray, bool]:
        """Word index of *count* elements in *granule*-byte words, and
        whether two of those elements cover the same word (a layout
        that may be gathered from but not scattered into).

        *granule* is the plan's own or a power of two below it, for a
        buffer whose base address is not aligned to the plan's.
        """
        built = self._built.get(granule)
        if built is None or built[0] < count:
            built = self._built[granule] = self._build(count, granule)
        covered, idx, overlap_from = built
        if covered != count:
            idx = idx[: count * (idx.size // covered)]
        return idx, overlap_from is not None and count >= overlap_from

    def _build(self, count: int, granule: int):
        elem = self._elem
        split = self.granule // granule
        if split > 1:
            elem = (elem[:, None] * split
                    + np.arange(split, dtype=np.intp)).reshape(-1)
        starts = np.arange(count, dtype=np.intp) * (self._extent // granule)
        idx = (starts[:, None] + elem).reshape(-1)
        idx.setflags(write=False)           # shared by every caller
        # Elements can only share a word when the next one starts
        # before this one's last byte.  Positions are element-major, so
        # among equal words (stable sort) the later position says from
        # which count on the collision is inside the index.
        overlap_from = None
        if count > 1 and self._extent < self._ub:
            order = np.argsort(idx, kind="stable")
            ranked = idx[order]
            later = order[1:][ranked[1:] == ranked[:-1]]
            if later.size:
                overlap_from = int(later.min()) // elem.size + 1
        return count, idx, overlap_from
