"""Fixed-width word packing of candidate-set bitmasks for pickling.

The in-process mask representation is an unbounded Python int.  Across
process boundaries — shard groups and compiled plans — a
``{key: int_mask}`` dict travels as a :class:`WordTable`: one contiguous
little-endian ``numpy.uint64`` array instead of thousands of re-serialised
bignums.  Tables are packed on the fly by the pickling hooks
of :class:`~repro.core.filters.FilterMatrices` and
:class:`~repro.core.plan.PreparedSearch` and unpacked on arrival; they are
never a second live storage.

Bit *i* of a mask lives in word ``i // 64``, bit ``i % 64`` — i.e. the word
array is exactly ``mask.to_bytes(..., "little")`` viewed as ``uint64``.  All
conversions are loss-free and round-trip exactly, including masks of zero
and masks whose top bit sits on a word boundary.

Everything here needs numpy (``HAVE_NUMPY``); without it the pickling hooks
ship the plain dicts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.constraints.vectorizer import HAVE_NUMPY, np

__all__ = [
    "WORD_BITS",
    "word_count",
    "pack_masks",
    "unpack_masks",
    "WordTable",
]

#: Bits per packed mask word.
WORD_BITS = 64
_WORD_BYTES = WORD_BITS // 8


def word_count(num_bits: int) -> int:
    """How many fixed-width words cover *num_bits* mask bits (at least one,
    so degenerate empty indexes still yield well-formed word arrays)."""
    return max(1, (num_bits + WORD_BITS - 1) // WORD_BITS)


def _require_numpy() -> None:
    if not HAVE_NUMPY:  # pragma: no cover - numpy is a baked-in dependency
        raise RuntimeError(
            "word-array mask packing requires numpy; "
            "install numpy or stay on the pure-int representation")


def pack_masks(masks: Sequence[int], num_words: int):
    """Stack many non-negative masks into one C-contiguous
    ``(len(masks), num_words)`` uint64 array (zero rows when *masks* is
    empty).

    Raises ``OverflowError`` for a negative mask or one that does not fit —
    a mask wider than its indexer is always a bug upstream, never something
    to truncate.
    """
    _require_numpy()
    if not masks:
        return np.zeros((0, num_words), dtype=np.uint64)
    raw = b"".join(mask.to_bytes(num_words * _WORD_BYTES, "little")
                   for mask in masks)
    out = np.frombuffer(raw, dtype=np.uint64).copy()
    return out.reshape(len(masks), num_words)


def unpack_masks(words) -> List[int]:
    """Inverse of :func:`pack_masks` — one int per row."""
    _require_numpy()
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    width = arr.shape[1] * _WORD_BYTES if arr.ndim == 2 else _WORD_BYTES
    raw = arr.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(arr.shape[0])]


class WordTable:
    """A keyed family of masks packed into one contiguous word array.

    ``keys[r]`` owns row ``r`` of ``words``.  Zero-valued masks keep their
    key — an empty candidate set is real information (an infeasible node),
    not an absent entry — so ``to_masks()`` round-trips the source dict
    exactly, including insertion order.
    """

    __slots__ = ("keys", "words")

    def __init__(self, keys: Tuple, words) -> None:
        self.keys = tuple(keys)
        self.words = words

    @classmethod
    def from_masks(cls, masks: Dict[object, int], num_bits: int) -> "WordTable":
        """Pack *masks*, each at most *num_bits* wide."""
        return cls(tuple(masks.keys()),
                   pack_masks(list(masks.values()), word_count(num_bits)))

    def to_masks(self) -> Dict[object, int]:
        """Rebuild the ``{key: int_mask}`` dict, order and zeros preserved."""
        return dict(zip(self.keys, unpack_masks(self.words)))

    # ------------------------------------------------------------------ #
    # Pickling: ship a private copy, never a view of the parent buffer
    # ------------------------------------------------------------------ #

    def __getstate__(self):
        # np.ascontiguousarray + copy guarantees the pickled payload owns
        # its memory even if self.words is a view into a larger buffer.
        return (self.keys, np.ascontiguousarray(self.words).copy())

    def __setstate__(self, state):
        keys, words = state
        self.keys = tuple(keys)
        self.words = words
