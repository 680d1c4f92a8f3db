"""Deterministic random-number handling.

Every stochastic component of the library (graph generators, seed sampling,
Monte Carlo walks) accepts either an integer seed, an existing
``numpy.random.Generator`` or ``None``.  :func:`ensure_rng` normalises the
three forms so call sites never touch global NumPy state.

:class:`PCG64Draws` serves the graph generators' scalar draws from the raw
PCG64 stream: the same values as the ``Generator`` methods, without a call
into NumPy per value.
"""

from __future__ import annotations

import math
from typing import Tuple, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]

#: Seed used when the caller passes ``None``.  Fixed so that "no seed" still
#: produces reproducible experiments, which the benchmark harness relies on.
DEFAULT_SEED = 20210421

#: Raw 64-bit words :class:`PCG64Draws` fetches at a time; bounds its buffer.
RAW_CHUNK = 4096

#: Low-half mask of a raw word, and the scale from 53 bits to a double.
MASK32 = 0xFFFFFFFF
DOUBLE_UNIT = 2.0**-53
_TWO32 = 1 << 32


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed form.

    Parameters
    ----------
    rng:
        ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an existing
        generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return np.random.default_rng(int(rng))
    raise TypeError(
        "rng must be None, an int seed or a numpy.random.Generator, "
        f"got {type(rng).__name__}"
    )


class PCG64Draws:
    """A PCG64 generator's scalar draws, decoded from its raw 64-bit stream.

    :meth:`random`, :meth:`integers` and :meth:`poisson` return, in call
    order, exactly what the same scalar calls on the ``numpy.random.Generator``
    would return (NumPy 2.x), but read words that
    ``PCG64.random_raw`` fetched :data:`RAW_CHUNK` at a time, so a value
    costs a few integer operations instead of a call into NumPy.  NEP 19 keeps
    the raw stream stable across NumPy versions, so anything built from these
    draws is pinned to it.

    Use it as a context manager (or call :meth:`close`): on exit the
    generator is left in exactly the state the native calls would have left,
    so it can go on drawing.  Do not draw from the generator itself while a
    reader is open on it.

    Parameters
    ----------
    rng:
        Anything :func:`ensure_rng` accepts; a ``Generator`` must be backed by
        ``PCG64`` (the only bit generator :func:`ensure_rng` builds), anything
        else raises ``TypeError``.
    """

    __slots__ = (
        "_bit_generator", "_start", "_words", "_pos", "_fetched", "_has_uint32", "_uinteger",
    )

    def __init__(self, rng: RngLike = None) -> None:
        bit_generator = ensure_rng(rng).bit_generator
        if type(bit_generator) is not np.random.PCG64:
            raise TypeError(
                f"PCG64Draws needs a PCG64 generator, got {type(bit_generator).__name__}"
            )
        self._bit_generator = bit_generator
        self._start = bit_generator.state
        self._words: list = []  # the current chunk, as Python ints
        self._pos = 0  # next unread word of the chunk
        self._fetched = 0  # words fetched so far, this chunk included
        # PCG64's buffered upper half of the last word a 32-bit draw split.
        self._has_uint32 = bool(self._start["has_uint32"])
        self._uinteger = int(self._start["uinteger"])

    def __enter__(self) -> "PCG64Draws":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Leave the generator in the state the native calls would have left."""
        bit_generator = self._bit_generator
        consumed = self._fetched - (len(self._words) - self._pos)
        bit_generator.state = self._start
        bit_generator.advance(consumed)  # also clears the 32-bit buffer
        state = bit_generator.state
        state["has_uint32"] = int(self._has_uint32)
        state["uinteger"] = self._uinteger
        bit_generator.state = state

    def refill(self) -> list:
        """Fetch the next chunk of raw words (as Python ints) and return it."""
        self._words = self._bit_generator.random_raw(RAW_CHUNK).tolist()
        self._fetched += RAW_CHUNK
        self._pos = 0
        return self._words

    def cursor(self) -> Tuple[list, int, bool, int]:
        """``(words, pos, has_uint32, uinteger)`` for a loop that decodes inline.

        The loop reads ``words[pos]`` as the methods do, calling
        :meth:`refill` when ``pos == len(words)``, and hands its position
        back through :meth:`seek` before the reader is used or closed again.
        """
        return self._words, self._pos, self._has_uint32, self._uinteger

    def seek(self, pos: int, has_uint32: bool, uinteger: int) -> None:
        """Take back a :meth:`cursor` position in the current chunk."""
        self._pos, self._has_uint32, self._uinteger = pos, has_uint32, uinteger

    def random(self) -> float:
        """``Generator.random()``: the word's top 53 bits scaled into [0, 1)."""
        pos, words = self._pos, self._words
        if pos == len(words):
            words, pos = self.refill(), 0
        self._pos = pos + 1
        return (words[pos] >> 11) * DOUBLE_UNIT

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` for ranges of at most ``2**32``.

        Lemire's multiply-shift on 32-bit draws, rejecting a product whose low
        half falls below ``(2**32 - n) % n``.  A 32-bit draw takes the low half
        of a fresh word and buffers its high half for the next one, as
        ``PCG64``'s ``next_uint32`` does; a one-value range draws nothing.
        """
        n = high - low
        if n == 1:
            return low
        if not 1 < n <= _TWO32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {n}")
        product = self._next_uint32() * n
        if product & MASK32 < n:  # NumPy's cheap pre-check; rejection is rarer still
            threshold = (_TWO32 - n) % n
            while product & MASK32 < threshold:
                product = self._next_uint32() * n
        return low + (product >> 32)

    def _next_uint32(self) -> int:
        """The buffered high half if there is one, else a fresh word's low half."""
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        pos, words = self._pos, self._words
        if pos == len(words):
            words, pos = self.refill(), 0
        self._pos = pos + 1
        word = words[pos]
        self._uinteger = word >> 32
        self._has_uint32 = True
        return word & MASK32

    def poisson(self, lam: float) -> int:
        """``Generator.poisson(lam)`` for ``0 <= lam < 10``.

        NumPy's multiplication method: multiply uniforms until the product
        falls to ``exp(-lam)``.  ``lam == 0`` draws nothing.
        """
        if not 0 < lam < 10:
            if lam == 0:
                return 0
            raise ValueError(f"poisson needs 0 <= lam < 10, got {lam}")
        limit = math.exp(-lam)
        count = 0
        product = 1.0
        pos, words = self._pos, self._words
        while True:
            if pos == len(words):
                words, pos = self.refill(), 0
            product *= (words[pos] >> 11) * DOUBLE_UNIT
            pos += 1
            if product <= limit:
                self._pos = pos
                return count
            count += 1
