"""Keyed counter-based draws: Philox4x64-10 in vectorized numpy.

:class:`~repro.common.randomness.SeedSequenceFactory` streams are
*sequential*: a draw depends on every draw made before it on the same
generator, and building one generator costs tens of microseconds.  A
counter-based generator has neither property.  Philox4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11) maps a
128-bit key and a 256-bit counter to four 64-bit words with a keyed
bijection, so a draw is a pure function of *(key, counter)*: any
process can compute any agent's draws for any step, in any order, for
a whole block of agents in one array pass.

:func:`philox4x64` is bit-identical to Random123's ``philox4x64_10``
and to :class:`numpy.random.Philox`, except that numpy increments its
counter *before* generating, so ``Philox(key=k, counter=c)`` emits
``philox4x64(c + 1, k)`` first (the tests pin both).

Keys and counters are laid out by :func:`keyed_uniforms` as::

    key     = (root key, agent index)
    counter = (draw block, step, stream tag, 0)

The draw block is the lowest counter word, so the blocks of one
``(agent, step, stream)`` are consecutive numpy ``Philox`` output.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = ["box_muller", "keyed_uniforms", "keyed_words", "philox4x64"]

_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
#: Philox4x64 round multipliers and Weyl key increments (Random123)
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = _U64(0x9E3779B97F4A7C15)
_W1 = _U64(0xBB67AE8584CAA73B)
_ROUNDS = 10
#: 2**-53: a 64-bit word's top 53 bits as a double in [0, 1)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0

_Words = Union[int, np.ndarray]


def _mulhi(a: np.ndarray, m: int) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * m`` (Hacker's Delight
    ``mulhu`` over 32-bit halves; every partial sum fits in 64 bits)."""
    m_lo = _U64(m & 0xFFFFFFFF)
    m_hi = _U64(m >> 32)
    a_lo = a & _LO32
    a_hi = a >> _SHIFT32
    t = a_lo * m_lo
    t >>= _SHIFT32
    t += a_hi * m_lo
    carry = t >> _SHIFT32
    t &= _LO32
    t += a_lo * m_hi
    t >>= _SHIFT32
    t += carry
    t += a_hi * m_hi
    return t


def philox4x64(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of uint64 *counter* ``(..., 4)`` under *key* ``(..., 2)``.

    Shapes broadcast; the result is ``(..., 4)`` uint64.
    """
    counter = np.asarray(counter, dtype=_U64)
    key = np.asarray(key, dtype=_U64)
    shape = np.broadcast_shapes(counter.shape[:-1], key.shape[:-1], (1,))
    # Counter lanes span the full shape; key lanes stay at their own
    # (broadcastable) shape.  Every operand is an array, never a numpy
    # scalar, so uint64 arithmetic wraps silently instead of warning.
    c0, c1, c2, c3 = (
        np.broadcast_to(counter[..., i], shape).copy() for i in range(4)
    )
    k0, k1 = (np.array(key[..., i], dtype=_U64, ndmin=1) for i in range(2))
    m0, m1 = _U64(_M0), _U64(_M1)
    for i in range(_ROUNDS):
        if i:
            k0 += _W0
            k1 += _W1
        hi0 = _mulhi(c0, _M0)
        hi1 = _mulhi(c2, _M1)
        hi0 ^= c3
        hi0 ^= k1
        hi1 ^= c1
        hi1 ^= k0
        c0, c1, c2, c3 = hi1, c2 * m1, hi0, c0 * m0
    out = np.stack((c0, c1, c2, c3), axis=-1)
    return out.reshape(
        np.broadcast_shapes(counter.shape[:-1], key.shape[:-1]) + (4,)
    )


def keyed_words(
    root: int, index: _Words, step: int, stream: int, blocks: int
) -> np.ndarray:
    """Raw uint64 draws ``(n, 4 * blocks)``, one row per agent *index*.

    Row *i* holds draw blocks ``0 .. blocks-1`` of agent ``index[i]``
    at (*step*, *stream*) under *root*: a pure function of those five
    values, whatever else the call computes.
    """
    agents = np.atleast_1d(np.asarray(index, dtype=_U64))
    n = len(agents)
    # Block-major lanes: the per-agent key word broadcasts along the
    # contiguous axis, which numpy's inner loops handle fastest.
    key = np.empty((1, n, 2), dtype=_U64)
    key[0, :, 0] = _U64(root)
    key[0, :, 1] = agents
    counter = np.zeros((blocks, 1, 4), dtype=_U64)
    counter[:, 0, 0] = np.arange(blocks, dtype=_U64)
    counter[:, 0, 1] = _U64(step)
    counter[:, 0, 2] = _U64(stream)
    words = philox4x64(counter, key)  # (blocks, n, 4)
    return words.transpose(1, 0, 2).reshape(n, 4 * blocks)


def keyed_uniforms(
    root: int, index: _Words, step: int, stream: int, blocks: int
) -> np.ndarray:
    """:func:`keyed_words` as doubles in ``[0, 1)`` (53-bit, numpy's
    ``Generator.random`` conversion)."""
    words = keyed_words(root, index, step, stream, blocks)
    return (words >> _U64(11)).astype(np.float64) * _DOUBLE_UNIT


def box_muller(u1: np.ndarray, u2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Two independent standard normals per pair of ``[0, 1)`` uniforms.

    ``1 - u1`` lies in ``(0, 1]``, so the logarithm is always finite.
    Inputs are made contiguous first: the ufunc then takes the same
    inner loop whatever the block size, so a row's value never depends
    on how many rows share the call.
    """
    radius = np.sqrt(-2.0 * np.log(np.ascontiguousarray(1.0 - u1)))
    theta = (2.0 * np.pi) * np.ascontiguousarray(u2)
    return radius * np.cos(theta), radius * np.sin(theta)
