"""numpy's seeding and its PCG64 uniform draws, without ``numpy.random``.

``seed_state`` is a pure-Python port of ``numpy.random.SeedSequence(entropy,
spawn_key=...).generate_state(n, numpy.uint64)`` (O'Neill's seed_seq design
as numpy implements it), and ``Pcg64`` is a numpy-vectorized port of
``numpy.random.Generator(PCG64(SeedSequence(...)))``: its successive
``random(n)`` calls return the same float64 bits as numpy's. Both keep the
package off ``numpy.random``, whose first import costs about 5 MB of RSS and
7-12 ms.

PCG64 (O'Neill, HMC-CS-2014-0905, 2014) steps a 128-bit LCG ``s -> a s + c``
and outputs the XSL-RR permutation of each new state. ``Pcg64`` computes a
block of states at once from the jump-ahead identity (Brown, "Random number
generation with arbitrary strides", 1994)

    s_j = s + d * G_j,   d = (a - 1) s + c,   G_j = 1 + a + ... + a^(j-1),

with ``G`` one table shared by every generator, built from its recurrence
``G_(j+1) = a G_j + 1`` in Python ints on the first draw. 128-bit values
are split over two uint64 arrays (high, low word), and all wrapping
arithmetic is uint64 array expressions. Only ``numpy.uint64`` constants,
made from Python ints, meet a uint64 array, never a Python int; and a numpy
scalar is an operand only on the right of an array or an argument of a
ufunc (``np.subtract(_U64, rot)``, not ``_U64 - rot``). numpy 1.x turns a
uint64 scalar and a Python int into a float64, on which shifts and masks
fail, and a product of two numpy scalars warns on overflow.
"""

from __future__ import annotations

from operator import index as as_index

import numpy as np

#: numpy's ``SeedSequence`` constants: pool words, hash and mix multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

#: PCG64's LCG multiplier, and the 64- and 128-bit word masks.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
#: States computed per vectorized step; the jump table has this many entries.
_BLOCK = 4096

_U32, _U58, _U64, _U11 = (np.uint64(k) for k in (32, 58, 64, 11))
_LOW32 = np.uint64(_MASK32)
_UNIT = np.float64(2.0**-53)


def _words32(value) -> list[int]:
    """A non-negative integer's 32-bit words, least significant first."""
    value = as_index(value)  # TypeError for a float, a str or None
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def seed_state(entropy: int, spawn_key, n: int = 1) -> list[int]:
    """``numpy.random.SeedSequence(entropy, spawn_key=spawn_key)
    .generate_state(n, numpy.uint64)`` as a list of Python integers.

    Computed with Python integers as numpy does: the entropy's 32-bit words
    padded to the pool of 4, then each spawn-key element's words; the first
    4 are hashed into the pool, every pool word is mixed into every other,
    and the rest are mixed in one by one. The output words take the same
    hash from its own constants and are joined little-endian. (numpy pads
    only when there is a spawn key, but an unpadded pool is filled with the
    hash of 0, which is the same.) A negative entropy or key element is a
    ValueError and a non-integer one a TypeError, as in numpy.
    """
    words = _words32(entropy)
    words += [0] * (_POOL_SIZE - len(words))
    for key in spawn_key:
        words += _words32(key)
    pool, const = [], _INIT_A
    for word in words[:_POOL_SIZE]:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_SIZE):  # every pool word into every other
        const = _absorb(pool, pool[src], const, skip=src)
    for word in words[_POOL_SIZE:]:
        const = _absorb(pool, word, const)
    const = _INIT_B
    out = []
    for k in range(2 * n):
        value, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
        out.append(value)
    return [out[k] | out[k + 1] << 32 for k in range(0, 2 * n, 2)]


def _hashmix(value: int, const: int, mult: int = _MULT_A) -> tuple[int, int]:
    """numpy's ``hashmix`` of ``value`` under the running hash constant
    ``const``: the hashed value and the next constant."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _absorb(pool: list[int], word: int, const: int, skip: int = -1) -> int:
    """Mix ``word`` into every pool word but ``pool[skip]`` (numpy's ``mix``
    of the pool word and the hashed word); returns the next constant."""
    for dst in range(_POOL_SIZE):
        if dst == skip:
            continue
        value, const = _hashmix(word, const)
        value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * value) & _MASK32
        pool[dst] = value ^ value >> 16
    return const


def _affine(table, m: int, mult: int, add: int):
    """The high and low words of ``(add + mult * G_j) mod 2**128`` for the
    first ``m`` table entries ``G_j``, as two new uint64 arrays.

    The table's rows hold each entry's high word H and low word L. With
    ``mult`` and ``add`` split the same way, the low word is ``L*ML + AL``
    and the high word is ``L*MH + H*ML + AH`` plus the high word of
    ``L*ML + AL``. That carry comes from four 32-bit partial products of
    L's and ML's halves: each, plus two 32-bit terms, still fits in 64 bits.
    """
    high, low = table[:, :m]
    low0, low1 = low & _LOW32, low >> _U32
    # split as Python ints, so that no numpy scalar meets a Python int
    mh, ml, ah, al = divmod(mult, 1 << 64) + divmod(add, 1 << 64)
    ml0, ml1, al0, al1 = (np.uint64(v) for v in (ml & _MASK32, ml >> 32, al & _MASK32, al >> 32))
    mh, ml, ah, al = (np.uint64(v) for v in (mh, ml, ah, al))
    column = low1 * ml0 + ((low0 * ml0 + al0) >> _U32) + al1  # the 2**32 column, with its carry
    carry = (column >> _U32) + ((low0 * ml1 + (column & _LOW32)) >> _U32)
    return carry + low1 * ml1 + ah + low * mh + high * ml, low * ml + al


_table = None  # built on the first draw


def _jump_table():
    """The table ``G_1 .. G_BLOCK``, from ``G_1 = 1`` and ``G_(j+1) = a G_j + 1``
    in Python ints, as two uint64 rows: the high words, then the low words."""
    global _table
    if _table is None:
        g, high, low = 1, [], []
        for _ in range(_BLOCK):
            high.append(g >> 64)
            low.append(g & _MASK64)
            g = (_MULT * g + 1) & _MASK128
        _table = np.array([high, low], np.uint64)
    return _table


class Pcg64:
    """numpy's ``Generator(PCG64(SeedSequence(seed, spawn_key=spawn_key)))``
    as far as ``random(n)``: successive calls return the same float64 arrays.

    Seeded as numpy seeds PCG64: ``seed_state(seed, spawn_key, 4)`` gives the
    initial state (words 0 and 1) and the stream (words 2 and 3), and
    ``srandom`` steps twice.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, spawn_key):
        s_high, s_low, i_high, i_low = seed_state(seed, spawn_key, 4)
        self._inc = inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        self._state = ((inc + (s_high << 64 | s_low)) * _MULT + inc) & _MASK128

    def random(self, n: int) -> np.ndarray:
        """``n`` uniform doubles in [0, 1): each the top 53 bits of one
        XSL-RR output, times 2**-53."""
        out = np.empty(n)
        if n == 0:
            return out
        table = _jump_table()
        s = self._state
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            hi, lo = _affine(table, m, ((_MULT - 1) * s + self._inc) & _MASK128, s)
            s = int(hi[-1]) << 64 | int(lo[-1])
            # XSL-RR: the state's two words xor-ed, rotated right by its top
            # 6 bits. At rotation 0 the left shift is by 64, which numpy
            # defines as 0; a count masked to 0 instead would give the same x
            rot, x = hi >> _U58, hi ^ lo
            x = (x >> rot) | (x << np.subtract(_U64, rot))
            np.multiply(x >> _U11, _UNIT, out=out[start:start + m])
        self._state = s
        return out
