"""The ports of numpy's SeedSequence and PCG64 against numpy itself."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revsched import rng

BLOCK = rng._BLOCK
SRC = Path(__file__).resolve().parent.parent / "src"

_seeds = st.integers(0, 2**64 - 1)
# one- and two-element spawn keys, with elements of one and of two 32-bit words
_keys = st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                 min_size=1, max_size=2).map(tuple)


def _numpy_generator(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _assert_same_draws(seed, key, sizes):
    port, numpy_gen = rng.Pcg64(seed, key), _numpy_generator(seed, key)
    for n in sizes:
        got, want = port.random(n), numpy_gen.random(n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (seed, key, n)


@given(seed=_seeds, key=_keys,
       sizes=st.lists(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]),
                      min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_successive_draws_equal_numpy(seed, key, sizes):
    _assert_same_draws(seed, key, sizes)


@given(seed=_seeds, key=_keys, sizes=st.lists(st.integers(0, 3 * BLOCK), min_size=2,
                                              max_size=4))
@settings(max_examples=30, deadline=None)
def test_draws_crossing_several_blocks_equal_numpy(seed, key, sizes):
    _assert_same_draws(seed, key, sizes + [2 * BLOCK + 7])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize("key", [(0,), (49,), (2**32 + 5,), (0, 0), (3, 2), (2**40, 2**64 - 1)])
def test_edge_seeds_equal_numpy(seed, key):
    _assert_same_draws(seed, key, [1, BLOCK + 1, 5])


@given(seed=st.one_of(_seeds, st.integers(2**64, 2**200)),
       key=st.lists(st.integers(0, 2**100), max_size=3).map(tuple), n=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_seed_state_equals_numpy_generate_state(seed, key, n):
    want = np.random.SeedSequence(seed, spawn_key=key).generate_state(n, np.uint64)
    assert rng.seed_state(seed, key, n) == [int(v) for v in want]


@pytest.mark.parametrize("args, error", [((-1, (0,)), ValueError), ((0, (-1,)), ValueError),
                                         ((1.0, (0,)), TypeError), ((0, (2.5,)), TypeError),
                                         (("1", ()), TypeError), ((None, (0,)), TypeError)])
def test_seed_state_refuses_a_negative_or_non_integer_argument(args, error):
    with pytest.raises(error):
        rng.seed_state(*args)


def test_the_jump_table_is_built_on_the_first_draw():
    # not at import, and not by seeding: CTMC campaigns never draw from it
    script = ("from revsched import rng\ng = rng.Pcg64(0, (1, 2))\nassert rng._table is None\n"
              "g.random(0)\nassert rng._table is None\ng.random(1)\n"
              "assert rng._table is not None")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def _strict(scalar_type):
    """A subclass of a numpy scalar type on which every Python operator fails."""
    def refuse(self, other=None):
        raise TypeError(f"a Python operator on the numpy scalar {self!r}")
    ops = ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow",
           "lshift", "rshift", "and", "or", "xor")
    methods = {f"__{side}{op}__": refuse for op in ops for side in ("", "r")}
    methods.update(__neg__=refuse, __invert__=refuse)
    return type(f"Strict{scalar_type.__name__}", (scalar_type,), methods)


class _StrictNumpy:
    """numpy, but its ``uint64`` and ``float64`` scalars refuse Python operators."""
    uint64, float64 = _strict(np.uint64), _strict(np.float64)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x applies its own promotion rules to every test here")
def test_no_python_operator_meets_a_numpy_scalar(monkeypatch):
    # numpy 1.x promotes a uint64 scalar and a Python int to float64, where
    # shifts and masks fail; numpy 2 does not, so the port is run with
    # scalars that refuse every operator, from the table build on
    strict = _StrictNumpy()
    monkeypatch.setattr(rng, "np", strict)
    monkeypatch.setattr(rng, "_table", None)
    for name, value in list(vars(rng).items()):
        if isinstance(value, (np.uint64, np.float64)):
            monkeypatch.setattr(rng, name, getattr(strict, type(value).__name__)(value))
    _assert_same_draws(2**64 - 1, (2**40, 3), [1, BLOCK + 1, 5])
    assert rng._table is not None
