"""Banked once, before the hand-written runtimes go: on every declared
(format, path) pair, at both index widths, :class:`LevelRuntime` — read
from ``storage()`` — and the format's hand-written ``PathRuntime`` agree on
every step's interval, ``(keys, state)`` sequence, on ``search`` for every
key tuple of a grid reaching past both ends of the matrix, and on every
value read and written.  Deleted with the classes it compares against."""

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats import as_format
from repro.formats.base import LevelRuntime
from tests.conftest import at_width
from tests.test_loopir_differential import declared_paths

PAIRS = declared_paths()


def compare(hand, level, step=0, prefix=()):
    """Both runtimes under one prefix; returns the leaves visited."""
    if step == len(hand.path.steps):
        assert level.get(prefix) == hand.get(prefix)
        hand.set(prefix, hand.get(prefix) + 1.0)     # one array behind both
        assert level.get(prefix) == hand.get(prefix)
        level.set(prefix, level.get(prefix) - 1.0)
        assert level.get(prefix) == hand.get(prefix)
        return 1
    assert level.interval(step, prefix) == hand.interval(step, prefix)
    entries = list(hand.enumerate(step, prefix))
    assert list(level.enumerate(step, prefix)) == entries
    naxes = len(hand.path.steps[step].names)
    for keys in itertools.product(range(-3, 9), repeat=naxes):
        assert level.search(step, prefix, keys) == \
            hand.search(step, prefix, keys), (step, prefix, keys)
    return sum(compare(hand, level, step + 1, prefix + (state,))
               for _, state in entries)


@st.composite
def cases(draw):
    width = draw(st.sampled_from([np.int32, np.int64]))
    m, n = draw(st.sampled_from([2, 4, 6])), draw(st.sampled_from([2, 4, 6]))
    cells = draw(st.lists(st.integers(-2, 3), min_size=m * n, max_size=m * n))
    return width, np.array(cells, dtype=float).clip(0).reshape(m, n)


LEAVES = {pair: 0 for pair in PAIRS}


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(cases())
def test_level_runtime_equals_every_hand_written_runtime(case):
    width, a = case
    assert len(PAIRS) == 13
    for name, path_id in PAIRS:
        b = a
        if name == "sym":
            k = min(a.shape)
            b = np.tril(a[:k, :k]) + np.tril(a[:k, :k], -1).T
        kwargs = {"block_size": 2} if name == "bsr" else {}
        fmt = at_width(as_format(b, name, **kwargs), width)
        hand = fmt.runtime(path_id)
        assert type(hand) is not LevelRuntime
        level = LevelRuntime(fmt, fmt.path(path_id), fmt.storage(path_id))
        LEAVES[name, path_id] += compare(hand, level)


def test_every_pair_read_values():
    """Runs after the wall (file order): no pair was compared on empty
    matrices only."""
    assert all(LEAVES.values()), LEAVES
