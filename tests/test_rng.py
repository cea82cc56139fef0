import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kestenlab.rng import substream


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.lists(st.integers(min_value=0, max_value=1000), max_size=3))
@settings(max_examples=50, deadline=None)
def test_substream_is_deterministic(seed, key):
    a = substream(seed, *key).random(8)
    b = substream(seed, *key).random(8)
    assert np.array_equal(a, b)


def test_substreams_are_distinct():
    draws = {tuple(substream(7, k).random(4)) for k in range(20)}
    assert len(draws) == 20


def test_substream_order_independent():
    # children can be constructed in any order without changing their draws
    first = substream(3, 5).random(4)
    _ = substream(3, 9).random(4)
    again = substream(3, 5).random(4)
    assert np.array_equal(first, again)

