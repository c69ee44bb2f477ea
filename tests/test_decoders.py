"""The shared decode path: checks it makes before any solver runs."""

import re

import numpy as np
import pytest

from flowsketch import DecodeSpec, decode, graph, lp, pmle
from flowsketch.decoders import DECODERS


def _refuse(*args, **kwargs):
    raise AssertionError("a solver ran on counters decode should reject")


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("index,value,message", [
    (3, np.nan, "counter 3 is nan"),
    (5, np.inf, "counter 5 is inf"),
    (0, -1.0, "counter 0 is -1.0"),
    (None, None, "shape (19,)"),
])
def test_decode_rejects_bad_counters(small_expander, monkeypatch, decoder,
                                     index, value, message):
    for mod, name in [(lp, "basis_pursuit"), (graph, "greedy_cover"),
                      (pmle, "localize_whales"), (pmle, "pmle_exhaustive"),
                      (pmle, "pmle_reduced")]:
        monkeypatch.setattr(mod, name, _refuse)
    g = small_expander
    y = np.full(g.n_right, 2.0)
    if index is None:
        y = y[:-1]
    else:
        y[index] = value
    spec = DecodeSpec(decoder, k=2, l0=8.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        decode(g, y, 30, 1.0, spec)
