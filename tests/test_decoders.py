"""The shared decode path: checks it makes before any solver runs."""

import re

import numpy as np
import pytest

from flowsketch import (DecodeSpec, Dist, SignalSpec, StreamState,
                        build_random_expander, decode, gen_rates, graph, lp,
                        pmle, run_epochs)
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


@pytest.mark.parametrize("decoder", ["pmle-exhaustive", "pmle-reduced"])
def test_decode_refuses_a_cover_outside_the_graph(small_expander, monkeypatch,
                                                 decoder):
    # a negative flow index would alias flow N + index
    for mod, name in [(pmle, "_argmin"), (pmle, "sparse_poisson_solve")]:
        monkeypatch.setattr(mod, name, _refuse)
    g = small_expander
    cover = graph.greedy_cover(g).copy()
    cover[0] -= g.n_left  # the alias of cover[0], still sorted
    with pytest.raises(ValueError, match="cover must hold sorted, distinct flows"):
        decode(g, np.full(g.n_right, 2.0), 30, 1.0,
               DecodeSpec(decoder, k=2, l0=2.0, levels=2), cover=cover)


def test_pmle_reduced_decode_calls_each_layer_through_its_module(monkeypatch):
    # The benchmark times each layer by wrapping these module attributes,
    # so a decode that bypasses one would drop that layer's time. At the
    # README size with k=3, A1 holds 3 flows and is enumerated.
    calls = []
    for mod, name in [(graph, "greedy_cover"), (pmle, "localize_whales"),
                      (pmle, "pmle_reduced"), (pmle, "pmle_exhaustive")]:
        def counted(*args, _orig=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    g = build_random_expander(5000, 800, 8, seed=1)
    truth = gen_rates(SignalSpec(5000, 3, Dist("constant", 1.0),
                                 Dist("abs-gaussian", 1e-6), seed=2))
    state = StreamState(graph=g, rates=truth, tau=1.0, seed=3)
    run_epochs(state, 40)
    dec = decode(g, state.y, 40, 1.0,
                 DecodeSpec("pmle-reduced", k=3, l0=1.25 * truth.l1()))
    assert sorted(calls) == ["greedy_cover", "localize_whales",
                             "pmle_exhaustive", "pmle_reduced"]
    assert dec.result.exhaustive and dec.result.localization.a1.size == 3
