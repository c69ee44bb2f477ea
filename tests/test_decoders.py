"""The shared decode path: checks it makes before any solver runs."""

import dataclasses
import re

import numpy as np
import pytest

from flowsketch import (DecodeSpec, Dist, Observation, SignalSpec, StreamState,
                        build_random_expander, decode, decoders, gen_rates,
                        graph, lp, pmle, run_epochs, stream)
from flowsketch.decoders import DECODERS
from flowsketch.experiment import ExperimentConfig, run_trial


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
        decode(Observation(g, y, 30, 1.0), spec)


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
        decode(Observation(g, np.full(g.n_right, 2.0), 30, 1.0),
               DecodeSpec(decoder, k=2, l0=2.0, levels=2), cover=cover)


@pytest.mark.parametrize("decoder", ["pmle-exhaustive", "pmle-reduced"])
def test_decode_refuses_a_fractional_cover(small_expander, monkeypatch, decoder):
    # truncated, cover + 0.9 would decode as the cover itself
    for mod, name in [(pmle, "_argmin"), (pmle, "sparse_poisson_solve")]:
        monkeypatch.setattr(mod, name, _refuse)
    g = small_expander
    with pytest.raises(ValueError, match="cover must hold sorted, distinct flows"):
        decode(Observation(g, np.full(g.n_right, 2.0), 30, 1.0),
               DecodeSpec(decoder, k=2, l0=2.0, levels=2),
               cover=graph.greedy_cover(g) + 0.9)


def _readme_observation(whales):
    """The README's simulate run with this many whales, as decode reads
    it, and its rates."""
    g = build_random_expander(5000, 800, 8, seed=1)
    truth = gen_rates(SignalSpec(5000, whales, Dist("constant", 1.0),
                                 Dist("abs-gaussian", 1e-6), seed=2))
    state = StreamState(graph=g, rates=truth, tau=1.0, seed=3)
    run_epochs(state, 40)
    return Observation(g, state.y, 40, 1.0), truth


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
    obs, truth = _readme_observation(3)
    dec = decode(obs, DecodeSpec("pmle-reduced", k=3, l0=1.25 * truth.l1()))
    assert sorted(calls) == ["greedy_cover", "localize_whales",
                             "pmle_exhaustive", "pmle_reduced"]
    assert dec.result.exhaustive and dec.result.localization.a1.size == 3


@pytest.mark.parametrize("k,l0,checked", [
    (3, 4.0, ["universe", "cover"]),  # A1 enumerated
    (10, 15.0, ["cover", "support"]),  # A1 solved
])
def test_a_pmle_reduced_decode_checks_each_flow_array_once(monkeypatch, k, l0,
                                                          checked):
    # the README's two pmle-reduced runs: the flow rule holds the cover
    # once and A1 once, as the universe enumerated or the solve's support
    calls = []
    check_flows = pmle._check_flows

    def counted(g, flows, what, cfg=None):
        calls.append(what)
        return check_flows(g, flows, what, cfg)

    monkeypatch.setattr(pmle, "_check_flows", counted)
    obs, _ = _readme_observation(k)
    dec = decode(obs, DecodeSpec("pmle-reduced", k=k, l0=l0))
    assert calls == checked
    assert dec.result.exhaustive == (k == 3)


def test_observation_holds_a_read_only_copy_of_the_counters(small_expander):
    g = small_expander
    for y in (np.arange(g.n_right), np.arange(g.n_right, dtype=np.float64)):
        obs = Observation(g, y, 40, 0.5)
        assert obs.y.dtype == np.float64 and not obs.y.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            obs.y[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.y = y
        y[:] = 7  # the caller's array, written after the observation
        assert obs.y.tolist() == list(range(g.n_right))
        assert obs.scale == 20.0


def _count_checks(monkeypatch):
    """Calls of the counters rule, whose one home is
    Observation.__post_init__, and of the window rule, as (epochs, least)
    pairs, from here on."""
    calls = {"counters": 0, "window": []}
    post_init, check_window = decoders.Observation.__post_init__, stream.check_window

    def counted_post_init(self):
        calls["counters"] += 1
        post_init(self)

    def counted_window(epochs, tau, least=1):
        calls["window"].append((epochs, least))
        check_window(epochs, tau, least)

    monkeypatch.setattr(decoders.Observation, "__post_init__", counted_post_init)
    monkeypatch.setattr(stream, "check_window", counted_window)
    return calls


@pytest.mark.parametrize("decoder", DECODERS)
def test_a_decode_checks_its_counters_and_its_window_once(small_expander,
                                                          monkeypatch, decoder):
    g = small_expander
    y = np.zeros(g.n_right)
    y[g.columns[[4, 31]]] = 30.0
    calls = _count_checks(monkeypatch)
    # levels=2 keeps pmle-exhaustive under its guard over 50 flows
    decode(Observation(g, y, 30, 1.0), DecodeSpec(decoder, k=2, l0=4.0, levels=2))
    assert calls == {"counters": 1, "window": [(30, 1)]}


def test_a_sweep_cell_checks_its_counters_and_its_window_once(monkeypatch):
    cfg = ExperimentConfig(
        n_flows=200, n_counters=60, degree=4, epochs=40, tau=1.0, sweep=(3,),
        trials=1, whale_dist=Dist("constant", 1.0),
        minnow_dist=Dist("abs-gaussian", 1e-6),
        decoders=("direct", "pmle-reduced"), root_seed=5)
    calls = _count_checks(monkeypatch)
    rows = run_trial(cfg, 3, 0)
    assert [r.note for r in rows] == ["", ""]
    # the stream checks its own window as it starts and as it runs; both
    # decoders read one observation
    assert calls == {"counters": 1, "window": [(0, 0), (40, 0), (40, 1)]}
