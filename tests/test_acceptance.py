"""Release gate: ten go/no-go checks with pinned seeds and tolerances.

Each test prints one PASS/FAIL line through conftest.record_gate; the
lines are echoed in the terminal summary after the run. Thresholds are
calibrated against the recorded seeds and must not be loosened without
recording why.
"""

import dataclasses
import math
import tempfile
import time
from pathlib import Path

import numpy as np

from flowsketch import (
    GraphConstructionError,
    Observation,
    PmleConfig,
    SignalSpec,
    StreamState,
    basis_pursuit,
    build_graph_with_cover,
    build_random_expander,
    direct_estimate,
    gen_rates,
    greedy_cover,
    localize_whales,
    pmle_exhaustive,
    pmle_reduced,
    run_epochs,
    verify_expansion,
)
from flowsketch.experiment import ExperimentConfig, PmleOptions, run_sweep
from flowsketch.seeds import stable_seed
from flowsketch.stream import Dist

from conftest import EXPANDER_SEEDS_200_60_6, record_gate
from helpers import (apply_adjacency, counters_consistent, grid_config, kraft_audit,
                     oracle_2sparse)

CONST1 = Dist("constant", 1.0)
ZERO = Dist("constant", 0.0)
GAUSS1 = Dist("abs-gaussian", 1.0)
TINY = Dist("abs-gaussian", 1e-6)


def test_ac1_counter_consistency():
    g = build_random_expander(1000, 200, 6, 11)
    rates = gen_rates(SignalSpec(n_flows=1000, k=10, whale_dist=CONST1,
                                 minnow_dist=Dist("abs-gaussian", 1e-3),
                                 seed=12))
    state = StreamState(graph=g, rates=rates, tau=1.0, seed=13)
    t0 = time.perf_counter()
    exact = True
    for _ in range(1000):
        run_epochs(state, 1)
        if not counters_consistent(state):
            exact = False
            break
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 10.0
    assert record_gate(
        "AC1 counter-consistency", ok,
        f"1000 epochs exact={exact} elapsed={elapsed:.2f}s (cap 10s)")


def test_ac2_expansion_witness():
    t0 = time.perf_counter()
    hits = 0
    subsets = None
    for seed in EXPANDER_SEEDS_200_60_6:
        g = build_random_expander(200, 60, 6, seed)
        rep = verify_expansion(g, 2, 0.25)
        subsets = rep.subsets_tested
        hits += rep.is_expander
    elapsed = time.perf_counter() - t0
    # exhaustive means every |S| <= 2: 200 singletons + C(200,2) pairs
    ok = hits >= 1 and subsets == 200 + 19900 and elapsed < 30.0
    assert record_gate(
        "AC2 expansion-witness", ok,
        f"{hits}/16 seeds pass (2, 1/4) check, {subsets} subsets each, "
        f"elapsed={elapsed:.2f}s (cap 30s)")


def test_ac3_exact_sparse_recovery(small_expander):
    g = small_expander
    results = {}
    for label, dist in (("constant", CONST1), ("abs-gaussian", GAUSS1)):
        good = 0
        worst = 0.0
        for s in range(100):
            truth = gen_rates(SignalSpec(
                n_flows=50, k=2, whale_dist=dist, minnow_dist=ZERO,
                seed=stable_seed(303, s))).rates
            y = apply_adjacency(g, truth)
            est = basis_pursuit(Observation(g, y, 1, 1.0)).u
            err = float(np.abs(est - truth).sum())
            oracle_err = float(np.abs(oracle_2sparse(g, y) - truth).sum())
            worst = max(worst, err)
            good += err <= 1e-4 and oracle_err <= 1e-8
        results[label] = (good, worst)
    ok = all(good >= 95 for good, _ in results.values())
    assert record_gate(
        "AC3 exact-recovery", ok,
        " ".join(f"{lab}: {good}/100 (worst err {worst:.2e})"
                 for lab, (good, worst) in results.items()) + ", need >=95")


def test_ac4_risk_slope():
    ns = (10, 40, 160, 640)
    risks = []
    for n in ns:
        errs = []
        for t in range(30):
            ts = stable_seed(404, n, t)
            g = build_random_expander(500, 120, 6, stable_seed(ts, "g"))
            rv = gen_rates(SignalSpec(n_flows=500, k=5, whale_dist=CONST1,
                                      minnow_dist=ZERO,
                                      seed=stable_seed(ts, "s")))
            st = StreamState(graph=g, rates=rv, tau=1.0,
                             seed=stable_seed(ts, "st"))
            run_epochs(st, n)
            obs = Observation(g, st.y, n, 1.0)
            est = direct_estimate(basis_pursuit(obs), obs)
            errs.append(float(np.abs(est - rv.rates).sum()))
        risks.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(ns), np.log(risks), 1)[0])
    ok = abs(slope + 0.5) <= 0.15
    assert record_gate(
        "AC4 risk-slope", ok,
        f"slope={slope:.4f} (want -0.5 +- 0.15), risks="
        + ",".join(f"{r:.4f}" for r in risks))


def test_ac5_localization():
    subset_ok = size_ok = 0
    for t in range(100):
        ts = stable_seed(505, t)
        g = build_random_expander(5000, 800, 8, stable_seed(ts, "g"))
        rv = gen_rates(SignalSpec(n_flows=5000, k=10, whale_dist=CONST1,
                                  minnow_dist=TINY, seed=stable_seed(ts, "s")))
        st = StreamState(graph=g, rates=rv, tau=1.0, seed=stable_seed(ts, "st"))
        run_epochs(st, 40)
        loc = localize_whales(Observation(g, st.y, 40, 1.0), 10)
        subset_ok += bool(np.isin(rv.whale_support, loc.a1).all())
        size_ok += loc.a1.size <= 80

    sizes = (10**3, 10**4, 10**5)
    med_times = []
    for n in sizes:
        g = build_random_expander(n, 256, 8, stable_seed(506, n))
        rv = gen_rates(SignalSpec(n_flows=n, k=10, whale_dist=CONST1,
                                  minnow_dist=TINY, seed=stable_seed(507, n)))
        st = StreamState(graph=g, rates=rv, tau=1.0, seed=stable_seed(508, n))
        run_epochs(st, 40)
        reps = []
        for _ in range(31):
            t0 = time.perf_counter()
            localize_whales(Observation(g, st.y, 40, 1.0), 10)
            reps.append(time.perf_counter() - t0)
        med_times.append(float(np.median(reps)))
    work = np.log([n * 8 for n in sizes])
    slope = float(np.polyfit(work, np.log(med_times), 1)[0])

    ok = subset_ok >= 95 and size_ok >= 95 and abs(slope - 1.0) <= 0.2
    assert record_gate(
        "AC5 localization", ok,
        f"whales kept {subset_ok}/100, |A1|<=80 {size_ok}/100 (need >=95), "
        f"time slope {slope:.3f} (want 1.0 +- 0.2)")


def test_ac6_kraft_audit():
    small = [  # (candidate set, universe, largest support audited)
        (grid_config(1.0, 99, 1, "uniform"), np.array([0]), None),
        (grid_config(0.5, 4, 20), np.arange(20), 2),
        (grid_config(0.5, 5, 12), np.arange(12), None),
    ]
    audits = []
    for cfg, universe, max_support in small:
        audits.append(kraft_audit(cfg, universe, max_support))  # candidate-by-candidate
        audits.append(kraft_audit(cfg, universe, max_support,
                                  exhaustive_cap=0))  # counting formula
    large = [
        grid_config(0.25, 64, 5000),
        grid_config(0.05, 1024, 5000, "uniform"),
    ]
    audits.extend(kraft_audit(cfg, np.arange(5000)) for cfg in large)
    exhaustive_used = sum(a.exhaustive for a in audits)
    worst = max(a.total for a in audits)
    ok = all(a.ok for a in audits)
    assert record_gate(
        "AC6 kraft-audit", ok,
        f"{len(audits)} audits ({exhaustive_used} exhaustive), "
        f"worst total-1 = {worst - 1.0:.1e} (float slack only)")


def test_ac7_oracle_equivalence():
    qualified = matched = 0
    s = 0
    while qualified < 100 and s < 400:
        ts = stable_seed(707, s)
        s += 1
        g = build_random_expander(12, 8, 3, stable_seed(ts, "g"))
        try:
            cover = greedy_cover(g)
        except GraphConstructionError:
            continue  # a counter no flow reaches: no cover, so no instance
        truth = gen_rates(SignalSpec(n_flows=12, k=2, whale_dist=CONST1,
                                     minnow_dist=ZERO,
                                     seed=stable_seed(ts, "s")))
        st = StreamState(graph=g, rates=truth, tau=1.0,
                         seed=stable_seed(ts, "st"))
        run_epochs(st, 60)
        cfg = dataclasses.replace(
            PmleConfig.from_problem(12, 2, l0=2.5, levels=5), c=0.01)
        obs = Observation(g, st.y, 60, 1.0)
        full = pmle_exhaustive(obs, cfg, np.arange(12), cover)
        loc = localize_whales(obs, 2)
        if not np.isin(truth.whale_support, loc.a1).all():
            continue
        if full.support and not np.isin(np.array(full.support), loc.a1).all():
            continue
        qualified += 1
        red = pmle_reduced(obs, loc, cfg, cover)
        matched += red.support == full.support and red.levels == full.levels
    ok = qualified == 100 and matched == 100
    assert record_gate(
        "AC7 oracle-equivalence", ok,
        f"{matched}/{qualified} qualifying instances match (need 100/100, "
        f"scanned {s} seeds)")


def test_ac8_speed_separation():
    t_direct, t_reduced = [], []
    for t in range(10):
        ts = stable_seed(808, t)
        g, cover, _ = build_graph_with_cover(5000, 800, 8, stable_seed(ts, "g"))
        rv = gen_rates(SignalSpec(n_flows=5000, k=10, whale_dist=CONST1,
                                  minnow_dist=TINY, seed=stable_seed(ts, "s")))
        st = StreamState(graph=g, rates=rv, tau=1.0, seed=stable_seed(ts, "st"))
        run_epochs(st, 40)
        cfg = PmleConfig.from_problem(5000, 10, l0=1.25 * rv.l1(), levels=64)
        t0 = time.perf_counter()
        obs = Observation(g, st.y, 40, 1.0)
        direct_estimate(basis_pursuit(obs), obs)
        t_direct.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        obs = Observation(g, st.y, 40, 1.0)
        loc = localize_whales(obs, 10)
        pmle_reduced(obs, loc, cfg, cover)
        t_reduced.append(time.perf_counter() - t0)
    md, mr = float(np.mean(t_direct)), float(np.mean(t_reduced))
    ratio = mr / md
    ok = ratio <= 0.1
    assert record_gate(
        "AC8 speed-separation", ok,
        f"reduced {mr * 1e3:.2f}ms vs direct {md * 1e3:.2f}ms, "
        f"ratio {ratio:.4f} (need <=0.1)")


def test_ac9_figure_trends():
    direct_cfg = ExperimentConfig(
        n_flows=5000, n_counters=400, degree=8, epochs=40, tau=1.0,
        sweep=(10, 200), trials=10, whale_dist=CONST1, minnow_dist=TINY,
        decoders=("direct",), root_seed=909)
    p = {a.k: a.success_prob for a in run_sweep(direct_cfg).aggregates}
    diff = p[10] - p[200]

    pmle_cfg = ExperimentConfig(
        n_flows=5000, n_counters=800, degree=8, epochs=40, tau=1.0,
        sweep=(40, 100), trials=30, whale_dist=GAUSS1, minnow_dist=TINY,
        decoders=("pmle-reduced",), root_seed=910,
        pmle=PmleOptions(gamma=0.01, levels=1024, penalty_mode="uniform"))
    q = {a.k: a.success_prob for a in run_sweep(pmle_cfg).aggregates}

    ok = diff >= 0.3 and q[100] < q[40]
    assert record_gate(
        "AC9 figure-trends", ok,
        f"direct p(10)={p[10]:.2f} p(200)={p[200]:.2f} diff={diff:.2f} "
        f"(need >=0.3); pmle p(40)={q[40]:.2f} p(100)={q[100]:.2f} "
        f"(need p(100)<p(40))")


def test_ac10_property_suite():
    import test_experiment
    import test_metrics
    import test_pmle
    import test_stream

    t0 = time.perf_counter()
    test_metrics.test_clip_contraction_toward_nonneg()
    test_metrics.test_best_k_term_matches_brute_force()
    test_stream.test_marginal_law()
    test_stream.test_aggregation_law()
    test_pmle.test_scale_equivariance_uniform()
    with tempfile.TemporaryDirectory() as td:
        test_experiment.test_rerun_identical_row_bytes(Path(td))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 900.0
    assert record_gate(
        "AC10 property-suite", ok,
        f"clip contraction, best-k vs brute, Poisson moments, scale "
        f"equivariance, byte-identical sweeps: all green in {elapsed:.1f}s "
        f"(cap 900s)")
