"""Sweep orchestration, CSV persistence, and plot emission tests."""

import csv
import json
import math

import numpy as np
import pytest

from flowsketch import Dist
from flowsketch.experiment import (
    ExperimentConfig,
    ExperimentResult,
    PmleOptions,
    TrialRow,
    emit_csv,
    emit_plot_data,
    load_config,
    load_csv,
    run_sweep,
    save_config,
)

CONST1 = Dist("constant", 1.0)
MINNOW = Dist("abs-gaussian", 1e-3)


def tiny_cfg(**over):
    base = dict(
        n_flows=10, n_counters=8, degree=2, epochs=4, tau=1.0,
        sweep=(1,), trials=1, whale_dist=CONST1, minnow_dist=MINNOW,
        decoders=("direct",), root_seed=100,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(trials=0)
    with pytest.raises(ValueError):
        tiny_cfg(sweep=())
    with pytest.raises(ValueError):
        tiny_cfg(decoders=("omp",))
    with pytest.raises(ValueError):
        tiny_cfg(epochs=0)


def test_config_json_round_trip(tmp_path):
    cfg = tiny_cfg(sweep=(1, 2), decoders=("direct", "pmle-reduced"),
                   pmle=PmleOptions(gamma=0.5, levels=32))
    p = tmp_path / "cfg.json"
    save_config(cfg, p)
    assert load_config(p) == cfg
    bad = json.loads(p.read_text())
    bad["schema_version"] = 999
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(bad)


def test_single_row_sweep():
    res = run_sweep(tiny_cfg())
    assert len(res.rows) == 1 and len(res.aggregates) == 1
    row, agg = res.rows[0], res.aggregates[0]
    assert (row.k, row.decoder) == (1, "direct")
    assert agg.n_trials == 1
    assert agg.success_prob == (1.0 if row.success else 0.0)
    assert agg.mean_rel_error == row.rel_l1_error
    assert math.isnan(agg.rel_half_width)  # one trial has no band


def test_rerun_identical_row_bytes(tmp_path):
    cfg = tiny_cfg(sweep=(1, 2), trials=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(cfg), a)
    emit_csv(run_sweep(cfg), b)
    assert a.read_bytes() == b.read_bytes()
    # timings differ run to run; they live in a sidecar, not the row file
    with open(a) as f:
        assert "wall_time" not in f.readline()
    with open(tmp_path / "a.timings.csv") as f:
        assert f.readline().strip() == "k,trial,decoder,wall_time_s"


def test_csv_round_trip(tmp_path):
    cfg = tiny_cfg(sweep=(1, 3), trials=2)
    res = run_sweep(cfg)
    p = tmp_path / "res.csv"
    emit_csv(res, p)
    back = load_csv(p)  # load re-derives and cross-checks aggregates
    assert len(back.rows) == len(res.rows)
    for r0, r1 in zip(res.rows, back.rows):
        assert (r0.k, r0.trial, r0.decoder) == (r1.k, r1.trial, r1.decoder)
        assert r0.success == r1.success
        assert r0.rel_l1_error == r1.rel_l1_error
        assert r0.abs_l1_error == r1.abs_l1_error
        assert r0.counter_hash == r1.counter_hash
        assert r0.wall_time_s == r1.wall_time_s  # via the timings sidecar


def test_aggregate_tampering_detected(tmp_path):
    res = run_sweep(tiny_cfg(trials=2))
    p = tmp_path / "res.csv"
    emit_csv(res, p)
    agg_path = tmp_path / "res.agg.csv"
    lines = agg_path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = "0.123"  # success_prob no longer matches the rows
    agg_path.write_text(lines[0] + "\n" + ",".join(cells) + "\n")
    with pytest.raises(ValueError):
        load_csv(p)


def test_empty_result_header_only(tmp_path):
    p = tmp_path / "empty.csv"
    emit_csv(ExperimentResult.from_rows([]), p)
    text = p.read_text().splitlines()
    assert len(text) == 1 and text[0].startswith("k,trial,decoder,success")
    back = load_csv(p)
    assert back.rows == [] and back.aggregates == []


def test_hand_built_rows_aggregate(tmp_path):
    p = tmp_path / "hand.csv"
    with open(p, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["k", "trial", "decoder", "success", "rel_l1_error",
                    "rel_is_absolute", "abs_l1_error", "a1_size",
                    "whales_in_a1", "counter_hash", "note"])
        w.writerow([1, 0, "direct", 1, "1.0", 0, "2.0", -1, "", "aaaa", ""])
        w.writerow([1, 1, "direct", 0, "3.0", 0, "6.0", -1, "", "bbbb", ""])
    back = load_csv(p)
    agg = back.aggregates[0]
    assert agg.n_trials == 2
    assert agg.success_prob == 0.5
    assert abs(agg.success_half_width - 1.96 * math.sqrt(0.25 / 2)) < 1e-12
    assert agg.mean_rel_error == 2.0
    assert abs(agg.rel_half_width - 1.96) < 1e-12
    assert agg.mean_abs_error == 4.0


def test_decoder_failure_recorded_not_raised():
    # exhaustive enumeration blows the candidate guard at this size; the
    # sweep keeps going and the row carries the exception note
    cfg = tiny_cfg(n_flows=100, n_counters=30, degree=3,
                   decoders=("direct", "pmle-exhaustive"))
    res = run_sweep(cfg)
    by_dec = {r.decoder: r for r in res.rows}
    assert len(res.rows) == 2
    assert "CandidateCountError" in by_dec["pmle-exhaustive"].note
    assert not by_dec["pmle-exhaustive"].success
    assert math.isnan(by_dec["pmle-exhaustive"].rel_l1_error)
    assert by_dec["direct"].note == ""


def test_counter_hash_shared_across_decoders():
    cfg = tiny_cfg(n_flows=30, n_counters=12, degree=3, epochs=20,
                   decoders=("direct", "pmle-reduced"), trials=2)
    res = run_sweep(cfg)
    for t in (0, 1):
        hashes = {r.counter_hash for r in res.rows if r.trial == t}
        assert len(hashes) == 1


def test_pmle_reduced_rows_record_localization():
    cfg = tiny_cfg(n_flows=30, n_counters=12, degree=3, epochs=20,
                   decoders=("pmle-reduced",))
    res = run_sweep(cfg)
    row = res.rows[0]
    assert row.a1_size >= 0
    assert row.whales_in_a1 in (True, False)


def test_workers_match_serial():
    cfg = tiny_cfg(sweep=(1, 2), trials=2, n_flows=20, n_counters=10,
                   degree=2, epochs=8)
    serial = run_sweep(cfg)
    parallel = run_sweep(cfg, workers=2)
    key = lambda r: (r.k, r.trial, r.decoder, r.success, r.rel_l1_error,
                     r.abs_l1_error, r.counter_hash, r.note)
    assert [key(r) for r in serial.rows] == [key(r) for r in parallel.rows]


def test_plot_data(tmp_path):
    cfg = tiny_cfg(sweep=(1, 2, 3), trials=2)
    res = run_sweep(cfg)
    for metric in ("success", "rel_error", "time"):
        p = tmp_path / f"{metric}.dat"
        emit_plot_data(res, metric, p)
        lines = p.read_text().splitlines()
        assert lines[0] == f"# metric: {metric}"
        assert lines[1] == "# k direct"
        body = [ln.split() for ln in lines[2:]]
        assert [int(r[0]) for r in body] == [1, 2, 3]
        if metric == "success":
            assert all(0.0 <= float(r[1]) <= 1.0 for r in body)
    with pytest.raises(ValueError):
        emit_plot_data(res, "latency", tmp_path / "x.dat")


def test_single_point_plot_series(tmp_path):
    res = run_sweep(tiny_cfg())
    p = tmp_path / "one.dat"
    emit_plot_data(res, "success", p)
    assert len(p.read_text().splitlines()) == 3


def test_direct_decode_time_grows_with_n():
    small = run_sweep(tiny_cfg(n_flows=100, n_counters=30, degree=3, epochs=8))
    large = run_sweep(tiny_cfg(n_flows=2000, n_counters=600, degree=3,
                               epochs=8))
    t_small = small.aggregates[0].mean_time_s
    t_large = large.aggregates[0].mean_time_s
    assert t_small < t_large  # ordering only, never absolute values
