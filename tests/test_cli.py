"""End-to-end command-line checks, all through main(argv)."""

import csv
import json

import numpy as np
import pytest

from flowsketch import (
    BipartiteGraph,
    experiment,
    relative_l1_error,
    save_graph,
    support_recovery_success,
)
from flowsketch.cli import main
from flowsketch.experiment import ExperimentConfig, save_config
from flowsketch.stream import Dist


def read_vector(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["index", "value"]
    out = np.zeros(len(rows) - 1)
    for idx, val in rows[1:]:
        out[int(idx)] = float(val)
    return out


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "g.json"
    rc = main(["gen-graph", "--flows", "50", "--counters", "20",
               "--degree", "4", "--seed", "7", "--out", str(p)])
    assert rc == 0
    return p


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_metric_is_usage_error(tmp_path):
    rc = main(["plot-data", "--results", "x.csv", "--metric", "latency",
               "--out", str(tmp_path / "d.dat")])
    assert rc == 1


def test_gen_graph_then_verify(graph_file, capsys):
    rc = main(["verify-expander", "--graph", str(graph_file),
               "--k", "2", "--epsilon", "0.375"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "is_expander=true" in out
    assert "worst_ratio=0.625000" in out


def test_missing_graph_file_is_io_error(tmp_path, capsys):
    rc = main(["verify-expander", "--graph", str(tmp_path / "absent.json"),
               "--k", "1", "--epsilon", "0.5"])
    assert rc == 3
    assert "i/o failure" in capsys.readouterr().err


def test_simulate_deterministic(graph_file, tmp_path):
    args = ["simulate", "--graph", str(graph_file), "--whales", "2",
            "--whale-dist", "constant:3.0", "--epochs", "30",
            "--signal-seed", "5", "--stream-seed", "6"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out-counters", str(a)]) == 0
    assert main(args + ["--out-counters", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_then_recover_direct(graph_file, tmp_path):
    y_path, x_path = tmp_path / "y.csv", tmp_path / "x.csv"
    est_path = tmp_path / "est.csv"
    assert main(["simulate", "--graph", str(graph_file), "--whales", "2",
                 "--whale-dist", "constant:3.0", "--epochs", "30",
                 "--signal-seed", "5", "--stream-seed", "6",
                 "--out-counters", str(y_path), "--out-counts", str(x_path)]) == 0
    assert main(["recover", "--graph", str(graph_file), "--counters",
                 str(y_path), "--epochs", "30", "--out", str(est_path)]) == 0
    est = read_vector(est_path)
    x = read_vector(x_path)
    # 2-sparse counts on a verified expander: the program recovers them
    assert est.shape == (50,)
    assert np.abs(est - x / 30.0).max() < 1e-3


def test_recover_trace_dump(graph_file, tmp_path):
    y_path = tmp_path / "y.csv"
    main(["simulate", "--graph", str(graph_file), "--whales", "1",
          "--epochs", "10", "--out-counters", str(y_path)])
    trace_path = tmp_path / "trace.csv"
    assert main(["recover", "--graph", str(graph_file), "--counters",
                 str(y_path), "--epochs", "10", "--out",
                 str(tmp_path / "e.csv"), "--trace", str(trace_path)]) == 0
    with open(trace_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iteration", "objective", "feasibility"]
    iters = [int(r[0]) for r in rows[1:]]
    assert len(iters) >= 1 and iters == sorted(iters)


def test_recover_pmle_reduced(graph_file, tmp_path, capsys):
    y_path, x_path = tmp_path / "y.csv", tmp_path / "x.csv"
    main(["simulate", "--graph", str(graph_file), "--whales", "2",
          "--whale-dist", "constant:3.0", "--epochs", "30",
          "--signal-seed", "5", "--stream-seed", "6",
          "--out-counters", str(y_path), "--out-counts", str(x_path)])
    est_path = tmp_path / "est.csv"
    rc = main(["recover", "--graph", str(graph_file), "--counters",
               str(y_path), "--decoder", "pmle-reduced", "--k", "2",
               "--l0", "8.0", "--gamma", "0.1", "--levels", "8",
               "--epochs", "30", "--out", str(est_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "localization:" in out and "support=" in out
    est = read_vector(est_path)
    whales = set(np.argsort(read_vector(x_path))[-2:])
    assert (est >= 0).all()
    assert set(np.nonzero(est)[0]) == whales


def test_recover_pmle_without_k_is_usage_error(graph_file, tmp_path, capsys):
    y_path = tmp_path / "y.csv"
    main(["simulate", "--graph", str(graph_file), "--whales", "1",
          "--epochs", "10", "--out-counters", str(y_path)])
    rc = main(["recover", "--graph", str(graph_file), "--counters",
               str(y_path), "--decoder", "pmle-reduced", "--epochs", "10",
               "--out", str(tmp_path / "e.csv")])
    assert rc == 1
    assert "requires k and l0" in capsys.readouterr().err


def test_recover_infeasible_counters_is_numerical_error(tmp_path, capsys):
    g = BipartiteGraph(n_left=4, n_right=3, d=1, seed=0,
                       columns=np.array([[0], [0], [1], [1]], dtype=np.int32))
    g_path = tmp_path / "g.json"
    save_graph(g, g_path)
    y_path = tmp_path / "y.csv"
    with open(y_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "value"])
        for i, v in enumerate([1, 1, 1]):  # counter 2 has no incident flow
            w.writerow([i, v])
    rc = main(["recover", "--graph", str(g_path), "--counters", str(y_path),
               "--epochs", "1", "--out", str(tmp_path / "e.csv")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_recover_bad_counter_header_is_usage_error(graph_file, tmp_path):
    y_path = tmp_path / "y.csv"
    y_path.write_text("idx,val\n0,1\n")
    rc = main(["recover", "--graph", str(graph_file), "--counters",
               str(y_path), "--epochs", "1", "--out", str(tmp_path / "e.csv")])
    assert rc == 1


@pytest.fixture
def counters_file(graph_file, tmp_path):
    y_path = tmp_path / "y.csv"
    assert main(["simulate", "--graph", str(graph_file), "--whales", "2",
                 "--whale-dist", "constant:3.0", "--epochs", "30",
                 "--signal-seed", "5", "--stream-seed", "6",
                 "--out-counters", str(y_path)]) == 0
    return y_path


def recover_argv(graph_file, y_path, est_path, decoder):
    argv = ["recover", "--graph", str(graph_file), "--counters", str(y_path),
            "--epochs", "30", "--decoder", decoder, "--out", str(est_path)]
    if decoder != "direct":
        argv += ["--k", "2", "--l0", "8.0", "--levels", "8"]
    return argv


@pytest.mark.parametrize("decoder", ["direct", "pmle-reduced"])
@pytest.mark.parametrize("case,index,why", [
    ("duplicate+missing", 0, "repeated"),
    ("missing", 19, "missing"),
    ("nan", 3, "'nan'"),
    ("inf", 3, "'inf'"),
    ("negative", 3, "'-2'"),
    ("fractional", 3, "'2.5'"),
    ("negative-fractional", 3, "'-2.5'"),
])
def test_recover_malformed_counters_is_invalid_input(
        graph_file, counters_file, tmp_path, capsys, decoder, case, index, why):
    lines = counters_file.read_text().splitlines()  # header, then 0..19
    if case == "duplicate+missing":
        lines[-1] = "0,0"
    elif case == "missing":
        del lines[-1]
    else:
        value = {"nan": "nan", "inf": "inf", "negative": "-2",
                 "fractional": "2.5", "negative-fractional": "-2.5"}[case]
        lines[1 + index] = f"{index},{value}"
    counters_file.write_text("\n".join(lines) + "\n")
    est_path = tmp_path / "est.csv"
    capsys.readouterr()
    assert main(recover_argv(graph_file, counters_file, est_path, decoder)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {counters_file}: index {index} ")
    assert why in err
    assert not est_path.exists()


def test_recover_reads_crlf_and_lf_counters(graph_file, counters_file, tmp_path):
    # simulate writes \r\n line ends; a hand-written \n file decodes the same
    assert counters_file.read_bytes().count(b"\r\n") == 21
    lf = tmp_path / "lf.csv"
    lf.write_bytes(counters_file.read_bytes().replace(b"\r\n", b"\n"))
    for decoder in ("direct", "pmle-reduced"):
        a, b = tmp_path / f"{decoder}-a.csv", tmp_path / f"{decoder}-b.csv"
        assert main(recover_argv(graph_file, counters_file, a, decoder)) == 0
        assert main(recover_argv(graph_file, lf, b, decoder)) == 0
        assert a.read_bytes() == b.read_bytes()


def test_sweep_and_plot_data(tmp_path, capsys):
    cfg = ExperimentConfig(
        n_flows=10, n_counters=8, degree=2, epochs=4, tau=1.0,
        sweep=(1, 2), trials=2, whale_dist=Dist("constant", 1.0),
        minnow_dist=Dist("abs-gaussian", 1e-3), decoders=("direct",),
        root_seed=100,
    )
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir),
               "--workers", "2"])
    assert rc == 0
    results = out_dir / "results.csv"
    assert results.exists()
    assert (out_dir / "results.agg.csv").exists()
    assert (out_dir / "results.timings.csv").exists()
    assert "4 rows" in capsys.readouterr().out

    dat = tmp_path / "succ.dat"
    assert main(["plot-data", "--results", str(results), "--metric",
                 "success", "--out", str(dat)]) == 0
    lines = dat.read_text().splitlines()
    assert lines[0] == "# metric: success"
    vals = [float(ln.split()[1]) for ln in lines[2:]]
    assert all(0.0 <= v <= 1.0 for v in vals)


def sweep_with_edited_config(tmp_path, edit):
    """Exit code of a sweep on a small saved config after edit(dict)."""
    cfg = ExperimentConfig(
        n_flows=10, n_counters=8, degree=2, epochs=4, tau=1.0, sweep=(1,),
        trials=1, whale_dist=Dist("constant", 1.0),
        minnow_dist=Dist("constant", 0.0), decoders=("direct",), root_seed=1,
    )
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    d = json.loads(cfg_path.read_text())
    edit(d)
    cfg_path.write_text(json.dumps(d))
    return main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)])


@pytest.mark.parametrize("block,key", [
    ("pmle", "gama"), ("pmle", "path_cap"), ("pmle", "c"),
    ("solver", "solver"), (None, "workers"),
    ("whale_dist", "vaule"), ("minnow_dist", "vaule"),
])
def test_sweep_unknown_config_key_is_invalid_input(tmp_path, capsys, block, key):
    def edit(d):
        (d[block] if block else d)[key] = 0.5
    assert sweep_with_edited_config(tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: unknown key")
    assert repr(f"{block}.{key}" if block else key) in err


@pytest.mark.parametrize("block,key", [
    (None, "n_flows"), (None, "whale_dist"), (None, "decoders"),
    ("whale_dist", "kind"), ("minnow_dist", "value"),
])
def test_sweep_missing_config_key_is_invalid_input(tmp_path, capsys, block, key):
    def edit(d):
        del (d[block] if block else d)[key]
    assert sweep_with_edited_config(tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: missing key")
    assert repr(f"{block}.{key}" if block else key) in err


def test_recover_matches_sweep_row(tmp_path, monkeypatch):
    # recover on a sweep cell's own graph and counters scores exactly as
    # the sweep row did, for each decoder
    seen = {}

    def spy(name):
        fn = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            seen[name] = out = fn(*args, **kwargs)
            return out
        monkeypatch.setattr(experiment, name, wrapper)

    for name in ("build_graph_with_cover", "gen_rates", "run_epochs"):
        spy(name)
    cfg = ExperimentConfig(
        n_flows=400, n_counters=90, degree=6, epochs=40, tau=1.0, sweep=(3,),
        trials=1, whale_dist=Dist("constant", 1.0),
        minnow_dist=Dist("abs-gaussian", 1e-6),
        decoders=("direct", "pmle-reduced"), root_seed=31,
        pmle=experiment.PmleOptions(levels=16),
    )
    rows = experiment.run_trial(cfg, 3, 0)
    g, truth = seen["build_graph_with_cover"][0], seen["gen_rates"]
    y = seen["run_epochs"].y
    g_path, y_path = tmp_path / "g.txt", tmp_path / "y.csv"
    save_graph(g, g_path)
    with open(y_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "value"])
        w.writerows(enumerate(int(v) for v in y))
    l0 = (1.0 + cfg.pmle.l0_margin) * truth.l1()
    for row in rows:
        assert row.note == ""
        est_path = tmp_path / f"{row.decoder}.csv"
        argv = ["recover", "--graph", str(g_path), "--counters", str(y_path),
                "--epochs", "40", "--decoder", row.decoder, "--out", str(est_path)]
        if row.decoder != "direct":
            argv += ["--k", "3", "--l0", repr(l0), "--levels", "16"]
        assert main(argv) == 0
        est = read_vector(est_path)
        assert support_recovery_success(est, truth) == row.success
        assert relative_l1_error(est, truth).value == row.rel_l1_error
