"""End-to-end command-line checks, all through main(argv)."""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowsketch
from flowsketch import (
    BipartiteGraph,
    DecodeSpec,
    Observation,
    RateVector,
    StreamState,
    cli,
    decode,
    experiment,
    graph,
    lp,
    pmle,
    relative_l1_error,
    run_epochs,
    save_graph,
    support_recovery_success,
)
from flowsketch.cli import _read_counters_csv, _write_vector_csv, main
from flowsketch.experiment import ExperimentConfig
from flowsketch.stream import Dist
from helpers import read_counters_csv_rows, save_config, write_vector_csv_rows


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


@pytest.mark.parametrize("flag,value,message", [
    ("--k", "0", "need 1 <= k <= n_left, got k=0"),
    ("--epsilon", "1.0", "epsilon must be in (0,1), got 1.0"),
])
def test_verify_expander_out_of_range_is_invalid_input(graph_file, capsys, flag,
                                                       value, message):
    opts = {"--k": "1", "--epsilon": "0.5", flag: value}
    rc = main(["verify-expander", "--graph", str(graph_file),
               "--k", opts["--k"], "--epsilon", opts["--epsilon"]])
    assert rc == 1
    assert capsys.readouterr().err == f"invalid input: {message}\n"


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


@pytest.mark.parametrize("tau", ["0", "-1", "inf", "nan", "1e308", "1e19"])
def test_simulate_bad_tau_is_invalid_input(graph_file, tmp_path, capsys, tau):
    # 1e308 and 1e19 are finite, but take the whale rate 1.0 past the
    # largest mean numpy's Poisson sampler draws
    y_path = tmp_path / "y.csv"
    assert main(["simulate", "--graph", str(graph_file), "--whales", "2",
                 "--epochs", "3", "--tau", tau, "--out-counters", str(y_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "tau" in err
    assert not y_path.exists()


@pytest.mark.parametrize("flag,value", [("--epochs", "-1"), ("--tau", "0"),
                                        ("--tau", "-1.5"), ("--tau", "nan"),
                                        ("--tau", "inf")])
def test_simulate_bad_epochs_or_tau_fails_before_loading_the_graph(
        graph_file, tmp_path, capsys, monkeypatch, flag, value):
    def never(*args, **kwargs):
        raise AssertionError("the graph was loaded for an invalid --epochs or --tau")

    monkeypatch.setattr(cli, "load_graph", never)
    y_path = tmp_path / "y.csv"
    argv = ["simulate", "--graph", str(graph_file), "--whales", "2",
            "--epochs", "3", "--out-counters", str(y_path), flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: need epochs >= 0 and 0 < tau < inf")
    shown = int(value) if flag == "--epochs" else float(value)
    assert f"{flag[2:]}={shown}" in err
    assert not y_path.exists()


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


@pytest.mark.parametrize("decoder", ["pmle-reduced", "pmle-exhaustive"])
def test_recover_trace_with_a_pmle_decoder_is_usage_error(tmp_path, capsys,
                                                          decoder):
    # refused before the graph is read: the missing graph would exit 3
    trace_path = tmp_path / "trace.csv"
    rc = main(["recover", "--graph", str(tmp_path / "missing.txt"),
               "--counters", str(tmp_path / "y.csv"), "--decoder", decoder,
               "--k", "3", "--l0", "4.0", "--epochs", "10",
               "--out", str(tmp_path / "e.csv"), "--trace", str(trace_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error: --trace")
    assert not trace_path.exists() and not (tmp_path / "e.csv").exists()


def test_recover_pmle_infinite_l0_is_usage_error(counters_file, graph_file,
                                                 tmp_path, capsys):
    # an infinite budget gives an infinite grid step: every candidate
    # would score nan and the estimate would be all zeros
    est_path = tmp_path / "e.csv"
    argv = recover_argv(graph_file, counters_file, est_path, "pmle-reduced")
    argv[argv.index("--l0") + 1] = "inf"
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("invalid input: need 0 < l0 < inf")
    assert not est_path.exists()


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


def test_recover_unreachable_counters_is_numerical_error(tmp_path, capsys):
    # every flow is on both counters, so A x has equal entries and y = (1, 2)
    # is out of reach; the interior-point weights overflow on the way
    g_path, y_path = tmp_path / "g.txt", tmp_path / "y.csv"
    g_path.write_text("3 2 2 0\n0 1\n0 1\n0 1\n")
    _write_vector_csv(y_path, np.array([1, 2]))
    est_path = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["recover", "--graph", str(g_path), "--counters", str(y_path),
                   "--epochs", "1", "--decoder", "direct", "--out", str(est_path)])
    assert rc == 2
    assert "numerical failure: basis pursuit reported infeasible" in \
        capsys.readouterr().err
    assert not est_path.exists()


@pytest.mark.parametrize("text,message", [
    ("3 20 4 0\n", "expected 3 rows of 4 indices, got 0 rows"),
    ("3 20 4 0\n\n  \n", "expected 3 rows of 4 indices, got 0 rows"),
    ("0 4 2 0\n", "need n_left >= 1 and 1 <= d <= n_right"),
    # rows that do not parse: the shape rule refuses before they are read
    ("2 3 5 0\nx y\nx y\n", "need n_left >= 1 and 1 <= d <= n_right"),
    # every field an integer, the seed too
    ("3 x 2 0\n0 1\n", "g.txt: malformed header"),
    ("3 20 4 1.5\n0 1 2 3\n", "g.txt: malformed header"),
    # each field ASCII digits alone, though int() reads all of these
    ("3 2_0 4 0\n0 1 2 3\n4 5 6 7\n8 9 10 11\n", "g.txt: malformed header"),
    ("\u0663 20 4 0\n0 1 2 3\n4 5 6 7\n8 9 10 11\n", "g.txt: malformed header"),
    ("3 20 4 +7\n0 1 2 3\n4 5 6 7\n8 9 10 11\n", "g.txt: malformed header"),
    ("3 20 4 -7\n0 1 2 3\n4 5 6 7\n8 9 10 11\n", "g.txt: malformed header"),
    # rows that parse, fewer than the header's n
    ("3 20 4 0\n0 1 2 3\n4 5 6 7\n", "expected 3 rows of 4 indices, got shape (2, 4)"),
])
def test_graph_header_is_checked_before_its_rows(tmp_path, capsys, text, message):
    g_path = tmp_path / "g.txt"
    g_path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify-expander", "--graph", str(g_path), "--k", "1",
                   "--epsilon", "0.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and message in err
    assert "UserWarning" not in err


@pytest.mark.parametrize("text,line", [
    ("3 20 4 0\n# a comment\n", 2),
    ("3 20 4 0\n0 1 2 3 # c\n4 5 6 7\n8 9 10 11\n", 2),
    ("3 20 4 0\n0 1 2 3\n# a comment\n4 5 6 7\n8 9 10 11\n", 3),
    # numpy would name "row 1, column 2": it counts rows from the first
    # nonblank body line and skips blank ones
    ("3 20 4 0\n0 1 2 3\n\n4 x 6 7\n8 9 10 11\n", 4),
    ("3 20 4 0\n0 1 2 3\n4 5 6\n8 9 10 11\n", 3),
], ids=["only-a-comment", "row-ending-in-a-comment", "comment-line",
        "bad-token-after-a-blank-line", "short-row"])
def test_graph_file_comments_are_refused(tmp_path, capsys, text, line):
    # save_graph writes none, and numpy would skip them or warn on them; a
    # row that does not parse is refused naming the file and its line
    g_path = tmp_path / "g.txt"
    g_path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify-expander", "--graph", str(g_path), "--k", "1",
                   "--epsilon", "0.5"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {g_path}: line {line} is not a row "
                          "of 4 int32 indices: ")
    assert "UserWarning" not in err


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
    ("above-2^53", 3, "'9007199254740993'"),
    ("underscore", 3, "'1_0'"),
    ("exponent", 3, "'1e3'"),
    ("spaces", 3, "' 7 '"),
    ("plus-sign", 3, "'+7'"),
    ("integral-float", 3, "'2.0'"),
    ("arabic-indic-digit", 3, "'\u0663'"),
    ("extra-field", 3, "extra fields ['junk']"),
])
def test_recover_malformed_counters_is_invalid_input(
        graph_file, counters_file, tmp_path, capsys, decoder, case, index, why):
    lines = counters_file.read_text().splitlines()  # header, then 0..19
    if case == "duplicate+missing":
        lines[-1] = "0,0"
    elif case == "missing":
        del lines[-1]
    elif case == "extra-field":
        lines[1 + index] = f"{index},0,junk"
    else:
        value = {"nan": "nan", "inf": "inf", "negative": "-2",
                 "fractional": "2.5", "negative-fractional": "-2.5",
                 "above-2^53": str(2**53 + 1), "underscore": "1_0",
                 "exponent": "1e3", "spaces": " 7 ", "plus-sign": "+7",
                 "integral-float": "2.0", "arabic-indic-digit": "\u0663"}[case]
        lines[1 + index] = f"{index},{value}"
    counters_file.write_text("\n".join(lines) + "\n")
    est_path = tmp_path / "est.csv"
    capsys.readouterr()
    assert main(recover_argv(graph_file, counters_file, est_path, decoder)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {counters_file}: index {index} ")
    assert why in err
    assert not est_path.exists()


@pytest.mark.parametrize("decoder", ["direct", "pmle-reduced"])
@pytest.mark.parametrize("flag,value", [("--epochs", "0"), ("--epochs", "-3"),
                                        ("--tau", "0"), ("--tau", "-1.5"),
                                        ("--tau", "nan"), ("--tau", "inf")])
def test_recover_bad_epochs_or_tau_fails_before_decoding(
        graph_file, counters_file, tmp_path, capsys, monkeypatch, decoder,
        flag, value):
    def never(*args, **kwargs):
        raise AssertionError("a solver ran on an invalid --epochs or --tau")

    for module, name in ((lp, "basis_pursuit"), (graph, "greedy_cover"),
                         (pmle, "localize_whales"), (pmle, "pmle_reduced")):
        monkeypatch.setattr(module, name, never)
    est_path = tmp_path / "est.csv"
    # the last --epochs or --tau given wins
    argv = recover_argv(graph_file, counters_file, est_path, decoder) + [flag, value]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: need epochs >= 1 and 0 < tau < inf")
    shown = int(value) if flag == "--epochs" else float(value)
    assert f"{flag[2:]}={shown}" in err
    assert not est_path.exists()


# pmle settings that PmleConfig refuses, as edits of recover_argv's k=2,
# l0=8.0, levels=8 on the 50-flow graph_file, with the start of each
# refusal; recover's parser itself refuses the library-only ones
BAD_PMLE = [
    pytest.param({"l0": math.inf}, "need 0 < l0 < inf", id="l0-inf"),
    pytest.param({"l0": 0.0}, "need 0 < l0 < inf", id="l0-0"),
    pytest.param({"l0": 1e-320, "levels": 10**6}, "need 0 < grid_step < inf",
                 id="l0-1e-320-levels-1e6"),
    pytest.param({"levels": 0}, "need 0 < l0 < inf", id="levels-0"),
    pytest.param({"levels": 2.5}, "need 0 < l0 < inf", id="levels-2.5"),
    # more levels than a float holds: l0/levels has no float value
    pytest.param({"levels": 10**400}, "need 0 < grid_step < inf", id="levels-1e400"),
    pytest.param({"k": 0}, "need 1 <= k < n_flows", id="k-0"),
    pytest.param({"k": 50}, "need 1 <= k < n_flows", id="k-N"),
    pytest.param({"k": 2.5}, "k must be an integer >= 1", id="k-2.5"),
    pytest.param({"k": True}, "k must be an integer >= 1", id="k-True"),
    pytest.param({"gamma": 0.0}, "derived c = gamma/(k*ln(N/k)) = 0 ", id="gamma-0"),
    pytest.param({"gamma": 10.0}, "derived c = gamma/(k*ln(N/k)) = 1.553 ",
                 id="gamma-c-above-1"),
    pytest.param({"penalty_mode": "huffman"}, "unknown penalty mode 'huffman'",
                 id="penalty-huffman"),
]
LIBRARY_ONLY = ("levels-2.5", "k-2.5", "k-True", "penalty-huffman")
# settings that only the exhaustive guard refuses: 50 flows at 64 levels
# have more than 10^6 candidates
TOO_MANY = pytest.param({"levels": 64}, "candidate count exceeds the exhaustive guard",
                        id="exhaustive-guard")


@pytest.mark.parametrize("via,edit,message,decoder", [
    pytest.param(via, *case.values, decoder, id=f"{via}-{case.id}-{decoder}")
    for case in BAD_PMLE + [TOO_MANY] for via in ("decode", "recover")
    for decoder in ("pmle-exhaustive", "pmle-reduced")
    if (via == "decode" or case.id not in LIBRARY_ONLY)
    and (decoder == "pmle-exhaustive" or case is not TOO_MANY)
])
def test_refused_pmle_settings_do_no_work(graph_file, counters_file, tmp_path,
                                          capsys, monkeypatch, via, decoder,
                                          edit, message):
    def never(*args, **kwargs):
        raise AssertionError("a cover or a solver ran on refused pmle settings")

    for module, name in ((graph, "greedy_cover"), (pmle, "localize_whales"),
                         (pmle, "pmle_reduced"), (pmle, "pmle_exhaustive"),
                         (pmle, "sparse_poisson_solve")):
        monkeypatch.setattr(module, name, never)
    if via == "decode":
        g = graph.load_graph(graph_file)
        y = _read_counters_csv(counters_file, g.n_right)
        spec = DecodeSpec(decoder, **{"k": 2, "l0": 8.0, "levels": 8, **edit})
        with pytest.raises(ValueError) as got:
            decode(Observation(g, y, 30, 1.0), spec)
        assert str(got.value).startswith(message)
        return
    est_path = tmp_path / "est.csv"
    argv = recover_argv(graph_file, counters_file, est_path, decoder)
    for key, value in edit.items():  # the last flag given wins
        argv += [f"--{key.replace('_', '-')}", str(value)]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"invalid input: {message}")
    assert not est_path.exists()


# (epochs, tau) windows that every boundary refuses, with its least epoch
# count 0 or 1; (0, 1.0) is refused where the least is 1. The last two
# have no finite length epochs*tau: it overflows to inf, or the epoch
# count has no float value
BAD_WINDOWS = [(-1, 1.0), (3, 0.0), (3, -1.5), (3, math.nan), (3, math.inf),
               (1.5, 1.0), (True, 1.0), (np.float64(2.0), 1.0), (0, 1.0),
               (10**30, 1e300), (10**400, 1.0)]


def _cli_refusal(ctx, argv):
    ctx.capsys.readouterr()
    assert main(argv) == 1
    err = ctx.capsys.readouterr().err
    assert err.startswith("invalid input: ")
    return err[len("invalid input: "):].rstrip("\n")


def _refusal(call, *args, **kwargs):
    with pytest.raises(ValueError) as got:
        call(*args, **kwargs)
    return str(got.value)


# boundary -> (least epoch count, the windows it takes: "any", "cli" (integer
# epochs), "tau" (a refused tau, at its own epoch count 0) or "tau 1.0",
# and the call that must refuse)
WINDOW_BOUNDARIES = {
    "simulate": (0, "cli", lambda ctx, e, t: _cli_refusal(ctx, [
        "simulate", "--graph", str(ctx.graph_file), "--whales", "2",
        "--epochs", str(e), "--tau", str(t), "--out-counters", str(ctx.out)])),
    "recover": (1, "cli", lambda ctx, e, t: _cli_refusal(ctx, recover_argv(
        ctx.graph_file, ctx.counters_file, ctx.out, "direct")
        + ["--epochs", str(e), "--tau", str(t)])),
    "decode": (1, "any", lambda ctx, e, t: _refusal(
        lambda: decode(Observation(ctx.g, np.zeros(ctx.g.n_right), e, t),
                       DecodeSpec("direct")))),
    "ExperimentConfig": (1, "any", lambda ctx, e, t: _refusal(
        ExperimentConfig, n_flows=10, n_counters=8, degree=2, epochs=e, tau=t,
        sweep=(1,), trials=1, whale_dist=Dist("constant", 1.0),
        minnow_dist=Dist("constant", 0.0), decoders=("direct",), root_seed=1)),
    # a stream starts at epoch 0, so only its tau can be refused
    "StreamState": (0, "tau", lambda ctx, e, t: _refusal(
        StreamState, graph=ctx.g, rates=ctx.rates, tau=t, seed=0)),
    # its window is the observation's
    "direct_estimate": (1, "any", lambda ctx, e, t: _refusal(
        lambda: lp.direct_estimate(ctx.sol, Observation(
            ctx.g, np.zeros(ctx.g.n_right), e, t)))),
    "run_epochs": (0, "tau 1.0", lambda ctx, e, t: _refusal(
        run_epochs, StreamState(graph=ctx.g, rates=ctx.rates, tau=t, seed=0), e)),
}


def _takes(kind, epochs, tau):
    if kind == "cli":  # argparse refuses a non-integer --epochs itself
        return type(epochs) is int
    if kind == "tau":
        return not 0 < tau < math.inf
    return kind == "any" or tau == 1.0


@pytest.mark.parametrize("boundary,epochs,tau", [
    (b, e, t) for b, (least, kind, _) in WINDOW_BOUNDARIES.items()
    for e, t in BAD_WINDOWS
    if _takes(kind, e, t) and not (least == 0 and (e, t) == (0, 1.0))
])
def test_every_window_boundary_refuses_alike(graph_file, counters_file, tmp_path,
                                             capsys, boundary, epochs, tau):
    least, kind, refuse = WINDOW_BOUNDARIES[boundary]
    g = graph.load_graph(graph_file)
    ctx = SimpleNamespace(
        graph_file=graph_file, counters_file=counters_file, capsys=capsys,
        out=tmp_path / "out.csv", g=g,
        rates=RateVector(np.ones(g.n_left), 1),
        sol=lp.LpSolution(u=np.ones(g.n_left), objective=0.0,
                          primal_feasibility=0.0, duality_gap=0.0,
                          iterations=0, status="optimal", solver="trivial"),
    )
    shown = 0 if kind == "tau" else epochs
    assert refuse(ctx, epochs, tau) == (f"need epochs >= {least} and 0 < tau < inf "
                                        f"with epochs*tau < inf, "
                                        f"got epochs={shown}, tau={tau}")
    assert not ctx.out.exists()


def test_main_builds_its_parser_once_per_process(graph_file, capsys):
    cli._build_parser.cache_clear()
    assert main(["verify-expander", "--graph", str(graph_file), "--k", "1",
                 "--epsilon", "0.5"]) == 0
    assert main(["plot-data"]) == 1  # a usage error reads the same parser
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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



@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2**53), st.integers(0, 2**63 - 1)),
                min_size=1, max_size=40))
@example([2**53])
@example([5, 2**53 + 1])
def test_counters_csv_round_trip(values):
    # the format simulate writes, with its \r\n line ends and with \n
    y = np.array(values, dtype=np.int64)
    above = np.flatnonzero(y > 2**53)
    with tempfile.TemporaryDirectory() as td:
        crlf, lf = Path(td) / "crlf.csv", Path(td) / "lf.csv"
        _write_vector_csv(crlf, y)
        assert crlf.read_bytes().count(b"\r\n") == y.size + 1
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        for path in (crlf, lf):
            if above.size:
                # float64 would round such a count; the first one is named
                i = int(above[0])
                with pytest.raises(ValueError) as err:
                    _read_counters_csv(path, y.size)
                assert f"index {i} has value '{values[i]}', above 2^53" in str(err.value)
                continue
            back = _read_counters_csv(path, y.size)
            # counts up to 2^53 come back exactly, as float64
            assert back.dtype == np.float64
            assert back.astype(np.int64).tolist() == y.tolist()


_MUTATIONS = ("quote", "lf", "blank", "extra", "pad", "drop", "repeat",
              "out-of-range", "2^53", "2^53+1", "non-ascii", "unended")


@st.composite
def mutated_counters_files(draw):
    """A counters file as simulate writes it, then a few of _MUTATIONS,
    each on a drawn row: the bytes and the counter count."""
    n = draw(st.integers(1, 12))
    rows = [[str(i), str(draw(st.integers(0, 10**6)))] for i in range(n)]
    ends = ["\r\n"] * n
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(_MUTATIONS),
                                            st.integers(0, 10**6)), max_size=3)):
        if not rows:
            break
        j = at % len(rows)
        if kind == "quote" and len(rows[j]) > 1:
            rows[j][at % 2] = f'"{rows[j][at % 2]}"'
        elif kind == "lf":
            ends[j] = "\n"
        elif kind == "blank":
            rows.insert(j, [])
            ends.insert(j, "\r\n")
        elif kind == "extra":
            rows[j] = rows[j] + ["0"]
        elif kind == "pad" and rows[j]:
            rows[j][0] = "0" * (16 + at % 8) + rows[j][0]
        elif kind == "drop":
            del rows[j], ends[j]
        elif kind == "repeat" and rows[j] and rows[at % len(rows)]:
            rows[j][0] = rows[at % len(rows)][0]
        elif kind == "out-of-range" and rows[j]:
            rows[j][0] = str(n + at % 3)
        elif kind in ("2^53", "2^53+1") and len(rows[j]) > 1:
            rows[j][1] = str(2**53 + (kind == "2^53+1"))
        elif kind == "non-ascii" and len(rows[j]) > 1:
            rows[j][at % 2] = "\u0663" if at % 3 else "\uff15"
        elif kind == "unended":
            ends[-1] = ""
    text = "index,value\r\n" + "".join(",".join(r) + e for r, e in zip(rows, ends))
    return text.encode(), n


@settings(max_examples=400, deadline=None)
@given(mutated_counters_files())
@example((b"index,value\r\n0,9007199254740992\r\n", 1))
@example((b'index,value\n"0","5"\n1,6', 2))
@example((b"index,value\r\n0,5\r\n\r\n1,6\r\n", 2))
@example(("index,value\r\n0,5\r\n1,\uff16\r\n".encode(), 2))
@example((b"index,value\r\n0,5\r\n0,6\r\n", 2))
@example((b"index,value\r\n18446744073709551617,5\r\n0,6\r\n", 2))
def test_counters_bulk_read_matches_the_row_scan(case):
    # the same array, or a ValueError in the same words, as every file was
    # read before the bulk read: row by row through csv.reader
    data, n = case
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "y.csv"
        path.write_bytes(data)
        try:
            want = read_counters_csv_rows(path, n)
        except ValueError as e:
            with pytest.raises(ValueError) as err:
                _read_counters_csv(path, n)
            assert str(err.value) == str(e)
        else:
            got = _read_counters_csv(path, n)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_counters_csv_digit_strings_past_int_limit(tmp_path):
    # int() refuses more than 4300 digits; such a count or index is still
    # reported against the file and the index it is on
    path = tmp_path / "y.csv"
    path.write_text("index,value\n0,5\n1," + "9" * 5000 + "\n")
    with pytest.raises(ValueError, match=f"{path}: index 1 has value '9+', above 2"):
        _read_counters_csv(path, 2)
    path.write_text("index,value\n" + "0" * 5000 + "1,5\n0,5\n")
    assert _read_counters_csv(path, 2).tolist() == [5.0, 5.0]
    path.write_text("index,value\n0,5\n" + "1" * 5000 + ",5\n")
    with pytest.raises(ValueError, match=f"{path}: index 1+ out of range"):
        _read_counters_csv(path, 2)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=30),
))
@example([-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 0.1])
@example([0.0] * 70_000 + [-0.0, 2.5])  # past two row chunks
@example([-2**63, 0, 2**63 - 1])
def test_vector_csv_bytes_match_csv_writer(values):
    # as the float64 or int64 array recover and simulate pass
    floats = all(isinstance(v, float) for v in values)
    with tempfile.TemporaryDirectory() as td:
        got, want = Path(td) / "got.csv", Path(td) / "want.csv"
        write_vector_csv_rows(want, values)
        _write_vector_csv(got, np.array(values, dtype=np.float64 if floats else np.int64))
        assert got.read_bytes() == want.read_bytes()


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


def write_small_results(tmp_path) -> Path:
    """The three result files of a two-trial direct sweep; the results
    file's path."""
    cfg = ExperimentConfig(
        n_flows=10, n_counters=8, degree=2, epochs=4, tau=1.0, sweep=(1,),
        trials=2, whale_dist=Dist("constant", 1.0),
        minnow_dist=Dist("constant", 0.0), decoders=("direct",), root_seed=1,
    )
    results = tmp_path / "results.csv"
    experiment.emit_csv(experiment.run_sweep(cfg), results)
    return results


@pytest.mark.parametrize("sidecar", ["", ".timings"])
@pytest.mark.parametrize("edit", ["short", "long"])
def test_plot_data_refuses_a_row_of_another_length(tmp_path, capsys, sidecar,
                                                    edit):
    results = write_small_results(tmp_path)
    path = tmp_path / f"results{sidecar}.csv"
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:-1] if edit == "short" else cells + ["x"])
    path.write_text("\n".join(lines) + "\n")
    dat = tmp_path / "succ.dat"
    capsys.readouterr()
    assert main(["plot-data", "--results", str(results), "--metric",
                 "success", "--out", str(dat)]) == 1
    n = len(cells) + (-1 if edit == "short" else 1)
    assert capsys.readouterr().err == (
        f"invalid input: {path}: line 3 has {n} fields, expected {len(cells)}\n")
    assert not dat.exists()


@pytest.mark.parametrize("sidecar,message", [
    ("", "unexpected header ['k', 'trail'"),
    (".agg", "0 aggregate rows, recomputed 1"),
], ids=["results-header", "agg-row-deleted"])
def test_plot_data_refuses_an_edited_results_header_or_aggregate(
        tmp_path, capsys, sidecar, message):
    results = write_small_results(tmp_path)
    path = tmp_path / f"results{sidecar}.csv"
    lines = path.read_text().splitlines()
    if sidecar:
        del lines[1]  # the one aggregate row
    else:
        lines[0] = lines[0].replace("trial", "trail", 1)
    path.write_text("\n".join(lines) + "\n")
    dat = tmp_path / "succ.dat"
    capsys.readouterr()
    assert main(["plot-data", "--results", str(results), "--metric",
                 "success", "--out", str(dat)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {path}: {message}")
    assert not dat.exists()


@pytest.mark.parametrize("sidecar,column,cell,message", [
    ("", "k", "x0", "invalid literal for int() with base 10: 'x0'"),
    (".timings", "k", "x0", "invalid literal for int() with base 10: 'x0'"),
    ("", "success", "yes", "expected 0 or 1, got 'yes'"),
    ("", "whales_in_a1", "2", "expected 0 or 1, got '2'"),
], ids=["k", "timings-k", "success", "whales_in_a1"])
def test_plot_data_names_the_line_of_a_cell_that_does_not_parse(
        tmp_path, capsys, sidecar, column, cell, message):
    results = write_small_results(tmp_path)
    path = tmp_path / f"results{sidecar}.csv"
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    rows[2][rows[0].index(column)] = cell
    with path.open("w", newline="") as f:
        csv.writer(f).writerows(rows)
    dat = tmp_path / "succ.dat"
    capsys.readouterr()
    assert main(["plot-data", "--results", str(results), "--metric",
                 "success", "--out", str(dat)]) == 1
    assert capsys.readouterr().err == (
        f"invalid input: {path}: line 3: {message}\n")
    assert not dat.exists()


# Runs in a fresh interpreter: every command but a direct recover leaves
# scipy unloaded, the pMLE decoders and a pMLE-only sweep cell too, since
# only basis pursuit uses it; a direct recover loads it.
_SCIPY_PROBE = """
import sys

import flowsketch, flowsketch.cli, flowsketch.experiment
from flowsketch import Dist

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

graph, results, out = sys.argv[1:]
assert not scipy_loaded(), "import"
recover = ["recover", "--graph", graph, "--counters", out + "/y.csv",
           "--epochs", "10", "--l0", "4.0"]
for argv in (
    ["gen-graph", "--flows", "60", "--counters", "20", "--degree", "4",
     "--out", out + "/g2.txt"],
    ["verify-expander", "--graph", graph, "--k", "2", "--epsilon", "0.375"],
    ["simulate", "--graph", graph, "--whales", "2", "--epochs", "10",
     "--out-counters", out + "/y.csv"],
    ["plot-data", "--results", results, "--metric", "success",
     "--out", out + "/s.dat"],
    # k*d = M, so A1 is every flow and the sparse Poisson solve runs
    recover + ["--decoder", "pmle-reduced", "--k", "5", "--out", out + "/e1.csv"],
    recover + ["--decoder", "pmle-exhaustive", "--k", "2", "--levels", "2",
               "--out", out + "/e2.csv"],
):
    assert flowsketch.cli.main(argv) == 0, argv
    assert not scipy_loaded(), argv[:3]
cfg = flowsketch.experiment.ExperimentConfig(
    n_flows=50, n_counters=20, degree=4, epochs=10, tau=1.0, sweep=(5,),
    trials=1, whale_dist=Dist("constant", 1.0), minnow_dist=Dist("constant", 0.0),
    decoders=("pmle-reduced",), root_seed=1)
(row,) = flowsketch.experiment.run_trial(cfg, 5, 0)
assert row.note == "" and row.a1_size == 50, row
assert not scipy_loaded(), "run_trial"
assert flowsketch.cli.main(recover + ["--decoder", "direct",
                                      "--out", out + "/e.csv"]) == 0
assert scipy_loaded(), "recover"
"""


def test_only_basis_pursuit_loads_scipy(graph_file, tmp_path):
    results = write_small_results(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(flowsketch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(graph_file), str(results),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_MODULES_PROBE = """
import sys

def loaded():
    return sorted(m for m in sys.modules
                  if m == "flowsketch" or m.startswith("flowsketch."))

graph, out = sys.argv[1:]
import flowsketch
assert loaded() == ["flowsketch"], loaded()
import flowsketch.cli
# numpy.random is loaded by the commands that draw, not by the import
assert "numpy.random" not in sys.modules
assert flowsketch.cli.main(["verify-expander", "--graph", graph, "--k", "2",
                            "--epsilon", "0.375"]) == 0
assert "numpy.random" not in sys.modules
assert flowsketch.cli.main(["gen-graph", "--flows", "60", "--counters", "20",
                            "--degree", "4", "--out", out + "/g2.txt"]) == 0
base = ["flowsketch", "flowsketch.cli", "flowsketch.decoders", "flowsketch.graph"]
assert loaded() == base, loaded()
assert flowsketch.cli.main(["simulate", "--graph", graph, "--whales", "2",
                            "--epochs", "10", "--out-counters", out + "/y.csv"]) == 0
assert loaded() == sorted(base + ["flowsketch.metrics", "flowsketch.stream"]), loaded()
# a bare import still reaches every submodule as an attribute
assert flowsketch.lp.basis_pursuit is flowsketch.basis_pursuit
assert flowsketch.experiment.__name__ == "flowsketch.experiment"
"""


def test_each_command_loads_only_the_modules_it_runs(graph_file, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(flowsketch.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, str(graph_file), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_names_are_their_home_modules_objects():
    for name, home in flowsketch._HOME.items():
        module = importlib.import_module(f"flowsketch.{home}")
        assert name in module.__all__, name
        assert getattr(flowsketch, name) is getattr(module, name), name
    assert set(flowsketch.__all__) | {"lp", "cli", "__version__"} <= set(dir(flowsketch))
    namespace = {}
    exec("from flowsketch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(flowsketch.__all__)
    assert namespace["decode"] is decode
    with pytest.raises(AttributeError, match="no_such_name"):
        flowsketch.no_such_name


def sweep_with_edited_config(tmp_path, edit, out_dir=None):
    """Exit code of a sweep on a small saved config after edit(dict),
    writing into out_dir (tmp_path by default)."""
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
    return main(["sweep", "--config", str(cfg_path),
                 "--out-dir", str(out_dir or tmp_path)])


@pytest.mark.parametrize("block,key", [
    ("pmle", "gama"), ("pmle", "path_cap"), ("pmle", "c"),
    (None, "solver"), (None, "workers"),
    ("whale_dist", "vaule"), ("minnow_dist", "vaule"),
])
def test_sweep_unknown_config_key_is_invalid_input(tmp_path, capsys, block, key):
    def edit(d):
        (d[block] if block else d)[key] = 0.5
    assert sweep_with_edited_config(tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: unknown key")
    assert repr(f"{block}.{key}" if block else key) in err


@pytest.mark.parametrize("block,key,value,what", [
    (None, "trials", "3", "an integer"),
    (None, "epochs", 2.5, "an integer"),
    (None, "n_flows", 50.0, "an integer"),
    (None, "root_seed", True, "an integer"),
    (None, "tau", "1", "a number"),
    (None, "tau", False, "a number"),
    (None, "sweep", 1, "a list"),
    (None, "sweep", [1, "2"], "list integers"),
    (None, "sweep", [1.0], "list integers"),
    (None, "sweep", [True], "list integers"),
    (None, "decoders", "direct", "a list"),
    (None, "out_dir", 7, "a string"),
    (None, "pmle", None, "an object"),
    (None, "whale_dist", 5, "an object"),
    (None, "minnow_dist", [], "an object"),
    ("pmle", "gamma", "1", "a number"),
    ("pmle", "levels", 8.0, "an integer"),
    ("pmle", "l0", "4", "a number or null"),
    ("pmle", "l0_margin", None, "a number"),
    ("pmle", "penalty_mode", 1, "a string"),
    ("whale_dist", "value", None, "a number"),
    ("minnow_dist", "kind", 0, "a string"),
])
def test_sweep_config_value_of_wrong_type_is_invalid_input(
        tmp_path, capsys, block, key, value, what):
    def edit(d):
        (d[block] if block else d)[key] = value
    assert sweep_with_edited_config(tmp_path, edit) == 1
    err = capsys.readouterr().err
    name = f"{block}.{key}" if block else key
    assert err.startswith(f"invalid input: key {name!r} must ")
    assert what in err


@pytest.mark.parametrize("tau", [float("inf"), float("nan")])
def test_sweep_config_tau_not_finite_is_invalid_input(tmp_path, capsys, tau):
    # json.load reads Infinity and NaN as floats, so the type check passes
    def edit(d):
        d["tau"] = tau
    assert sweep_with_edited_config(tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid input: need epochs >= 1 and 0 < tau < inf")
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("levels", 0), ("penalty_mode", "huffman"), ("gamma", -1),
    ("gamma", 50),  # c = 50/(2 ln 100) = 5.43
    ("l0", -3), ("l0", math.inf), ("l0_margin", -1.5),
    # each knob passes alone, but the grid step l0/levels underflows to 0
    pytest.param("l0", {"l0": 1e-320, "levels": 1000000},
                 id="l0-1e-320-levels-1000000"),
    # more levels than a float holds: l0/levels has no float value
    pytest.param("levels", 10**400, id="levels-1e400"),
])
def test_sweep_config_pmle_knob_failing_every_trial_is_invalid_input(
        tmp_path, capsys, key, value):
    def edit(d):
        d.update(n_flows=200, n_counters=60, degree=6, sweep=[2],
                 decoders=["direct", "pmle-reduced"])
        d["pmle"].update(value if isinstance(value, dict) else {key: value})
    assert sweep_with_edited_config(tmp_path, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: key 'pmle.{key}': ")
    assert not (tmp_path / "results.csv").exists()


def test_sweep_config_exhaustive_guard_failing_every_trial_is_invalid_input(
        tmp_path, capsys, monkeypatch):
    # 200 flows at 64 levels: every pmle-exhaustive trial would exceed the
    # exhaustive guard, which depends only on n_flows and pmle.levels
    calls = []
    monkeypatch.setattr(experiment, "run_trial",
                        lambda *a: calls.append(a) or [])

    def edit(d):
        d.update(n_flows=200, n_counters=60, degree=6, sweep=[2], trials=3,
                 decoders=["pmle-exhaustive"])
    assert sweep_with_edited_config(tmp_path, edit) == 1
    assert capsys.readouterr().err.startswith(
        "invalid input: key 'decoders': candidate count exceeds the exhaustive guard")
    assert calls == []
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("key,value,message", [
    ("sweep", [2, 60], "key 'sweep': need 0 <= k <= n_flows, got k=60"),
    ("whale_dist", {"kind": "constant", "value": 0.0},
     "key 'whale_dist': constant whale magnitude must be positive"),
    ("decoders", [], "need at least one decoder\n"),
    # no trial can build its graph: more counters per flow than counters
    ("degree", 21, "key 'degree': need n_left >= 1 and 1 <= d <= n_right, "
                   "got n_left=50, d=21, n_right=20"),
    # or a greedy cover: 6 flows of degree 3 miss some of the 20 counters
    ("n_flows", 6, "key 'n_flows': 6 flows of degree 3 leave some of 20 "
                   "counters with no flow"),
], ids=["k-above-n_flows", "whale-dist-constant-0", "no-decoder",
        "degree-above-n_counters", "a-counter-with-no-flow"])
def test_sweep_point_no_trial_can_run_is_refused_before_any_trial(
        tmp_path, capsys, monkeypatch, key, value, message):
    calls = []
    monkeypatch.setattr(experiment, "run_trial",
                        lambda *a: calls.append(a) or [])

    def edit(d):
        d.update(n_flows=50, n_counters=20, degree=3, trials=3)
        d[key] = value
    assert sweep_with_edited_config(tmp_path, edit, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith(f"invalid input: {message}")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_sweep_config_not_an_object_is_invalid_input(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("invalid input: config must be an object")


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
    # the sweep row did, for each decoder, with the pmle budget derived
    # from the true rates and with one given in the config
    seen = {}

    def spy(name):
        fn = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            seen[name] = out = fn(*args, **kwargs)
            return out
        monkeypatch.setattr(experiment, name, wrapper)

    for name in ("build_graph_with_cover", "gen_rates", "run_epochs"):
        spy(name)
    for given in (None, 6.0):
        cfg = ExperimentConfig(
            n_flows=400, n_counters=90, degree=6, epochs=40, tau=1.0, sweep=(3,),
            trials=1, whale_dist=Dist("constant", 1.0),
            minnow_dist=Dist("abs-gaussian", 1e-6),
            decoders=("direct", "pmle-reduced"), root_seed=31,
            pmle=experiment.PmleOptions(levels=16, l0=given),
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
        l0 = (1.0 + cfg.pmle.l0_margin) * truth.l1() if given is None else given
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
