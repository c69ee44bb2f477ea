"""Command-line front end.

Subcommands: gen-graph, verify-expander, simulate, recover, sweep,
plot-data. Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 I/O failure.
"""

import argparse
import csv
import os
import sys

import numpy as np

from . import experiment, lp
from .decoders import DECODERS, DecodeSpec, decode
from .graph import (
    EnumerationCapExceeded,
    GraphConstructionError,
    build_random_expander,
    greedy_cover,  # noqa: F401 - the benchmark's spans wrap cli.greedy_cover
    load_graph,
    save_graph,
    verify_expansion,
)
from .stream import SignalSpec, StreamState, gen_rates, parse_dist, run_epochs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="flowsketch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="build and save a random counter graph")
    g.add_argument("--flows", type=int, required=True)
    g.add_argument("--counters", type=int, required=True)
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    v = sub.add_parser("verify-expander", help="brute-force expansion check")
    v.add_argument("--graph", required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--epsilon", type=float, required=True)
    v.add_argument("--cap", type=int, default=10**7,
                   help="max subsets to enumerate")

    s = sub.add_parser("simulate", help="run a Poisson stream, save counters")
    s.add_argument("--graph", required=True)
    s.add_argument("--whales", type=int, required=True)
    s.add_argument("--whale-dist", default="constant:1.0",
                   help="KIND:VALUE, e.g. constant:1.0 or abs-gaussian:1.0")
    s.add_argument("--minnow-dist", default="constant:0.0")
    s.add_argument("--signal-seed", type=int, default=0)
    s.add_argument("--stream-seed", type=int, default=0)
    s.add_argument("--epochs", type=int, required=True)
    s.add_argument("--tau", type=float, default=1.0)
    s.add_argument("--out-counters", required=True)
    s.add_argument("--out-counts", help="also save exact per-flow counts")

    r = sub.add_parser("recover", help="decode rates from saved counters")
    r.add_argument("--graph", required=True)
    r.add_argument("--counters", required=True)
    r.add_argument("--decoder", choices=DECODERS, default="direct")
    r.add_argument("--epochs", type=int, required=True)
    r.add_argument("--tau", type=float, default=1.0)
    r.add_argument("--out", required=True)
    r.add_argument("--tol-feas", type=float)
    r.add_argument("--tol-obj", type=float)
    r.add_argument("--iter-cap", type=int)
    r.add_argument("--trace", help="dump LP iterations to this CSV")
    r.add_argument("--k", type=int, help="whale count (pmle decoders)")
    r.add_argument("--l0", type=float, help="rate budget (pmle decoders)")
    r.add_argument("--levels", type=int, default=64)
    r.add_argument("--gamma", type=float, default=1.0)
    r.add_argument("--penalty-mode", default="l0-scaled",
                   choices=["l0-scaled", "uniform"])

    w = sub.add_parser("sweep", help="run a config-driven experiment sweep")
    w.add_argument("--config", required=True)
    w.add_argument("--out-dir", help="override the config's out_dir")
    w.add_argument("--workers", type=int, default=1)

    d = sub.add_parser("plot-data", help="columnar plot data from results")
    d.add_argument("--results", required=True)
    d.add_argument("--metric", required=True,
                   choices=["success", "rel_error", "time"])
    d.add_argument("--out", required=True)
    return p


def _write_vector_csv(path, values) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "value"])
        for i, v in enumerate(values):
            w.writerow([i, repr(float(v)) if isinstance(v, float) else int(v)])


def _read_counters_csv(path, n_counters: int) -> np.ndarray:
    """Counters as simulate writes them: header index,value, then every
    index in [0, n_counters) exactly once with a finite, nonnegative,
    integral count. Raises ValueError naming the path and the index."""
    out = [None] * n_counters
    with open(path, newline="") as f:
        r = csv.reader(f)
        if next(r, None) != ["index", "value"]:
            raise ValueError(f"{path}: expected header index,value")
        for row in r:
            try:
                i, v = int(row[0]), float(row[1])
            except (IndexError, ValueError):
                raise ValueError(f"{path}: malformed row {row!r}") from None
            if not 0 <= i < n_counters:
                raise ValueError(f"{path}: index {i} out of range")
            if out[i] is not None:
                raise ValueError(f"{path}: index {i} repeated")
            if not (v >= 0 and v.is_integer()):
                raise ValueError(
                    f"{path}: index {i} has value {row[1]!r}, "
                    "not a nonnegative integer count"
                )
            out[i] = v
    if None in out:
        raise ValueError(f"{path}: index {out.index(None)} missing")
    return np.array(out, dtype=np.float64)


def _cmd_gen_graph(args) -> int:
    g = build_random_expander(args.flows, args.counters, args.degree, args.seed)
    save_graph(g, args.out)
    print(f"graph N={g.n_left} M={g.n_right} d={g.d} seed={g.seed} -> {args.out}")
    return EXIT_OK


def _cmd_verify_expander(args) -> int:
    g = load_graph(args.graph)
    rep = verify_expansion(g, args.k, args.epsilon, cap=args.cap)
    print(
        f"k={rep.k_checked} epsilon={rep.epsilon} worst_ratio={rep.worst_ratio:.6f} "
        f"subsets={rep.subsets_tested} is_expander={str(rep.is_expander).lower()}"
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    spec = SignalSpec(
        n_flows=g.n_left, k=args.whales,
        whale_dist=parse_dist(args.whale_dist),
        minnow_dist=parse_dist(args.minnow_dist),
        seed=args.signal_seed,
    )
    state = StreamState(graph=g, rates=gen_rates(spec), tau=args.tau,
                        seed=args.stream_seed)
    run_epochs(state, args.epochs)
    _write_vector_csv(args.out_counters, [int(v) for v in state.y])
    if args.out_counts:
        _write_vector_csv(args.out_counts, [int(v) for v in state.x])
    print(
        f"simulated {args.epochs} epochs: total packets={int(state.x.sum())}, "
        f"counters -> {args.out_counters}"
    )
    return EXIT_OK


def _cmd_recover(args) -> int:
    g = load_graph(args.graph)
    y = _read_counters_csv(args.counters, g.n_right)
    spec = DecodeSpec(
        decoder=args.decoder, k=args.k, l0=args.l0, gamma=args.gamma,
        levels=args.levels, penalty_mode=args.penalty_mode,
        tol_feas=args.tol_feas, tol_obj=args.tol_obj, iter_cap=args.iter_cap,
    )
    dec = decode(g, y, args.epochs, args.tau, spec)
    res = dec.result
    if isinstance(res, lp.LpSolution):
        if args.trace:
            with open(args.trace, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(["iteration", "objective", "feasibility"])
                for row in res.trace:
                    w.writerow([row[0], repr(float(row[1])), repr(float(row[2]))])
        print(
            f"direct: status={res.status} objective={res.objective:.6g} "
            f"feas={res.primal_feasibility:.3g} iters={res.iterations}"
        )
    else:
        if res.localization is not None:
            print(f"localization: |A1|={res.localization.a1.size}")
        print(
            f"{args.decoder}: support={list(res.support)} "
            f"objective={res.objective:.6g} evaluated={res.n_evaluated}"
        )
    _write_vector_csv(args.out, [float(v) for v in dec.estimate])
    print(f"estimate -> {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = experiment.load_config(args.config)
    out_dir = args.out_dir if args.out_dir is not None else cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    res = experiment.run_sweep(cfg, workers=args.workers)
    out_path = os.path.join(out_dir, "results.csv")
    experiment.emit_csv(res, out_path)
    print(f"{len(res.rows)} rows -> {out_path}")
    for a in res.aggregates:
        print(
            f"k={a.k} decoder={a.decoder} success={a.success_prob:.3f} "
            f"rel_err={a.mean_rel_error:.4g} time={a.mean_time_s:.4g}s"
        )
    return EXIT_OK


def _cmd_plot_data(args) -> int:
    res = experiment.load_csv(args.results)
    experiment.emit_plot_data(res, args.metric, args.out)
    print(f"{args.metric} -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen-graph": _cmd_gen_graph,
    "verify-expander": _cmd_verify_expander,
    "simulate": _cmd_simulate,
    "recover": _cmd_recover,
    "sweep": _cmd_sweep,
    "plot-data": _cmd_plot_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (lp.NumericalError, ArithmeticError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GraphConstructionError, EnumerationCapExceeded, ValueError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
