"""Command-line front end.

Subcommands: gen-graph, verify-expander, simulate, recover, sweep,
plot-data. Exit codes: 0 success, 1 usage error, 2 numerical failure,
3 I/O failure. Each command imports the modules it runs beyond `graph`
and `decoders` when it starts.
"""

import argparse
import csv
import functools
import os
import sys
from itertools import chain
from typing import Optional

import numpy as np

from .decoders import DECODERS, PENALTY_MODES, DecodeSpec, Observation, decode
from .graph import (
    build_random_expander,
    greedy_cover,  # noqa: F401 - the benchmark's spans wrap cli.greedy_cover
    load_graph,
    save_graph,
    verify_expansion,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# rows that _write_vector_csv formats per write
_WRITE_CHUNK = 1 << 15


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise UsageError(message)


@functools.cache  # one parser per process; parse_args leaves it as it was
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
    r.add_argument("--trace",
                   help="dump LP iterations to this CSV (--decoder direct)")
    r.add_argument("--k", type=int, help="whale count (pmle decoders)")
    r.add_argument("--l0", type=float, help="rate budget (pmle decoders)")
    r.add_argument("--levels", type=int, default=DecodeSpec.levels)
    r.add_argument("--gamma", type=float, default=DecodeSpec.gamma)
    r.add_argument("--penalty-mode", default=DecodeSpec.penalty_mode,
                   choices=PENALTY_MODES)

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
    """index,value CSV with \r\n line ends, the bytes csv.writer writes for
    the rows (i, values[i]): floats by repr, integers as integers. values
    is a float64 or int64 array. Rows are formatted _WRITE_CHUNK at a
    time, by one %-format of the chunk's cells, so a vector of 10^6
    entries is never held as text whole. A float chunk calls repr only on
    its entries that are not +0.0 (-0.0, NaN and the infinities included);
    the +0.0 cells are the string 0.0, which is their repr."""
    line = "%d,%s\r\n"
    with open(path, "w", newline="") as f:
        f.write("index,value\r\n")
        for start in range(0, values.size, _WRITE_CHUNK):
            chunk = values[start:start + _WRITE_CHUNK]
            if chunk.dtype.kind == "f":
                cells = ["0.0"] * chunk.size
                nonzero = np.flatnonzero((chunk != 0) | np.signbit(chunk))
                texts = map(repr, chunk[nonzero].tolist())
                for i, text in zip(nonzero.tolist(), texts):
                    cells[i] = text
            else:
                cells = chunk.tolist()
            rows = zip(range(start, start + chunk.size), cells)
            f.write(line * chunk.size % tuple(chain.from_iterable(rows)))


def _read_counters_csv(path, n_counters: int) -> np.ndarray:
    """Counters as simulate writes them: header index,value, then rows of
    exactly those two fields, every index in [0, n_counters) exactly once
    with a count of ASCII digits only, at most 2^53, the range in which
    float64, the type both decoders work in, holds every integer. Raises
    ValueError naming the path and the index.

    A file in simulate's own form is read in bulk (`_bulk_counters`). Any
    other file, a refused one included, is read again by the csv row scan
    `_scan_counters_csv`, which names the first row at fault; the bulk read
    takes only files the scan reads, and gives the array the scan gives."""
    with open(path, "rb") as f:
        data = f.read()
    y = _bulk_counters(data, n_counters)
    return _scan_counters_csv(path, n_counters) if y is None else y


def _bulk_counters(data: bytes, n_counters: int) -> Optional[np.ndarray]:
    """The counters of a file whose header line is index,value and whose
    n_counters lines are each two fields of 1 to 16 ASCII digits joined by
    a comma, every line ended by \n or \r\n (the last may be unended),
    with every index once and every count at most 2^53; None for any
    other file."""
    for header in (b"index,value\r\n", b"index,value\n"):
        if data.startswith(header):
            break
    else:
        return None
    body = data[len(header):].replace(b"\r\n", b"\n")
    if not body.endswith(b"\n"):
        body += b"\n"
    u = np.frombuffer(body, dtype=np.uint8)
    sep = (u == ord(",")) | (u == ord("\n"))
    ends = np.flatnonzero(sep)  # one past the last digit of each field
    if ends.size != 2 * n_counters or not ((u - ord("0") < 10) | sep).all():
        return None
    width = np.diff(ends, prepend=-1) - 1
    if ((u[ends[0::2]] != ord(",")).any() or (u[ends[1::2]] != ord("\n")).any()
            or width.min() < 1 or width.max() > 16):  # no int64 overflow
        return None
    fields = np.fromstring(body.replace(b"\n", b","), dtype=np.int64, sep=",")
    index, count = fields[0::2], fields[1::2]
    if index.max() >= n_counters or count.max() > 2**53:
        return None
    seen = np.zeros(n_counters, dtype=bool)
    seen[index] = True
    if not seen.all():  # an index repeated, so another one is missing
        return None
    y = np.empty(n_counters)
    y[index] = count
    return y


def _scan_counters_csv(path, n_counters: int) -> np.ndarray:
    """`_read_counters_csv` row by row, by csv.reader: the first row that
    breaks a rule is named."""
    out = [None] * n_counters
    with open(path, newline="") as f:
        r = csv.reader(f)
        if next(r, None) != ["index", "value"]:
            raise ValueError(f"{path}: expected header index,value")
        for row in r:
            i = _plain_int(row[0]) if len(row) >= 2 else None
            if i is None:
                raise ValueError(f"{path}: malformed row {row!r}")
            if i >= n_counters:
                raise ValueError(f"{path}: index {row[0]} out of range")
            if len(row) > 2:
                raise ValueError(
                    f"{path}: index {i} has extra fields {row[2:]!r}; "
                    "expected index,value"
                )
            if out[i] is not None:
                raise ValueError(f"{path}: index {i} repeated")
            v = _plain_int(row[1])
            if v is None:
                raise ValueError(
                    f"{path}: index {i} has value {row[1]!r}, "
                    "not a nonnegative integer count"
                )
            if v > 2**53:
                raise ValueError(
                    f"{path}: index {i} has value {row[1]!r}, "
                    "above 2^53, which float64 cannot hold exactly"
                )
            out[i] = v
    if None in out:
        raise ValueError(f"{path}: index {out.index(None)} missing")
    return np.array(out, dtype=np.float64)


def _plain_int(text: str) -> Optional[int]:
    """The value text spells in ASCII digits, [0-9]+, or None for any other
    text. Values above 2^53 read as 2^53 + 1, so that no digit string is
    too long for int()."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0") or "0"  # 2^53 has 16 digits
    return int(digits) if len(digits) <= 16 else 2**53 + 1


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
    from .stream import (SignalSpec, StreamState, check_window, gen_rates,
                         parse_dist, run_epochs)

    check_window(args.epochs, args.tau, least=0)
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
    _write_vector_csv(args.out_counters, state.y)
    if args.out_counts:
        _write_vector_csv(args.out_counts, state.x)
    print(
        f"simulated {args.epochs} epochs: total packets={int(state.x.sum())}, "
        f"counters -> {args.out_counters}"
    )
    return EXIT_OK


def _cmd_recover(args) -> int:
    if args.trace and args.decoder != "direct":
        raise UsageError("--trace dumps LP iterations; only --decoder direct has them")
    g = load_graph(args.graph)
    y = _read_counters_csv(args.counters, g.n_right)
    spec = DecodeSpec(
        decoder=args.decoder, k=args.k, l0=args.l0, gamma=args.gamma,
        levels=args.levels, penalty_mode=args.penalty_mode,
    )
    dec = decode(Observation(g, y, args.epochs, args.tau), spec)
    res = dec.result
    if args.decoder == "direct":
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
    _write_vector_csv(args.out, dec.estimate)
    print(f"estimate -> {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from . import experiment

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
    from . import experiment

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
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
