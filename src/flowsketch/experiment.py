"""Sweep harness: run decoders over a grid of whale counts, persist results.

A sweep is fully determined by its config: per-trial seeds are derived by
hashing (root_seed, k, trial), so adding k values or reordering the sweep
never changes existing rows, and trials can run in any order or on any
worker count. Wall times are measured around decoding only and are kept
out of the deterministic results file (they land in a sidecar), so two
runs of the same config produce byte-identical results CSVs.
"""

import csv
import hashlib
import json
import math
import operator
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .decoders import DecodeSpec, Observation, check_decoder, decode
from .graph import _check_shape, build_graph_with_cover, is_integer
from .metrics import relative_l1_error, support_recovery_success
from .pmle import PmleConfig
from .seeds import stable_seed
from .stream import (Dist, RateVector, SignalSpec, StreamState, check_window,
                     gen_rates, run_epochs)

__all__ = [
    "AggregateRow",
    "ExperimentConfig",
    "ExperimentResult",
    "PmleOptions",
    "TrialRow",
    "emit_csv",
    "emit_plot_data",
    "load_config",
    "load_csv",
    "run_sweep",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PmleOptions:
    """pMLE knobs. l0=None derives the budget per trial as
    (1+l0_margin)*||true rates||_1 (the class bound is assumed known)."""

    gamma: float = DecodeSpec.gamma
    levels: int = DecodeSpec.levels
    penalty_mode: str = DecodeSpec.penalty_mode
    l0: Optional[float] = None
    l0_margin: float = 0.25


# the JSON type of a config value, by the annotation of its field; a
# boolean is neither an integer nor a number
_JSON_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    Optional[float]: ((int, float, type(None)), "a number or null"),
    str: (str, "a string"),
    tuple: (list, "a list"),
}


def _check_trial_inputs(cfg) -> None:
    """Refuse, naming its key, an input that would fail trials, before any
    runs: a graph shape no trial can build, or give a greedy cover (which
    needs a flow on every counter); by SignalSpec's rule, the whale
    distribution and each k; with a pmle decoder, by decoding's rules, each
    pmle knob. The budget is l0, with levels (for the step l0/levels), or
    1 + l0_margin per unit of true l1 mass; c must be in (0,1) at every k;
    pmle-exhaustive must pass the exhaustive guard over n_flows flows at
    that many levels."""
    def check(key, rule, *args):
        try:
            rule(*args)
        except ValueError as e:
            raise ValueError(f"key {key!r}: {e}") from None

    check("n_flows" if cfg.n_flows < 1 else "degree", _check_shape,
          cfg.n_flows, cfg.n_counters, cfg.degree)
    if cfg.n_flows * cfg.degree < cfg.n_counters:
        raise ValueError(
            f"key 'n_flows': {cfg.n_flows} flows of degree {cfg.degree} leave "
            f"some of {cfg.n_counters} counters with no flow, so no graph has "
            f"a greedy cover")
    check("whale_dist", SignalSpec, 0, 0, cfg.whale_dist, cfg.minnow_dist, 0)
    for k in cfg.sweep:
        check("sweep", SignalSpec, cfg.n_flows, k, cfg.whale_dist, cfg.minnow_dist, 0)
    if not set(cfg.decoders) - {"direct"}:
        return
    o = cfg.pmle
    check("pmle.penalty_mode", PmleConfig, 1.0, 1, 1, 0.0, 1, o.penalty_mode)
    check("pmle.levels", PmleConfig, 1.0, 1, o.levels, 0.0, 1)
    if o.l0 is not None:
        check("pmle.l0", PmleConfig, o.l0, 1, o.levels, 0.0, 1)
    else:
        check("pmle.l0_margin", PmleConfig, 1.0 + o.l0_margin, 1, 1, 0.0, 1)
    for k in cfg.sweep:  # k = 0 or N leaves no whale or no minnow
        check("pmle.gamma" if 0 < k < cfg.n_flows else "sweep",
              PmleConfig.from_problem, cfg.n_flows, k, 1.0, o.gamma)
    if "pmle-exhaustive" in cfg.decoders:
        check("decoders", PmleConfig(1.0, 1, o.levels, 0.0, 1).check_exhaustive,
              cfg.n_flows)


def _from_keys(cls, d: dict, where: str = ""):
    """cls(**d) for the JSON object d of block `where`, refusing keys that
    name no field of cls, missing keys of fields without a default, and
    values of another JSON type than their field's (see _JSON_TYPES)."""
    if not isinstance(d, dict):
        raise ValueError(f"key {where[:-1]!r} must be an object, got {json.dumps(d)}")
    names = {f.name for f in fields(cls)}
    required = {
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    }
    for problem, keys in (("unknown", set(d) - names),
                          ("missing", required - set(d))):
        if keys:
            raise ValueError(
                f"{problem} key " + ", ".join(repr(where + k) for k in sorted(keys))
            )
    for f in fields(cls):
        if f.name not in d or f.type not in _JSON_TYPES:
            continue
        types, what = _JSON_TYPES[f.type]
        if isinstance(d[f.name], bool) or not isinstance(d[f.name], types):
            raise ValueError(
                f"key {where + f.name!r} must be {what}, got {json.dumps(d[f.name])}"
            )
    return cls(**d)


@dataclass(frozen=True)
class ExperimentConfig:
    n_flows: int
    n_counters: int
    degree: int
    epochs: int
    tau: float
    sweep: tuple
    trials: int
    whale_dist: Dist
    minnow_dist: Dist
    decoders: tuple
    root_seed: int
    pmle: PmleOptions = PmleOptions()
    out_dir: str = "results"

    def __post_init__(self):
        if not all(map(is_integer, self.sweep)):
            raise ValueError(
                f"key 'sweep' must list integers, got {list(self.sweep)!r}"
            )
        object.__setattr__(self, "sweep", tuple(int(k) for k in self.sweep))
        object.__setattr__(self, "decoders", tuple(self.decoders))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.sweep:
            raise ValueError("sweep must contain at least one k")
        for dec in self.decoders:
            check_decoder(dec)
        if not self.decoders:
            raise ValueError("need at least one decoder")
        check_window(self.epochs, self.tau)
        _check_trial_inputs(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Parse the JSON form of a config (see the README). Unknown or
        missing keys, at the top level or inside a block, and values of
        the wrong JSON type raise ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got {json.dumps(d)}")
        d = dict(d)
        version = d.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema_version {version!r} unsupported "
                f"(expected {SCHEMA_VERSION})"
            )
        for key in ("whale_dist", "minnow_dist"):
            if key in d:
                d[key] = _from_keys(Dist, d[key], key + ".")
        d["pmle"] = _from_keys(PmleOptions, d.get("pmle", {}), "pmle.")
        return _from_keys(cls, d)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_dict(json.load(f))


@dataclass
class TrialRow:
    k: int
    trial: int
    decoder: str
    success: bool
    rel_l1_error: float  # nan on decoder failure
    rel_is_absolute: bool
    abs_l1_error: float
    wall_time_s: float
    a1_size: int  # -1 when the decoder has no localization stage
    whales_in_a1: Optional[bool]
    counter_hash: str
    note: str = ""


@dataclass
class AggregateRow:
    k: int
    decoder: str
    n_trials: int
    success_prob: float
    success_half_width: float
    mean_rel_error: float
    rel_half_width: float
    mean_abs_error: float
    abs_half_width: float
    mean_time_s: float
    time_half_width: float


# the results file holds a TrialRow but its wall time, which varies run to
# run and goes to the timings sidecar; the aggregate file an AggregateRow
_ROW_FIELDS = [f.name for f in fields(TrialRow) if f.name != "wall_time_s"]
_TIMING_FIELDS = ["k", "trial", "decoder", "wall_time_s"]
_AGG_FIELDS = [f.name for f in fields(AggregateRow)]


@dataclass
class ExperimentResult:
    """Trial rows sorted by (k, trial, decoder), and their aggregates."""

    rows: list
    aggregates: list = field(init=False)

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: (r.k, r.trial, r.decoder))
        self.aggregates = compute_aggregates(self.rows)


def _mean_hw(values: np.ndarray) -> tuple[float, float]:
    """Mean and 95% half-width of the finite values."""
    values = values[np.isfinite(values)]
    if values.size == 0:
        return math.nan, math.nan
    if values.size == 1:
        return float(values[0]), math.nan
    sem = values.std(ddof=1) / math.sqrt(values.size)
    return float(values.mean()), float(1.96 * sem)


def compute_aggregates(rows: list) -> list:
    groups = {}
    for r in rows:
        groups.setdefault((r.k, r.decoder), []).append(r)
    out = []
    for (k, dec) in sorted(groups):
        rs = groups[(k, dec)]
        n = len(rs)
        succ = np.array([1.0 if r.success else 0.0 for r in rs])
        p = float(succ.mean())
        p_hw = 1.96 * math.sqrt(p * (1 - p) / n)
        mr, mr_hw = _mean_hw(np.array([r.rel_l1_error for r in rs]))
        ma, ma_hw = _mean_hw(np.array([r.abs_l1_error for r in rs]))
        mt, mt_hw = _mean_hw(np.array([r.wall_time_s for r in rs]))
        out.append(AggregateRow(
            k=k, decoder=dec, n_trials=n, success_prob=p, success_half_width=p_hw,
            mean_rel_error=mr, rel_half_width=mr_hw, mean_abs_error=ma,
            abs_half_width=ma_hw, mean_time_s=mt, time_half_width=mt_hw,
        ))
    return out


def _derive_l0(opts: PmleOptions, truth: RateVector) -> float:
    if opts.l0 is not None:
        return opts.l0
    l1 = truth.l1()
    if l1 <= 0:
        raise ValueError("cannot derive an l1 budget from all-zero rates")
    return (1.0 + opts.l0_margin) * l1


def _failure_row(k, trial, decoder, counter_hash, dt, exc) -> TrialRow:
    note = f"{type(exc).__name__}: {exc}"
    return TrialRow(
        k=k, trial=trial, decoder=decoder, success=False,
        rel_l1_error=math.nan, rel_is_absolute=False, abs_l1_error=math.nan,
        wall_time_s=dt, a1_size=-1, whales_in_a1=None,
        counter_hash=counter_hash, note=note[:200],
    )


def run_trial(cfg: ExperimentConfig, k: int, trial: int) -> list:
    """All decoder rows for one (k, trial) cell. Never raises on decoder
    failure; the row records the exception instead.

    Under glibc, the heap pages the cell freed go back to the OS before it
    returns. glibc keeps freed pages resident while a small live block
    sits above them, and where such blocks land varies with address
    randomization, so without the trim the resident size after a cell at
    N = 10^5 differed by ~9 MB between runs of one seed."""
    rows = _cell_rows(cfg, k, trial)
    if sys.platform == "linux":
        import ctypes

        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
        if trim is not None:
            trim(0)
    return rows


def _cell_rows(cfg: ExperimentConfig, k: int, trial: int) -> list:
    ts = stable_seed(cfg.root_seed, "trial", k, trial)
    g, cover, _ = build_graph_with_cover(
        cfg.n_flows, cfg.n_counters, cfg.degree, stable_seed(ts, "graph")
    )
    truth = gen_rates(SignalSpec(
        n_flows=cfg.n_flows, k=k, whale_dist=cfg.whale_dist,
        minnow_dist=cfg.minnow_dist, seed=stable_seed(ts, "signal"),
    ))
    state = StreamState(graph=g, rates=truth, tau=cfg.tau,
                        seed=stable_seed(ts, "stream"))
    run_epochs(state, cfg.epochs)
    counter_hash = hashlib.sha256(state.y.tobytes()).hexdigest()[:16]
    obs = Observation(g, state.y, cfg.epochs, cfg.tau)

    rows = []
    for decoder in cfg.decoders:
        t0 = time.perf_counter()
        try:
            spec = DecodeSpec(
                decoder=decoder, k=k,
                l0=None if decoder == "direct" else _derive_l0(cfg.pmle, truth),
                gamma=cfg.pmle.gamma, levels=cfg.pmle.levels,
                penalty_mode=cfg.pmle.penalty_mode,
            )
            dec = decode(obs, spec, cover)
            dt = time.perf_counter() - t0
            est = dec.estimate
            a1_size, whales_in_a1 = -1, None
            loc = getattr(dec.result, "localization", None)
            if loc is not None:
                a1_size = int(loc.a1.size)
                whales_in_a1 = bool(np.isin(truth.whale_support, loc.a1).all())
            rel = relative_l1_error(est, truth)
            rows.append(TrialRow(
                k=k, trial=trial, decoder=decoder,
                success=support_recovery_success(est, truth),
                rel_l1_error=rel.value, rel_is_absolute=rel.is_absolute,
                abs_l1_error=float(np.abs(est - truth.rates).sum()),
                wall_time_s=dt, a1_size=a1_size, whales_in_a1=whales_in_a1,
                counter_hash=counter_hash,
            ))
        except Exception as exc:  # noqa: BLE001 - sweep must not abort
            dt = time.perf_counter() - t0
            rows.append(_failure_row(k, trial, decoder, counter_hash, dt, exc))
    return rows


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every (k, trial) cell and aggregate. Deterministic in
    cfg.root_seed regardless of worker count (rows are sorted, timings
    excluded from the deterministic surface)."""
    tasks = [(k, t) for k in cfg.sweep for t in range(cfg.trials)]
    rows = []
    if workers <= 1:
        for k, t in tasks:
            rows.extend(run_trial(cfg, k, t))
    else:
        from concurrent.futures import ProcessPoolExecutor

        ks, ts = zip(*tasks)
        # a pool starts all its workers at the first submit: no more than cells
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for chunk in pool.map(run_trial, [cfg] * len(tasks), ks, ts):
                rows.extend(chunk)
    return ExperimentResult(rows)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _flag(s: str) -> bool:
    """The inverse of _fmt on a bool."""
    if s not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {s!r}")
    return s == "1"


# the inverse of _fmt, by the annotation of a TrialRow field
_PARSE = {
    int: int,
    float: lambda s: float(s) if s else math.nan,
    bool: _flag,
    Optional[bool]: lambda s: None if s == "" else _flag(s),
    str: str,
}
_TYPES = {f.name: f.type for f in fields(TrialRow)}


def _cells(x, names: list) -> list:
    return [_fmt(getattr(x, n)) for n in names]


def emit_csv(res: ExperimentResult, path) -> None:
    """Write three files: the deterministic rows at `path`, wall times at
    `<path minus .csv>.timings.csv`, aggregates at `<...>.agg.csv`."""
    path = str(path)
    for out, names, items in (
        (path, _ROW_FIELDS, res.rows),
        (_sibling(path, "timings"), _TIMING_FIELDS, res.rows),
        (_sibling(path, "agg"), _AGG_FIELDS, res.aggregates),
    ):
        with open(out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(names)
            w.writerows(_cells(x, names) for x in items)


def _sibling(path: str, tag: str) -> str:
    return path.removesuffix(".csv") + f".{tag}.csv"


def _read_table(path, names: list, parse: bool = False) -> list:
    """The rows of the CSV file at path below its header, which must be
    `names`, each row holding one cell per name. With parse, each row is a
    dict of the TrialRow field values its cells spell (see _PARSE). Raises
    ValueError naming the file, and the line of a row of another length or
    of a cell that does not parse."""
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != names:
            raise ValueError(f"{path}: unexpected header {header}")
        rows = []
        for row in r:
            if len(row) != len(names):
                raise ValueError(f"{path}: line {r.line_num} has {len(row)} "
                                 f"fields, expected {len(names)}")
            if parse:
                try:
                    row = {n: _PARSE[_TYPES[n]](c) for n, c in zip(names, row)}
                except ValueError as e:
                    raise ValueError(f"{path}: line {r.line_num}: {e}") from None
            rows.append(row)
    return rows


def load_csv(path) -> ExperimentResult:
    """Read rows plus the timing sidecar, recompute aggregates, and verify
    they match the stored aggregate file value for value."""
    path = str(path)
    raw = _read_table(path, _ROW_FIELDS, parse=True)
    key = operator.itemgetter("k", "trial", "decoder")
    try:
        timings = {key(t): t["wall_time_s"]
                   for t in _read_table(_sibling(path, "timings"), _TIMING_FIELDS,
                                        parse=True)}
    except FileNotFoundError:
        timings = {}
    rows = [TrialRow(**r, wall_time_s=timings.get(key(r), math.nan)) for r in raw]
    res = ExperimentResult(rows)
    _crosscheck_aggregates(res, _sibling(path, "agg"))
    return res


def _crosscheck_aggregates(res: ExperimentResult, agg_path: str) -> None:
    try:
        stored = _read_table(agg_path, _AGG_FIELDS)
    except FileNotFoundError:
        return
    want = [_cells(a, _AGG_FIELDS) for a in res.aggregates]
    if len(stored) != len(want):
        raise ValueError(
            f"{agg_path}: {len(stored)} aggregate rows, recomputed {len(want)}")
    for row, w in zip(stored, want):
        if row != w:
            raise ValueError(f"{agg_path}: stored aggregate {row} != recomputed {w}")


def emit_plot_data(res: ExperimentResult, metric: str, path) -> None:
    """Gnuplot-ready columns: k then one column per decoder."""
    metrics_map = {
        "success": lambda a: a.success_prob,
        "rel_error": lambda a: a.mean_rel_error,
        "time": lambda a: a.mean_time_s,
    }
    if metric not in metrics_map:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(metrics_map)}"
        )
    getter = metrics_map[metric]
    decoders = sorted({a.decoder for a in res.aggregates})
    ks = sorted({a.k for a in res.aggregates})
    table = {(a.k, a.decoder): getter(a) for a in res.aggregates}
    with open(path, "w") as f:
        f.write("# metric: " + metric + "\n")
        f.write("# k " + " ".join(decoders) + "\n")
        for k in ks:
            cells = [str(k)]
            for dec in decoders:
                v = table.get((k, dec), math.nan)
                cells.append(repr(float(v)))
            f.write(" ".join(cells) + "\n")
