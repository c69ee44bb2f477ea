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
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .decoders import DECODERS, DecodeSpec, decode
from .graph import build_graph_with_cover
from .metrics import relative_l1_error, support_recovery_success
from .seeds import stable_seed
from .stream import Dist, RateVector, SignalSpec, StreamState, gen_rates, run_epochs

__all__ = [
    "AggregateRow",
    "ExperimentConfig",
    "ExperimentResult",
    "PmleOptions",
    "SolverOptions",
    "TrialRow",
    "emit_csv",
    "emit_plot_data",
    "load_config",
    "load_csv",
    "run_sweep",
]

SCHEMA_VERSION = 1

_ROW_FIELDS = [
    "k", "trial", "decoder", "success", "rel_l1_error", "rel_is_absolute",
    "abs_l1_error", "a1_size", "whales_in_a1", "counter_hash", "note",
]
_TIMING_FIELDS = ["k", "trial", "decoder", "wall_time_s"]
_AGG_FIELDS = [
    "k", "decoder", "n_trials", "success_prob", "success_half_width",
    "mean_rel_error", "rel_half_width", "mean_abs_error", "abs_half_width",
    "mean_time_s", "time_half_width",
]


@dataclass(frozen=True)
class SolverOptions:
    """Basis-pursuit tolerances and iteration cap; None takes the default."""

    iter_cap: Optional[int] = None
    tol_feas: Optional[float] = None
    tol_obj: Optional[float] = None


@dataclass(frozen=True)
class PmleOptions:
    """pMLE knobs. l0=None derives the budget per trial as
    (1+l0_margin)*||true rates||_1 (the class bound is assumed known)."""

    gamma: float = 1.0
    levels: int = 64
    penalty_mode: str = "l0-scaled"
    l0: Optional[float] = None
    l0_margin: float = 0.25


def _from_keys(cls, d: dict, where: str = ""):
    """cls(**d), refusing keys that name no field of cls and missing keys
    of fields without a default."""
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
    solver: SolverOptions = SolverOptions()
    pmle: PmleOptions = PmleOptions()
    out_dir: str = "results"

    def __post_init__(self):
        object.__setattr__(self, "sweep", tuple(int(k) for k in self.sweep))
        object.__setattr__(self, "decoders", tuple(self.decoders))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.sweep:
            raise ValueError("sweep must contain at least one k")
        for dec in self.decoders:
            if dec not in DECODERS:
                raise ValueError(f"unknown decoder {dec!r}; choose from {DECODERS}")
        if not self.decoders:
            raise ValueError("need at least one decoder")
        if self.epochs < 1 or self.tau <= 0:
            raise ValueError("need epochs >= 1 and tau > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Parse the JSON form written by save_config. Unknown or missing
        keys, at the top level or inside a block, raise ValueError."""
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
        d["solver"] = _from_keys(SolverOptions, d.get("solver", {}), "solver.")
        d["pmle"] = _from_keys(PmleOptions, d.get("pmle", {}), "pmle.")
        return _from_keys(cls, d)


def load_config(path) -> ExperimentConfig:
    with open(path) as f:
        return ExperimentConfig.from_dict(json.load(f))


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as f:
        json.dump({"schema_version": SCHEMA_VERSION, **asdict(cfg)}, f,
                  indent=2, sort_keys=True)
        f.write("\n")


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


@dataclass
class ExperimentResult:
    rows: list
    aggregates: list = field(default_factory=list)

    @classmethod
    def from_rows(cls, rows: list) -> "ExperimentResult":
        rows = sorted(rows, key=lambda r: (r.k, r.trial, r.decoder))
        return cls(rows=rows, aggregates=compute_aggregates(rows))


def _mean_hw(values: np.ndarray) -> tuple[float, float]:
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
        rel = np.array([r.rel_l1_error for r in rs])
        rel = rel[np.isfinite(rel)]
        ab = np.array([r.abs_l1_error for r in rs])
        ab = ab[np.isfinite(ab)]
        t = np.array([r.wall_time_s for r in rs])
        t = t[np.isfinite(t)]
        mr, mr_hw = _mean_hw(rel)
        ma, ma_hw = _mean_hw(ab)
        mt, mt_hw = _mean_hw(t)
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
    failure; the row records the exception instead."""
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
    y = state.y
    counter_hash = hashlib.sha256(y.tobytes()).hexdigest()[:16]

    rows = []
    for decoder in cfg.decoders:
        t0 = time.perf_counter()
        try:
            spec = DecodeSpec(
                decoder=decoder, k=k,
                l0=None if decoder == "direct" else _derive_l0(cfg.pmle, truth),
                gamma=cfg.pmle.gamma, levels=cfg.pmle.levels,
                penalty_mode=cfg.pmle.penalty_mode, **asdict(cfg.solver),
            )
            dec = decode(g, y, cfg.epochs, cfg.tau, spec, cover)
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
        ks, ts = zip(*tasks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(run_trial, [cfg] * len(tasks), ks, ts):
                rows.extend(chunk)
    return ExperimentResult.from_rows(rows)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_opt_bool(s: str) -> Optional[bool]:
    return None if s == "" else s == "1"


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
    if path.endswith(".csv"):
        return path[:-4] + f".{tag}.csv"
    return path + f".{tag}.csv"


def _float_or_nan(s: str) -> float:
    return float(s) if s else math.nan


def load_csv(path) -> ExperimentResult:
    """Read rows plus the timing sidecar, recompute aggregates, and verify
    they match the stored aggregate file value for value."""
    path = str(path)
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        if header != _ROW_FIELDS:
            raise ValueError(f"{path}: unexpected header {header}")
        raw = list(r)
    timings = {}
    try:
        with open(_sibling(path, "timings"), newline="") as f:
            tr = csv.reader(f)
            theader = next(tr)
            if theader != _TIMING_FIELDS:
                raise ValueError(f"{path}: unexpected timing header {theader}")
            for row in tr:
                timings[(int(row[0]), int(row[1]), row[2])] = float(row[3])
    except FileNotFoundError:
        pass
    rows = []
    for row in raw:
        k, trial, decoder = int(row[0]), int(row[1]), row[2]
        rows.append(TrialRow(
            k=k, trial=trial, decoder=decoder, success=row[3] == "1",
            rel_l1_error=_float_or_nan(row[4]), rel_is_absolute=row[5] == "1",
            abs_l1_error=_float_or_nan(row[6]),
            wall_time_s=timings.get((k, trial, decoder), math.nan),
            a1_size=int(row[7]), whales_in_a1=_parse_opt_bool(row[8]),
            counter_hash=row[9], note=row[10],
        ))
    res = ExperimentResult.from_rows(rows)
    _crosscheck_aggregates(res, _sibling(path, "agg"))
    return res


def _crosscheck_aggregates(res: ExperimentResult, agg_path: str) -> None:
    try:
        f = open(agg_path, newline="")
    except FileNotFoundError:
        return
    with f:
        r = csv.reader(f)
        header = next(r)
        if header != _AGG_FIELDS:
            raise ValueError(f"{agg_path}: unexpected header {header}")
        stored = list(r)
    if len(stored) != len(res.aggregates):
        raise ValueError(
            f"{agg_path}: {len(stored)} aggregate rows, "
            f"recomputed {len(res.aggregates)}"
        )
    for row, a in zip(stored, res.aggregates):
        want = _cells(a, _AGG_FIELDS)
        if row != want:
            raise ValueError(
                f"{agg_path}: stored aggregate {row} != recomputed {want}"
            )


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
