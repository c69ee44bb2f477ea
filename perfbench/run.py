"""flowsketch benchmark: seeded windowed workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-pmle-100k --seed 3 --seconds 50 --trace 0

A *window* is the unit of work. On ``sweep-pmle-100k`` it is one
``flowsketch.experiment.run_trial`` call (fresh graph and cover, rates, 40
epochs, decode, score), as ``flowsketch sweep`` runs per cell. On
``recover-5k-both`` it is one in-process ``flowsketch.cli.main(["recover",
...])`` call per decoder on that window's counters file, against one saved
bank. The benchmark drives only those user entry points, so the decode
pipeline behind them can be rebuilt without touching this file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the same
windows with spans recorded at layer boundaries (see spans.py) and prints the
per-layer metrics. ``--smoke`` runs one window. The last stdout line is the
JSON result; the full record (environment, per-window values, spans) is
written under ``.perfbench/`` in the checkout.

Exit codes: 0 result printed; 2 no flowsketch source in ./src; 3 the pinned
inputs of the default seed changed, so this is a different workload.
"""

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
SETUP_REPEATS = 5
RECOVER_POOL = 64  # counter files per recover run; windows cycle through them
EPOCHS = 40
# One BLAS thread: results, and so iteration counts, repeat exactly, and a run
# does not contend with itself on a small box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WHALES = {"kind": "constant", "value": 1.0}
MINNOWS = {"kind": "abs-gaussian", "value": 1e-6}

# Why each workload exists is recorded in BENCHMARK.json.
SWEEPS = {
    "sweep-pmle-100k": dict(n=100_000, m=3_000, d=10, k=10, decoders=["pmle-reduced"]),
}
RECOVER = {
    "recover-5k-both": dict(n=5_000, m=800, d=8, k=3, decoders=["direct", "pmle-reduced"]),
}
# The l1 budget handed to the pMLE decoder, as a sweep derives it by default.
L0_MARGIN = 0.25
WORKLOADS = list(SWEEPS) + list(RECOVER)

END_TO_END_UNITS = {
    "setup_s": "s",
    "window_p50_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "rel_l1_error_mean": "ratio",
    "window_ok_frac": "fraction",
}

# Per-layer time metrics: the self seconds of these spans, summed per window.
LAYER_TIMES = {
    "graph.build_s": ("graph.build_graph_with_cover", "graph.build_random_expander"),
    "graph.cover_s": ("graph.greedy_cover",),
    "graph.load_s": ("graph.load_graph",),
    "stream.gen_rates_s": ("stream.gen_rates",),
    "stream.simulate_s": ("stream.run_epochs",),
    "lp.basis_pursuit_s": ("lp.basis_pursuit",),
    "pmle.localize_s": ("pmle.localize_whales",),
    "pmle.exhaustive_s": ("pmle.pmle_exhaustive",),
    "pmle.sparse_solve_s": ("pmle.sparse_poisson_solve",),
    "pmle.reduced_self_s": ("pmle.pmle_reduced",),
    "metrics.score_s": ("metrics.relative_l1_error", "metrics.support_recovery_success"),
    "experiment.cell_self_s": ("experiment.run_trial",),
    "cli.recover_self_s": ("cli.main",),
}
LAYER_UNITS = {name: "s" for name in LAYER_TIMES}
LAYER_UNITS.update({
    "graph.cover_size": "count",
    "graph.cover_retries": "count",
    "stream.packets": "count",
    "stream.flow_epochs_per_s": "1/s",
    "lp.iterations": "count",
    "lp.s_per_iteration": "s",
    "lp.admm_frac": "fraction",
    "lp.not_optimal": "count",
    "pmle.a1_size": "count",
    "pmle.whales_in_a1_frac": "fraction",
    "pmle.candidates_scored": "count",
    "pmle.us_per_candidate": "us",
    "pmle.solve_iterations": "count",
    "trace.window_s": "s",
    "trace.layer_sum_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_window": "count",
})
# The calls a window times; other top-level spans (scoring) are outside it.
WORK_SPANS = ("experiment.run_trial", "cli.main")
# Exact counts that must repeat between two runs of one seed.
REPEATING_COUNTS = ("cover_size", "a1_size", "candidates", "lp_iterations", "packets")

# Run in a child process, so that each set-up sample pays the real import.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import flowsketch, flowsketch.cli
code = flowsketch.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(time.perf_counter() - t0)
sys.exit(code)
"""


class Refused(Exception):
    """The run is not comparable to the pinned workload."""


def derive_seed(seed: int, *parts) -> int:
    h = hashlib.sha256(repr((int(seed),) + parts).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def limit_blas_threads() -> None:
    """Set before numpy loads, and inherited by the set-up children."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(src: str, argv: list, repeats: int) -> list:
    env = dict(os.environ, PYTHONPATH=src)
    out = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class SweepWorkload:
    """Windows are run_trial(cfg, k, i) cells of a one-point sweep."""

    def __init__(self, name, work, n, m, d, k, decoders):
        self.name, self.work, self.k = name, work, k
        self.n, self.m, self.d, self.decoders = n, m, d, decoders

    def setup_argv(self, seed):
        return []

    def _config(self, seed):
        from flowsketch import experiment

        cfg = {
            "schema_version": 1, "n_flows": self.n, "n_counters": self.m,
            "degree": self.d, "epochs": EPOCHS, "tau": 1.0, "sweep": [self.k],
            "trials": 1, "whale_dist": WHALES, "minnow_dist": MINNOWS,
            "decoders": self.decoders, "root_seed": derive_seed(seed, self.name),
            "out_dir": self.work,
        }
        path = os.path.join(self.work, f"config-{seed}.json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=2)
        return experiment.load_config(path)

    def prepare(self, seed):
        self.cfg = self._config(seed)

    def canary_hash(self):
        rows = self._run(self._config(DEFAULT_SEED), 0)
        return rows[0].counter_hash

    def _run(self, cfg, i):
        from flowsketch import experiment

        return experiment.run_trial(cfg, self.k, i)

    def window(self, i):
        t0 = time.perf_counter()
        rows = self._run(self.cfg, i)
        dt = time.perf_counter() - t0
        problems = []
        if [r.decoder for r in rows] != list(self.decoders):
            problems.append(f"rows for {[r.decoder for r in rows]}")
        problems += [f"{r.decoder}: {r.note}" for r in rows if r.note]
        hashes = {r.counter_hash for r in rows}
        if len(hashes) != 1:
            problems.append(f"decoders saw different counters {hashes}")
        decodes = [(bool(r.success), float(r.rel_l1_error)) for r in rows if not r.note]
        whales = [r.whales_in_a1 for r in rows if r.whales_in_a1 is not None]
        return dict(seconds=dt, problems=problems, decodes=decodes,
                    counter_hash=min(hashes) if hashes else "", whales_in_a1=whales,
                    checks=["decoder_rows", "empty_notes", "shared_counters"])


class RecoverWorkload:
    """One saved bank; each window recovers one pre-generated counters file
    once per decoder."""

    def __init__(self, name, work, n, m, d, k, decoders):
        self.name, self.work, self.k = name, work, k
        self.n, self.m, self.d, self.decoders = n, m, d, decoders
        self.bank = os.path.join(work, "bank.txt")

    def setup_argv(self, seed):
        return ["gen-graph", "--flows", str(self.n), "--counters", str(self.m),
                "--degree", str(self.d), "--seed", str(derive_seed(seed, self.name, "bank")),
                "--out", self.bank]

    def _counters(self, g, seed, i):
        """Truth rates and the counters file text for window i."""
        from flowsketch.stream import Dist, SignalSpec, StreamState, gen_rates, run_epochs

        truth = gen_rates(SignalSpec(
            n_flows=self.n, k=self.k, whale_dist=Dist.from_dict(WHALES),
            minnow_dist=Dist.from_dict(MINNOWS),
            seed=derive_seed(seed, self.name, "signal", i),
        ))
        state = StreamState(graph=g, rates=truth, tau=1.0,
                            seed=derive_seed(seed, self.name, "stream", i))
        run_epochs(state, EPOCHS)
        text = "index,value\r\n" + "".join(f"{j},{int(v)}\r\n" for j, v in enumerate(state.y))
        return truth, text

    def prepare(self, seed):
        from flowsketch.graph import load_graph

        g = load_graph(self.bank)
        self.inputs = []
        for i in range(RECOVER_POOL):
            truth, text = self._counters(g, seed, i)
            path = os.path.join(self.work, f"counters-{i}.csv")
            with open(path, "w", newline="") as f:
                f.write(text)
            self.inputs.append((path, truth, hashlib.sha256(text.encode()).hexdigest()[:16]))

    def canary_hash(self):
        from flowsketch.graph import build_random_expander

        g = build_random_expander(self.n, self.m, self.d,
                                  derive_seed(DEFAULT_SEED, self.name, "bank"))
        _, text = self._counters(g, DEFAULT_SEED, 0)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def window(self, i):
        from flowsketch import cli, metrics

        counters, truth, chash = self.inputs[i % RECOVER_POOL]
        est_path = os.path.join(self.work, "estimate.csv")
        dt, problems, decodes, checks = 0.0, [], [], []
        for decoder in self.decoders:
            if os.path.exists(est_path):
                os.remove(est_path)
            argv = ["recover", "--graph", self.bank, "--counters", counters,
                    "--epochs", str(EPOCHS), "--decoder", decoder, "--out", est_path]
            if decoder != "direct":
                argv += ["--k", str(self.k), "--l0", repr((1.0 + L0_MARGIN) * truth.l1())]
            log = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(argv)
            dt += time.perf_counter() - t0
            checks.append(f"{decoder}:exit_code")
            if code != 0:
                problems.append(f"recover {decoder} exited {code}: {log.getvalue().strip()[-200:]}")
                continue
            checks.append(f"{decoder}:estimate_file")
            est, why = read_estimate(est_path, self.n)
            if why:
                problems.append(f"{decoder}: {why}")
                continue
            decodes.append((bool(metrics.support_recovery_success(est, truth)),
                            float(metrics.relative_l1_error(est, truth).value)))
        return dict(seconds=dt, problems=problems, decodes=decodes, counter_hash=chash,
                    whales_in_a1=[], whales=[int(j) for j in truth.whale_support],
                    checks=checks)


def read_estimate(path, n):
    """The estimate vector, or an explanation of why the file is wrong:
    it must list indices 0..n-1 once each with finite values >= 0."""
    import numpy as np

    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        return None, f"no estimate: {e}"
    if not rows or rows[0] != ["index", "value"] or len(rows) != n + 1:
        return None, f"estimate has {len(rows) - 1} rows, want {n} under index,value"
    idx = np.array([int(r[0]) for r in rows[1:]])
    est = np.array([float(r[1]) for r in rows[1:]])
    if not np.array_equal(idx, np.arange(n)):
        return None, "estimate indices are not 0..N-1 in order"
    if not np.isfinite(est).all() or (est < 0).any():
        return None, "estimate has a non-finite or negative entry"
    return est, ""


def install_spans(tracer) -> list:
    """Wrap each layer's public functions where their callers look them up.
    Returns the spans that could not be installed (missing attributes)."""
    from flowsketch import cli, experiment, graph, lp, metrics, pmle

    targets = [
        (experiment, "run_trial", "experiment.run_trial", None),
        (cli, "main", "cli.main", None),
        (experiment, "build_graph_with_cover", "graph.build_graph_with_cover",
         lambda out: {"cover_size": len(out[1]), "cover_retries": out[2]}),
        (graph, "build_random_expander", "graph.build_random_expander", None),
        (graph, "greedy_cover", "graph.greedy_cover", None),
        (cli, "load_graph", "graph.load_graph", None),
        (cli, "greedy_cover", "graph.greedy_cover", lambda cover: {"cover_size": len(cover)}),
        (experiment, "gen_rates", "stream.gen_rates", None),
        (experiment, "run_epochs", "stream.run_epochs",
         lambda st: {"packets": int(st.x.sum()), "flow_epochs": st.graph.n_left * st.n_epochs}),
        (lp, "basis_pursuit", "lp.basis_pursuit",
         lambda sol: {"lp_iterations": sol.iterations, "admm": sol.solver == "admm",
                      "not_optimal": sol.status != "optimal"}),
        (pmle, "localize_whales", "pmle.localize_whales",
         lambda loc: {"a1_size": int(loc.a1.size), "a1": [int(i) for i in loc.a1]}),
        (pmle, "pmle_reduced", "pmle.pmle_reduced",
         lambda res: {"candidates": res.n_evaluated}),
        (pmle, "pmle_exhaustive", "pmle.pmle_exhaustive",
         lambda res: {"exhaustive_candidates": res.n_evaluated}),
        (pmle, "sparse_poisson_solve", "pmle.sparse_poisson_solve",
         lambda res: {"solve_iterations": res.iterations}),
    ]
    for mod in (experiment, metrics):
        for fn in ("relative_l1_error", "support_recovery_success"):
            targets.append((mod, fn, f"metrics.{fn}", None))
    return [name for mod, attr, name, obs in targets
            if not tracer.wrap(mod, attr, name, obs)]


def layer_metrics(spans, windows, per_span_s) -> dict:
    """Median per window of each layer metric; fractions pool all windows."""
    from spans import self_times

    selfs = self_times(spans)
    per = [dict(times={}, counts={}, n=0, top=0.0) for _ in windows]
    for s, st in zip(spans, selfs):
        w = per[s[4]]
        if s[3] < 0 and s[0] in WORK_SPANS:
            w["top"] += s[2] - s[1]  # the timed calls; their spans' self times sum to this
        w["times"][s[0]] = w["times"].get(s[0], 0.0) + st
        w["n"] += 1
        for key, v in (s[5] or {}).items():
            if key == "a1":
                w["a1"] = set(v)
            else:
                w["counts"][key] = w["counts"].get(key, 0) + v
    rows = []
    for w, win in zip(per, windows):
        t, c = w["times"], w["counts"]
        row = {m: sum(t.get(n, 0.0) for n in names) for m, names in LAYER_TIMES.items()}
        row["graph.cover_size"] = c.get("cover_size", 0)
        row["graph.cover_retries"] = c.get("cover_retries", 0)
        row["stream.packets"] = c.get("packets", 0)
        sim = row["stream.simulate_s"]
        row["stream.flow_epochs_per_s"] = c.get("flow_epochs", 0) / sim if sim else 0.0
        row["lp.iterations"] = c.get("lp_iterations", 0)
        its = row["lp.iterations"]
        row["lp.s_per_iteration"] = row["lp.basis_pursuit_s"] / its if its else 0.0
        row["lp.not_optimal"] = c.get("not_optimal", 0)
        row["pmle.a1_size"] = c.get("a1_size", 0)
        row["pmle.candidates_scored"] = c.get("candidates", 0)
        ex = c.get("exhaustive_candidates", 0)
        row["pmle.us_per_candidate"] = 1e6 * row["pmle.exhaustive_s"] / ex if ex else 0.0
        row["pmle.solve_iterations"] = c.get("solve_iterations", 0)
        row["trace.window_s"] = win["seconds"]
        row["trace.spans_per_window"] = w["n"]
        # Tracing cost: window time outside the timed calls' spans, plus the
        # calibrated bookkeeping each span hides inside its parent.
        row["trace.overhead_s"] = win["seconds"] - w["top"] + per_span_s * w["n"]
        rows.append((row, c))
    out = {m: median([r[m] for r, _ in rows]) for m in rows[0][0]}
    # Events are totals over the run, so a rare one is not hidden by a median.
    out["lp.not_optimal"] = sum(r["lp.not_optimal"] for r, _ in rows)
    out["graph.cover_retries"] = sum(r["graph.cover_retries"] for r, _ in rows)
    solves = sum(1 for s in spans if s[0] == "lp.basis_pursuit")
    admm = sum(1 for s in spans if s[0] == "lp.basis_pursuit" and (s[5] or {}).get("admm"))
    out["lp.admm_frac"] = admm / solves if solves else 0.0
    # Sweep rows report whales_in_a1; on recover the localized set comes from
    # the span and the truth from the window.
    whales = [x for win in windows for x in win["whales_in_a1"]]
    whales += [set(win["whales"]) <= w["a1"] for w, win in zip(per, windows)
               if "a1" in w and "whales" in win]
    out["pmle.whales_in_a1_frac"] = sum(whales) / len(whales) if whales else 0.0
    out["trace.layer_sum_s"] = sum(out[m] for m in LAYER_TIMES)
    return out, [{k: c.get(k) for k in REPEATING_COUNTS} for _, c in rows]


def end_to_end(setup, windows) -> dict:
    ok = [w for w in windows if not w["problems"]]
    decodes = [d for w in ok for d in w["decodes"]]
    secs = [w["seconds"] for w in windows]
    return {
        "setup_s": median(setup),
        "window_p50_s": median(secs),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": sum(s for s, _ in decodes) / len(decodes) if decodes else 0.0,
        "rel_l1_error_mean": statistics.fmean(r for _, r in decodes) if decodes else 0.0,
        "window_ok_frac": len(ok) / len(windows),
    }


def cgroup_cpu_max():
    """The cgroup CPU limit, read only: v2 cpu.max, else v1 quota/period."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
            quota = f.read().strip()
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
            return f"{quota} {f.read().strip()} (cgroup v1 quota/period)"
    except OSError:
        return None


def environment(src) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the record is informative only
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    # A checkout without git history is still identified by its source.
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        with open(path, "rb") as f:
            digest.update(os.path.relpath(path, src).encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cgroup_cpu_max(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def check_pins(workload, seed, windows) -> int:
    """Compare counter hashes with those pinned for the default seed: the
    seed's own windows when it is the default, else window 0 of the default
    seed recomputed. Returns how many hashes were compared."""
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)[workload.name]
    if seed == DEFAULT_SEED:
        got = [w["counter_hash"] for w in windows[:len(pins)]]
        want = pins[:len(got)]
    else:
        got, want = [workload.canary_hash()], pins[:1]
    if got != want:
        raise Refused(
            f"{workload.name}: counter hashes of seed {DEFAULT_SEED} are {got}, "
            f"pinned {want}; the simulated inputs changed, so this is a different workload"
        )
    return len(got)


def run(args) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "flowsketch", "__init__.py")):
        print(f"no flowsketch source under {src}; run from a checkout root", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, src)
    import flowsketch

    if not os.path.abspath(flowsketch.__file__).startswith(src + os.sep):
        print(f"imported flowsketch from {flowsketch.__file__}, not {src}", file=sys.stderr)
        return 2
    from spans import Tracer, per_span_overhead

    name = args.workload
    work = os.path.join(root, ".perfbench", name)
    os.makedirs(work, exist_ok=True)
    spec = SWEEPS.get(name) or RECOVER[name]
    cls = SweepWorkload if name in SWEEPS else RecoverWorkload
    wl = cls(name, work, **spec)

    setup = setup_samples(src, wl.setup_argv(args.seed), 1 if args.smoke else SETUP_REPEATS)
    wl.prepare(args.seed)
    if args.seed != DEFAULT_SEED:
        pinned = check_pins(wl, args.seed, [])  # also warms lazy imports and caches

    tracer = Tracer()
    missing = install_spans(tracer) if args.trace else []
    windows = []
    start = time.perf_counter()
    try:
        while not windows or (not args.smoke and time.perf_counter() - start < args.seconds):
            tracer.window = len(windows)
            t0 = time.perf_counter()
            try:
                w = wl.window(tracer.window)
            except Exception as e:  # noqa: BLE001 - a failed window is counted, not fatal
                w = dict(seconds=time.perf_counter() - t0, problems=[f"{type(e).__name__}: {e}"],
                         decodes=[], counter_hash="", whales_in_a1=[], checks=[])
            windows.append(w)
    finally:
        tracer.restore()
    if args.seed == DEFAULT_SEED:
        pinned = check_pins(wl, args.seed, windows)

    failed = sum(1 for w in windows if w["problems"])
    env = environment(src)
    env["tracing_overhead_s_per_span"] = per_span_overhead()
    record = dict(workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  smoke=args.smoke, env=env, missing_spans=missing, pinned_hashes_checked=pinned,
                  windows=windows)
    if args.trace:
        values, counts = layer_metrics(tracer.spans, windows,
                                       env["tracing_overhead_s_per_span"])
        units = LAYER_UNITS
        record["counts"] = counts
        record["spans"] = tracer.spans
    else:
        values, units = end_to_end(setup, windows), END_TO_END_UNITS
        record["setup_samples"] = setup
        record["windows_per_s"] = len(windows) / sum(w["seconds"] for w in windows)
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}
    record["metrics"] = metrics
    out = os.path.join(work, f"result-trace{args.trace}-seed{args.seed}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1, default=str)

    for w in windows:
        for p in w["problems"]:
            print(f"window failed: {p}")
    print(f"{name}: {len(windows)} windows (window_p50_s is their median), record -> {out}")
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": len(windows),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run a single window")
    args = p.parse_args(argv)
    try:
        return run(args)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
