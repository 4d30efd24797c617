"""stochopt benchmark: seeded ensembles through `run_experiment`, end to end.

    python3 benchmarks/run.py --workload trajectory --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload population --trace 1 --results out.jsonl
    python3 benchmarks/run.py --compare parent.jsonl change.jsonl

A run sets up the workload several times, then repeats whole passes of
it (see workloads.py) until --seconds is spent, at least three of them.
Each set-up and each pass is a fresh process started only after the
previous one has ended, so load comes from one process at a time;
numpy/BLAS threads are capped at the number of usable cores.  Reports
go to a temporary directory under .bench_tmp/ in the checkout, removed
afterwards.

All timings are in reference seconds (speed.py): a timer samples the
machine's speed with a fixed reference loop all through each pass, and
every interval is converted at the speed measured around it, because on
a shared machine the speed of a core swings by a third within seconds
while the work stays identical.  The report also prints each pass's
measured seconds.  Every pass does identical work, so each replica is
timed once per pass and its median time is kept, and likewise each
ensemble's overhead around its replicas; wall time is the sum of those
medians, and a per-replica median keeps one odd pass from moving a
percentile.  Set-up time is the median over all set-ups.  Every
replica's output is checked, and the sha256 digest of all run records
must be the same in every pass.

With --trace 1 the run alternates untraced and traced passes and reports
per-layer metrics from the traced ones (tracer.py); the traced records
must hash the same as the untraced ones.

The last line of output is one JSON object: correct, attempted, failed,
and the metrics BENCHMARK.json lists for the mode.  --results appends a
fuller record of the run to a JSON-lines file; --compare diffs two such
files, one row per workload and end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_BURST_S, ReferenceClock  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
SCRATCH = ROOT / ".bench_tmp"
HARD_LIMIT_S = 165.0  # the whole run, children included, ends well inside 180 s
SETUP_REPEATS = 6  # set-up-only processes per run, besides the set-up of each pass
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# name: (unit, better); the nine end-to-end metrics, printed on every run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "replica_ms_p50": ("ms", "lower"),
    "replica_ms_p90": ("ms", "lower"),
    "time_to_target_s": ("s", "lower"),
    "effort_evals": ("evaluations", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
}
# counts that repeat exactly for one seed; compare mode wants them equal
EXACT = ("effort_evals",)


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ratio(num, den) -> float:
    return num / den if den else 0.0


def tally(passes: list) -> tuple:
    """(replicas attempted, replicas failed) over every pass."""
    ensembles = [e for p in passes for e in p["ensembles"]]
    return sum(e["replicas"] for e in ensembles), sum(e["failed"] for e in ensembles)


# ------------------------------------------------------------------ passes


def _child_env() -> dict:
    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = cores
    return env


def run_pass(workload: str, seed: int, scratch: Path, mode: str | None, deadline: float) -> dict:
    """One child process; mode is None, "--trace" or "--setup-only"."""
    directory = Path(tempfile.mkdtemp(dir=scratch))
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(directory)] + ([mode] if mode else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"a {workload} pass ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"a {workload} pass failed:\n{proc.stderr.strip()}")
    result = to_reference_seconds(json.loads((directory / "result.json").read_text()))
    if mode == "--trace":
        from tracer import layer_metrics

        result.update(layer_metrics(directory / "spans.npz"))
    shutil.rmtree(directory)
    return result


def to_reference_seconds(result: dict) -> dict:
    """Replace a pass's raw clock readings by durations in reference seconds."""
    clock = ReferenceClock(result.pop("samples"))
    result["setup_s"] = clock.seconds(*result.pop("setup_interval"))
    measured = reference = 0.0
    for e in result.get("ensembles", ()):
        begin, end = e.pop("interval")
        e["wall_s"] = clock.seconds(begin, end)
        e["replica_s"] = [clock.seconds(*at) for at in e.pop("replica_intervals")]
        measured += end - begin
        reference += e["wall_s"]
    result["measured_s"] = measured
    result["scale"] = reference / measured if measured else None
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    """Set-ups, then passes (untraced, or untraced+traced pairs) until `seconds` is spent."""
    cycle = (None, "--trace") if trace else (None,)
    min_cycles = 1 if trace else 3
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    setups = [run_pass(workload, seed, scratch, "--setup-only", deadline)
              for _ in range(SETUP_REPEATS)]
    passes = []
    cycles = 0
    while True:
        for mode in cycle:
            passes.append(run_pass(workload, seed, scratch, mode, deadline))
        cycles += 1
        elapsed = time.monotonic() - start
        per_cycle = elapsed / cycles
        if cycles >= min_cycles and elapsed + per_cycle > seconds:
            break
        if elapsed + per_cycle > HARD_LIMIT_S:
            break
    return setups, passes


# ----------------------------------------------------------------- metrics


def typical(passes: list) -> list:
    """Per ensemble: (each replica's median time, the median overhead around them).

    The overhead is the ensemble's wall time minus its replicas' solve
    times: instance loading, statistics and report writing.
    """
    out = []
    for runs in zip(*(p["ensembles"] for p in passes)):
        replicas = [median(t) for t in zip(*(e["replica_s"] for e in runs))]
        overhead = median(e["wall_s"] - sum(e["replica_s"]) for e in runs)
        out.append((replicas, overhead))
    return out


def wall(per_ensemble: list) -> float:
    return sum(sum(replicas) + overhead for replicas, overhead in per_ensemble)


def end_to_end(passes: list, setups: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    attempted, failed = tally(passes)
    per_ensemble = typical(plain)
    wall_s = wall(per_ensemble)
    replica_s = [t for replicas, _ in per_ensemble for t in replicas]
    ensembles = plain[0]["ensembles"]
    exact = [(e, sum(replicas)) for e, (replicas, _) in zip(ensembles, per_ensemble)
             if e["exact"] and e["i_min"] is not None]
    return {
        "setup_s": median(p["setup_s"] for p in setups + plain),
        "wall_s": wall_s,
        "evals_per_s": sum(e["evaluations"] for e in ensembles) / wall_s,
        "replica_ms_p50": 1e3 * quantile(replica_s, 0.5),
        "replica_ms_p90": 1e3 * quantile(replica_s, 0.9),
        "time_to_target_s": sum(e["i_min"] * solve_s / e["evaluations"] for e, solve_s in exact),
        "effort_evals": sum(e["i_min"] for e, _ in exact),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        "failed_frac": ratio(failed, attempted),
    }


# (span name, field) pairs reported from the traced passes
SPAN_METRICS = (
    ("problems.validate", "calls"), ("problems.validate", "s"),
    ("problems.evaluate", "calls"), ("problems.evaluate", "self_s"),
    ("problems.sample_neighbor", "calls"), ("problems.sample_neighbor", "self_s"),
    ("problems.neighbors", "calls"), ("problems.neighbors", "self_s"),
    ("problems.freeze", "calls"), ("problems.freeze", "s"),
    ("core.evaluate", "calls"), ("core.evaluate", "self_s"),
    ("annealing.calibrate_t0", "s"),
    ("tabu.select_best_admissible", "calls"), ("tabu.select_best_admissible", "s"),
    ("aco.choose_next_city", "calls"), ("aco.choose_next_city", "s"),
    ("aco.local_update", "calls"), ("aco.local_update", "s"),
    ("aco.global_update", "calls"), ("aco.global_update", "s"),
    ("swarm.step_swarm", "calls"), ("swarm.step_swarm", "self_s"),
    ("swarm.update_velocity", "calls"), ("swarm.update_velocity", "s"),
    ("hopfield.build_weights", "calls"), ("hopfield.build_weights", "s"),
    ("hopfield.async_step", "calls"), ("hopfield.async_step", "s"),
    ("hopfield.is_fixed_point", "calls"), ("hopfield.is_fixed_point", "s"),
    ("effort.computational_effort", "calls"), ("effort.computational_effort", "s"),
    ("cli.config_load", "s"), ("cli.load_instance", "s"), ("cli.run_experiment", "self_s"),
)
# layers whose self time sums over every span of the module
SELF_TIME_LAYERS = ("local_search", "annealing", "tabu", "aco")


def _one_layer(p: dict) -> dict:
    """One traced pass's per-layer metrics; times in reference seconds."""
    spans = p["spans"]
    counts = p["counts"]
    k = p["scale"]
    m = {f"{name}.{field}": spans[name][field] * (1 if field == "calls" else k)
         for name, field in SPAN_METRICS}
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = k * sum(
            v["self_s"] for name, v in spans.items() if name.startswith(layer + ".")
        )
    m["problems.neighbors.mean_size"] = ratio(p["neighbor_sizes"],
                                              spans["problems.neighbors"]["calls"])
    m["core.improvements"] = counts.get("improvements", 0)
    m["annealing.uphill_accept_ratio"] = ratio(counts.get("uphill_accepted", 0),
                                               counts.get("uphill_proposed", 0))
    m["tabu.evals_per_iteration"] = ratio(counts.get("tabu_evaluations", 0),
                                          counts.get("tabu_iterations", 0))
    m["swarm.clamped_frac"] = ratio(counts.get("swarm_clamped", 0), counts.get("swarm_moves", 0))
    m["hopfield.weights_mb"] = p["hopfield_weights_mb"]
    m["hopfield.valid_fraction"] = ratio(counts.get("hopfield_valid", 0),
                                         counts.get("hopfield_restarts", 0))
    m["cli.report_bytes"] = sum(e["report_bytes"] for e in p["ensembles"])
    return m


def per_layer(passes: list, e2e: dict) -> dict:
    traced = [p for p in passes if p["traced"]]
    samples = [_one_layer(p) for p in traced]
    # median_low keeps counts whole: they repeat exactly from pass to pass
    m = {k: median_low(s[k] for s in samples) for k in samples[0]}
    m["trace.overhead_frac"] = wall(typical(traced)) / e2e["wall_s"] - 1.0
    m["effort_evals"] = e2e["effort_evals"]
    return m


# ------------------------------------------------------------------ checks


def self_check_trace(workload: str, passes: list):
    """Loud failures for a trace that could silently read zero."""
    for p in passes:
        if not p["traced"]:
            continue
        spans = p["spans"]
        idle = [n for n in WORKLOADS[workload].exercises if spans[n]["calls"] == 0]
        if idle:
            raise BenchmarkError(f"{workload}: traced layers recorded no calls: {idle}")
        evaluations = sum(e["evaluations"] for e in p["ensembles"])
        if spans["core.evaluate"]["calls"] != evaluations:
            raise BenchmarkError(
                f"{workload}: core.evaluate.calls = {spans['core.evaluate']['calls']}, "
                f"but the records hold {evaluations} evaluations"
            )


def correctness(passes: list) -> list:
    """Problems with the program's outputs, as messages (empty when correct)."""
    problems = []
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"record digests differ between passes: {sorted(digests)}")
    for p in passes:
        problems.extend(p["failures"])
    for e in passes[0]["ensembles"]:
        if e["floor"] is not None and (e["successes"] or 0) < e["floor"]:
            problems.append(
                f"{e['label']}: {e['successes']} of {e['replicas']} replicas succeeded, "
                f"below the shipped floor of {e['floor']}"
            )
    return problems


# ------------------------------------------------------------------ output


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except OSError as exc:
        raise BenchmarkError(f"cannot read {SPEC.name}: {exc}") from None


def print_report(workload: str, seed: int, passes: list, e2e: dict, layers: dict | None,
                 problems: list):
    first = passes[0]
    plain = [p for p in passes if not p["traced"]]
    attempted, failed = tally(passes)
    print(f"workload {workload}  seed {seed}  python {first['python']}  numpy {first['numpy']}"
          f"  nproc {len(os.sched_getaffinity(0))}  passes {len(plain)} untraced"
          f" + {len(passes) - len(plain)} traced")
    print(f"records sha256 {first['digest']}")
    print("timings: median over the identical passes, per replica and per ensemble;"
          " set-up: median of all set-ups")
    print(f"  in reference seconds (speed.py: one reference burst = {REFERENCE_BURST_S * 1e3:g} ms);"
          " measured s -> reference s per pass: "
          + ", ".join(f"{p['measured_s']:.3f} -> {p['measured_s'] * p['scale']:.3f}"
                      for p in plain))
    for e in first["ensembles"]:
        floor = f"  floor {e['floor']}" if e["floor"] is not None else ""
        success = f"  successes {e['successes']}/{e['replicas']}" if e["successes"] is not None else ""
        effort = f"  I_min {e['i_min']}" + (" (exact target)" if e["exact"] else "")
        print(f"  {e['label']:<18} {e['algorithm']:<9} replicas {e['replicas']:<4}"
              f" evals {e['evaluations']:<8}{success}{floor}{effort}  statuses {e['statuses']}")
    replicas = sum(len(e["replica_s"]) for e in first["ensembles"])
    notes = {
        "replica_ms_p50": f"{replicas} replicas per pass",
        "replica_ms_p90": f"{replicas} replicas per pass",
        "failed_frac": f"{failed} failed of {attempted} attempted",
    }
    print("end-to-end (untraced passes):")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name:<18} {e2e[name]!r:>24} {unit:<12} {better} is better"
              f"  {notes.get(name, '')}")
    if layers is not None:
        traced = [p for p in passes if p["traced"]][-1]
        raised = {k: v["raised"] for k, v in traced["spans"].items() if v["raised"]}
        print("per-layer (median over traced passes):")
        for name, value in layers.items():
            print(f"  {name:<40} {value!r}")
        print(f"  bases: {traced['counts']}; hopfield.weights_mb is computed from n;"
              f" calls that raised: {raised}")
    for message in problems:
        print(f"CHECK FAILED: {message}")


def result_line(spec: dict, mode: str, values: dict, correct: bool, passes: list) -> str:
    attempted, failed = tally(passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[mode]}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def append_results(path: Path, workload, seed, trace, passes, e2e, layers, correct):
    first = passes[0]
    record = {
        "workload": workload, "seed": seed, "trace": trace, "correct": correct,
        "python": first["python"], "numpy": first["numpy"], "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "passes": len(passes),
        "digest": first["digest"], "end_to_end": e2e, "per_layer": layers,
        "ensembles": {
            e["label"]: {"evaluations": e["evaluations"], "i_min": e["i_min"],
                         "solve_s": sum(replicas)}
            for e, (replicas, _) in zip(first["ensembles"],
                                        typical([p for p in passes if not p["traced"]]))
        },
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------- compare


def compare(path_a: Path, path_b: Path) -> int:
    """One row per workload x end-to-end metric: medians, quartiles, bound, verdict.

    Exact counts are compared seed by seed, failed_frac may not rise at
    all, and a metric BENCHMARK.json gives no bound is reported unjudged.
    """
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    sides = []
    for path in (path_a, path_b):
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        sides.append(rows)
    workloads = sorted({r["workload"] for side in sides for r in side})
    print(f"A = {path_a}   B = {path_b}")
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'bound':>6}  verdict")
    for w in workloads:
        a_runs = [r for r in sides[0] if r["workload"] == w]
        b_runs = [r for r in sides[1] if r["workload"] == w]
        if not a_runs or not b_runs:
            print(f"{w:<14} present on one side only")
            continue
        for name, (_, better) in END_TO_END.items():
            a = [r["end_to_end"][name] for r in a_runs]
            b = [r["end_to_end"][name] for r in b_runs]
            print(f"{w:<14} {name:<18} {_summary(a):>36} {_summary(b):>36} "
                  f"{bounds.get(name, '-')!s:>6}  "
                  f"{_verdict(name, a, b, a_runs, b_runs, better, bounds.get(name))}")
        _compare_exact_calls(w, a_runs, b_runs)
    return 0


def _summary(values) -> str:
    return (f"{median(values):.6g} [{quantile(values, 0.25):.6g}, "
            f"{quantile(values, 0.75):.6g}]")


def _verdict(name, a, b, a_runs, b_runs, better, bound) -> str:
    if name in EXACT:
        return _exact_verdict({r["seed"]: r["end_to_end"][name] for r in a_runs},
                              {r["seed"]: r["end_to_end"][name] for r in b_runs})
    ma, mb = median(a), median(b)
    if name == "failed_frac":
        return "worse" if mb > ma else "ok"
    worse_by = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    change = f"worse by {worse_by:.1%}" if worse_by > 0 else f"better by {abs(worse_by):.1%}"
    if bound is None:
        return f"{change}, no bound"
    spread = max((quantile(v, 0.75) - quantile(v, 0.25)) / median(v) for v in (a, b))
    b_always_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if worse_by > bound:
        return f"{change}: beyond the bound"
    if spread > bound and not b_always_better:
        return f"unresolved (spread {spread:.1%})"
    return f"ok ({change})"


def _exact_verdict(a: dict, b: dict) -> str:
    shared = sorted(set(a) & set(b))
    if not shared:
        return "exact: no seed in common"
    differ = [s for s in shared if a[s] != b[s]]
    if differ:
        return f"exact: differs on seeds {differ}"
    return f"exact: same on {len(shared)} seeds"


def _compare_exact_calls(workload, a_runs, b_runs):
    a = {r["seed"]: r["per_layer"] for r in a_runs if r.get("per_layer")}
    b = {r["seed"]: r["per_layer"] for r in b_runs if r.get("per_layer")}
    names = sorted({k for m in list(a.values()) + list(b.values()) for k in m
                    if k.endswith(".calls")})
    for name in names:
        verdict = _exact_verdict({s: m.get(name) for s, m in a.items()},
                                 {s: m.get(name) for s, m in b.items()})
        if not verdict.startswith("exact: same"):
            print(f"{workload:<14} {name:<40} {verdict}")


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps a running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, help="append this run to a JSON-lines file")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="diff two --results files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        spec = load_spec()
        if not (ROOT / "src" / "stochopt").is_dir():
            raise BenchmarkError(f"no stochopt sources under {ROOT / 'src'}")
        SCRATCH.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
                setups, passes = run_passes(args.workload, args.seed, args.seconds,
                                            bool(args.trace), Path(scratch))
        finally:
            try:
                SCRATCH.rmdir()
            except OSError:
                pass  # another run still uses it
        e2e = end_to_end(passes, setups)
        layers = None
        if args.trace:
            self_check_trace(args.workload, passes)
            layers = per_layer(passes, e2e)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    problems = correctness(passes)
    print_report(args.workload, args.seed, passes, e2e, layers, problems)
    if args.results:
        append_results(args.results, args.workload, args.seed, args.trace, passes, e2e,
                       layers, not problems)
    mode = "per_layer" if args.trace else "end_to_end"
    print(result_line(spec, mode, layers if args.trace else e2e, not problems, passes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
