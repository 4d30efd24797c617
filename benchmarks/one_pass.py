"""One pass of a workload, in a fresh process: set up, run, check.

    python3 benchmarks/one_pass.py --workload NAME --seed N --dir DIR [--trace | --setup-only]

Set-up time runs from before `import stochopt` until the first ensemble
starts: instance generation, file writing, loading every config from its
file, and parsing every instance through `load_instance`.  Then each
ensemble goes through `run_experiment`, with its reports written under
DIR, and every replica's output is checked.  From the start to the last
ensemble a speed.Sampler samples the machine's speed; the pass records
raw perf_counter readings (set-up, each ensemble, each replica) and the
samples, and run.py turns them into reference seconds.  The pass writes
DIR/result.json, and with --trace also DIR/spans.npz.  --setup-only
stops after set-up, so a run can time set-up more often than it runs
whole passes.

run.py starts passes one at a time and aggregates them; this script is
not meant to be run by hand.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import speed  # noqa: E402  (the script's own directory is on sys.path)

SAMPLER = speed.Sampler()
SAMPLER.run()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import stochopt  # noqa: E402
from stochopt import cli  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, is_exact, load_configs  # noqa: E402

MAX_FAILURE_MESSAGES = 20


def check_record(problem, record, budget: int) -> str | None:
    """Why a replica's output is wrong, or None when it checks out."""
    if record.evaluations > budget:
        return f"{record.evaluations} evaluations exceed the budget of {budget}"
    if record.best_solution is None:
        if record.status == "no_valid_tour" and record.evaluations == 0 and not record.best_curve:
            return None  # Hopfield decoded no tour: reported, not a failure
        return f"status {record.status!r} without a best solution"
    try:
        solution = problem.validate(record.best_solution)
        value = problem.evaluate(solution)
    except stochopt.OptimizationError as exc:
        return f"best solution fails validation: {exc}"
    if not math.isclose(value, record.best_fitness, rel_tol=1e-9, abs_tol=1e-12):
        return f"best solution re-evaluates to {value!r}, record says {record.best_fitness!r}"
    curve = record.best_curve
    if not curve:
        return "empty best_curve"
    if any(b[0] <= a[0] for a, b in zip(curve, curve[1:])):
        return "best_curve indices do not strictly rise"
    if any(b[1] >= a[1] for a, b in zip(curve, curve[1:])):
        return "best_curve values do not strictly fall"
    if curve[-1][1] != record.best_fitness:
        return "best_curve does not end at best_fitness"
    return None


def _jsonable(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def record_digest(labelled_records) -> str:
    """sha256 over the canonical JSON of every RunRecord of the pass."""
    payload = [[label, [r.to_dict() for r in records]] for label, records in labelled_records]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


def algorithm_counts(cfg, records) -> Counter:
    """Counters read from record extras, behind the per-layer ratios."""
    c = Counter(improvements=sum(len(r.best_curve) for r in records))
    for r in records:
        x = r.extras
        if cfg.algorithm == "sa":
            c["uphill_proposed"] += x["uphill_proposed"]
            c["uphill_accepted"] += x["uphill_accepted"]
        elif cfg.algorithm == "tabu":
            c["tabu_evaluations"] += r.evaluations
            c["tabu_iterations"] += x["iterations"]
        elif cfg.algorithm == "pso":
            size = int(cfg.params.get("pso", {}).get("size", 20))
            c["swarm_clamped"] += x["clamped_moves"]
            c["swarm_moves"] += x["sweeps"] * size
        elif cfg.algorithm == "hopfield":
            c["hopfield_valid"] += x["valid_tours"]
            c["hopfield_restarts"] += x["restarts"]
    return c


def set_up(workload, seed: int, directory: Path):
    """Configs, their parsed instances, and when set-up ended."""
    configs = load_configs(workload, seed, directory)
    problems = [cli.load_instance(cfg.instance) for cfg in configs]
    return configs, problems, time.perf_counter()


def run_pass(workload_name: str, seed: int, directory: Path, traced: bool) -> dict:
    workload = WORKLOADS[workload_name]
    replica_at: list = []
    tracer.time_replicas(replica_at)
    spans = None
    if traced:
        spans = tracer.Tracer()
        spans.install()

    configs, problems, setup_end = set_up(workload, seed, directory)

    tables = []
    for cfg in configs:
        first = len(replica_at)
        start = time.perf_counter()
        try:
            table = cli.run_experiment(cfg, output_dir=directory)
            error = None
        except Exception:  # the ensemble's records are lost: all its replicas fail
            table, error = None, traceback.format_exc(limit=3)
        tables.append((table, error, replica_at[first:], (start, time.perf_counter())))
    SAMPLER.stop()
    if spans is not None:
        spans.save(directory / "spans.npz")

    ensembles = []
    failures = []
    labelled_records = []
    counts: Counter = Counter()
    hopfield_n = 0
    for cfg, problem, (table, error, times, interval), spec in zip(
        configs, problems, tables, workload.ensembles
    ):
        records = table.records if table is not None else []
        if table is not None and len(times) != cfg.replicas:
            raise tracer.MissingTarget(
                f"{cfg.label}: timed {len(times)} replicas of {cfg.replicas}; run_experiment "
                "no longer calls the algorithms through stochopt.cli"
            )
        failed = 0
        if error is not None:
            failed = cfg.replicas
            failures.append(f"{cfg.label}: raised\n{error}")
        for record in records:
            why = check_record(problem, record, cfg.budget.max_evaluations)
            if why is not None:
                failed += 1
                failures.append(f"{cfg.label} seed {record.seed}: {why}")
        labelled_records.append((cfg.label, records))
        counts.update(algorithm_counts(cfg, records))
        if cfg.algorithm == "hopfield":
            hopfield_n = max(hopfield_n, problem.n)
        summary = table.summary if table is not None else {}
        effort = summary.get("effort")
        ensembles.append({
            "label": cfg.label,
            "algorithm": cfg.algorithm,
            "replicas": cfg.replicas,
            "failed": failed,
            "evaluations": sum(r.evaluations for r in records),
            "interval": interval,
            "replica_intervals": times,
            "exact": is_exact(cfg.success),
            "i_min": effort["i_min"] if effort else None,
            "successes": summary.get("successes"),
            "floor": spec.floor,
            "statuses": dict(Counter(r.status for r in records)),
            "report_bytes": (
                Path(table.csv_path).stat().st_size + Path(table.json_path).stat().st_size
                if table is not None else 0
            ),
        })

    return {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "setup_interval": (T_START, setup_end),
        "samples": SAMPLER.to_dict(),
        "ensembles": ensembles,
        "failures": failures[:MAX_FAILURE_MESSAGES],
        "counts": dict(counts),
        "hopfield_weights_mb": (hopfield_n**2) ** 2 * 8 / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,  # KiB on Linux
        "digest": record_digest(labelled_records),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        setup_end = set_up(WORKLOADS[args.workload], args.seed, args.dir)[2]
        SAMPLER.stop()
        result = {"setup_interval": (T_START, setup_end), "samples": SAMPLER.to_dict()}
    else:
        result = run_pass(args.workload, args.seed, args.dir, args.trace)
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
