"""Command-line front end: instance files, experiment configs, reports.

The `optimize` entry point exposes four subcommands:

* ``run --config cfg.json``: execute a seeded batch of replicas and write
  a CSV row per replica plus a JSON report (config echo, summary,
  success and effort curves, best-so-far curves).
* ``oracle --instance file``: exhaustive brute force on small instances
  (tours up to 10 cities, packings up to 12 items), the reference answer
  the stochastic methods are judged against.
* ``project --class poly:2|exp:5|tsp|factorial --n N [--rate R]``:
  operation-count runtime projections.
* ``plot --input report.json --kind best_curve|pn_curve|effort_curve``:
  two-column text series for plotting tools.

Instance files: a minimal TSPLIB subset (EUC_2D node coordinates) and a
plain bin-packing text format (count, capacity, one size per line).
Budgets are evaluation counts; wall time is measured and reported but
takes part in no comparison and no determinism guarantee.  Replica i
always runs with seed base_seed + i, so a report is reproducible from
its own config echo.  The ``STOCHOPT_OUTPUT_DIR`` environment variable
sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .aco import aco_run
from .annealing import simulated_annealing
from .core import (
    Budget,
    Count,
    Fraction,
    NonNegative,
    OptimizationError,
    ParseError,
    ValidationError,
    Whole,
    check_fields,
    conform,
    field_types,
    read_text,
    success_time,
)
from .effort import (
    DEFAULT_CONFIDENCE,
    ComplexityClass,
    EffortUndefinedError,
    EnsembleStats,
    computational_effort,
    effort_steps,
    seconds_at,
    success_steps,
)
from .hopfield import hopfield_solve
from .local_search import hill_climb_first_accept, hill_climb_steepest, random_search
from .problems import (
    ContinuousLandscape,
    brute_force_packing,
    brute_force_tour,
    cube_fixture,
    parse_binpacking_file,
    parse_tsp_file,
)
from .swarm import pso_run
from .tabu import tabu_search

OUTPUT_DIR_ENV = "STOCHOPT_OUTPUT_DIR"
SCHEMA_VERSION = 1


# ---------------------------------------------------------------- parsing


def _read_json(path):
    """The JSON document in the file at `path`; malformed JSON raises `ParseError` naming it."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _anchor_instance(desc, base: Path):
    """Rebase a relative instance path that only resolves next to its config.

    Paths that resolve from the working directory win, so command-line
    relative paths keep their usual meaning; otherwise the path is read
    from the config's own directory.  No other directory is searched, so
    a same-named file higher up the tree is never picked up.
    """

    def rebase(text):
        p = Path(text)
        if p.is_absolute() or p.exists():
            return text
        candidate = base / p
        return str(candidate) if candidate.exists() else text

    if isinstance(desc, str):
        return rebase(desc)
    if isinstance(desc, dict) and isinstance(desc.get("path"), str):
        rebased = rebase(desc["path"])
        if rebased != desc["path"]:
            return {**desc, "path": rebased}
    return desc


def _check_keys(what: str, given, accepted) -> None:
    """Reject any key of `given` outside `accepted`, naming it."""
    stray = sorted(set(given) - set(accepted))
    if stray:
        raise ValidationError(f"unknown {what}: {stray}; accepted: {sorted(accepted)}")


# inline instance descriptor: kind -> the keys it takes besides "kind"
INSTANCE_KEYS = {"tsp": ("path",), "binpacking": ("path",), "cube": (),
                 "continuous": ("objective", "dim", "bounds", "neighbor_radius")}


def _descriptor_kind(desc) -> str:
    """The kind of an inline instance descriptor, after checking its keys."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValidationError("instance must be a path or a dict with a 'kind' field")
    kind = desc["kind"]
    if kind not in INSTANCE_KEYS:
        raise ValidationError(f"unknown instance kind {kind!r}")
    _check_keys(f"{kind} instance keys", set(desc) - {"kind"}, INSTANCE_KEYS[kind])
    if "path" in INSTANCE_KEYS[kind] and not isinstance(desc.get("path"), str):
        raise ValidationError(f"a {kind} instance needs a 'path' string")
    return kind


# instance file suffix -> the kind of instance the file holds
SUFFIX_KINDS = {".tsp": "tsp", ".bp": "binpacking", ".bpp": "binpacking",
                ".pack": "binpacking", ".txt": "binpacking"}


def load_instance(desc):
    """Build a problem from a path string or an inline descriptor dict."""
    if isinstance(desc, str):
        suffix = Path(desc).suffix.lower()
        if suffix not in SUFFIX_KINDS:
            raise ValidationError(
                f"cannot infer instance kind from suffix {suffix!r}; use an inline descriptor"
            )
        desc = {"kind": SUFFIX_KINDS[suffix], "path": desc}
    kind = _descriptor_kind(desc)
    if kind == "continuous":
        return ContinuousLandscape(**{k: v for k, v in desc.items() if k != "kind"})
    if kind == "cube":
        return cube_fixture()
    return (parse_tsp_file if kind == "tsp" else parse_binpacking_file)(desc["path"])


# ----------------------------------------------------------- experiments


# algorithm name -> (entry point's name in this module, its config block's keys);
# the entry point's signature supplies the rest (see `_entry_call`)
ALGORITHMS = {
    "random": ("random_search", ()),
    "hillclimb": ("hill_climb_first_accept", ("random_walk",)),
    "steepest": ("hill_climb_steepest", ("restart_on_optimum",)),
    "sa": ("simulated_annealing", ("kind", "t0", "lambda", "decrement", "steps_per_temp",
                                   "max_temperature_steps", "rescaled", "alpha")),
    "tabu": ("tabu_search", ("tenure", "aspiration", "intensification_weight",
                             "diversification_weight")),
    "hopfield": ("hopfield_solve", ("A", "B", "C", "D", "max_steps", "restarts")),
    "pso": ("pso_run", ("size", "p_increment", "g_increment", "vmax", "inertia")),
    "aco": ("aco_run", ("ants", "w_tau", "w_eta", "rho", "local_deposit", "q", "tau0", "rule")),
}
# block key -> the parameter it sets, where the two are spelled differently
ALIASES = {"lambda": "rate", "steps_per_temp": "steps_per_temperature",
           "A": "a", "B": "b", "C": "c", "D": "d"}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an instance, an algorithm, seeds, budget, outputs.

    `params` holds one block per algorithm family (key = algorithm name)
    so a config can carry, say, both `sa` and `tabu` blocks while only
    the active one is run; every block is checked and built at load.
    Unknown keys anywhere, and a `start` the algorithm cannot take, are
    refused.  Replica i runs with seed `seed + i`.
    """

    instance: object
    algorithm: str
    replicas: Count = 1
    seed: Whole = 0
    budget: Budget = field(default_factory=lambda: Budget(1000))
    params: dict = field(default_factory=dict)
    success: dict | None = None
    start: object = None
    label: str = "experiment"
    output_csv: str | None = None
    output_json: str | None = None

    def __post_init__(self):
        check_fields(self, "config")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(
                f"unknown algorithm {self.algorithm!r}; choose from {tuple(ALGORITHMS)}"
            )
        for name, block in self.params.items():
            if name not in ALGORITHMS:
                raise ValidationError(
                    f"params block {name!r} names no algorithm; choose from {tuple(ALGORITHMS)}"
                )
            if not isinstance(block, dict):
                raise ValidationError(f"the {name!r} block must be an object")
            _check_keys(f"{name} keys", block, ALGORITHMS[name][1])
        success_threshold(self.success)
        if not isinstance(self.instance, str):
            _descriptor_kind(self.instance)
        for name in dict.fromkeys([self.algorithm, *self.params]):  # check and build each block
            _entry_call(self, name)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValidationError(f"a config must be a JSON object, got {raw!r}")
        if "instance" not in raw or "algorithm" not in raw:
            raise ValidationError("config needs 'instance' and 'algorithm' fields")
        budget_raw = raw.get("budget", 1000)
        if isinstance(budget_raw, dict):
            _check_keys("budget keys", budget_raw, ("max_evaluations", "target_fitness"))
            if "max_evaluations" not in budget_raw:
                raise ValidationError("budget needs 'max_evaluations'")
            budget = Budget(**budget_raw)
        else:
            budget = Budget(budget_raw)
        success = raw.get("success")
        if success is not None and budget.target_fitness is None:
            budget = replace(budget, target_fitness=success_threshold(success))
        _check_keys("config fields", set(raw) - set(ALGORITHMS), [f.name for f in fields(cls)])
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError(f"'params' must be an object, got {params!r}")
        blocks = {k: v for k, v in raw.items() if k in ALGORITHMS}  # top-level blocks; params win
        given = {k: v for k, v in raw.items() if k not in ALGORITHMS}  # the dataclass checks them
        return cls(**{**given, "budget": budget, "params": {**blocks, **params}})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cfg = cls.from_dict(_read_json(path))
        if cfg.label == "experiment":
            cfg = replace(cfg, label=Path(path).stem)
        instance = _anchor_instance(cfg.instance, Path(path).parent)
        if instance is not cfg.instance:
            cfg = replace(cfg, instance=instance)
        return cfg

    def echo(self) -> dict:
        """Every field but the output paths, the budget as a dict: a report's `config`.

        An array `start` is echoed as a list, so the report can be written and
        its echo reruns to the same records.
        """
        config = asdict(self)
        del config["output_csv"], config["output_json"]
        if isinstance(self.start, np.ndarray):
            config["start"] = self.start.tolist()
        return config


def success_threshold(success: dict | None) -> float | None:
    """Cost level counting as success: a `threshold`, or `optimum` plus nonnegative slack."""
    if success is not None and not isinstance(success, dict):
        raise ValidationError(f"'success' must be an object, got {success!r}")
    if not success:
        return None
    _check_keys("success keys", success,
                ("threshold", "optimum", "relative", "absolute", "confidence"))

    def value(key, default=None, kind=float):
        return float(conform(kind, success.get(key, default), f"success {key!r}"))

    conform(Fraction, success.get("confidence", DEFAULT_CONFIDENCE), "success 'confidence'")
    if "threshold" in success:
        slack = [key for key in ("optimum", "relative", "absolute") if key in success]
        if slack:
            raise ValidationError(f"success 'threshold' cannot be given with {slack}")
        return value("threshold")
    if "optimum" not in success:
        raise ValidationError("success block needs 'optimum' or 'threshold'")
    opt = value("optimum")
    return (opt + abs(opt) * value("relative", 1e-9, NonNegative)
            + value("absolute", 0.0, NonNegative))


def _settings(parameters) -> tuple:
    """(keyword, X) for the parameter annotated `X | None` with X a dataclass, else (None, None)."""
    for name, p in parameters.items():
        args = typing.get_args(p.annotation)
        if len(args) == 2 and args[1] is type(None) and is_dataclass(args[0]):
            return name, args[0]
    return None, None


def _entry_call(cfg: ExperimentConfig, name: str | None = None):
    """(entry, keywords): each replica runs entry(problem, budget, seed, **keywords).

    `name` picks the block, by default the active algorithm's.  The entry's
    signature gives its settings dataclass (`_settings`) and whether it
    takes `start`; a `start` it cannot take is refused for the active
    algorithm only.  Each block key passes the type rule of the field or
    parameter it sets.
    """
    name = name or cfg.algorithm
    entry = globals()[ALGORITHMS[name][0]]  # at call time, so names patched here are used
    parameters = inspect.signature(entry, eval_str=True).parameters
    keyword, config = _settings(parameters)
    own = field_types(config) if config else {}
    kinds = {k: p.annotation for k, p in parameters.items()} | own
    settings = {}
    for key, value in cfg.params.get(name, {}).items():
        target = ALIASES.get(key, key)
        if target == "aspiration" and isinstance(value, bool):
            value = "best_so_far" if value else "off"
        settings[target] = conform(kinds[target], value, f"{name} setting {key!r}")
    kwargs = {k: v for k, v in settings.items() if k not in own}
    if config is not None:
        kwargs[keyword] = config(**{k: v for k, v in settings.items() if k in own})
    if "start" in parameters:
        kwargs["start"] = cfg.start
    elif cfg.start is not None and name == cfg.algorithm:
        raise ValidationError(f"{name} takes no 'start'")
    return entry, kwargs


@dataclass
class ResultTable:
    config: dict
    rows: list
    summary: dict
    curves: list
    records: list | None = None
    csv_path: str | None = None
    json_path: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config,
            "rows": self.rows,
            "summary": self.summary,
            "curves": self.curves,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ResultTable":
        if not isinstance(data, dict):
            raise ValidationError(f"a report must be a JSON object, got {type(data).__name__}")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValidationError(
                f"unsupported report schema_version {data.get('schema_version')!r}"
            )
        for key, kind, word in (("config", dict, "object"), ("rows", list, "array"),
                                ("summary", dict, "object"), ("curves", list, "array")):
            if not isinstance(data.get(key), kind):
                raise ValidationError(f"a report needs {key!r} as a JSON {word}")
        for i, curve in enumerate(data["curves"]):
            if not isinstance(curve, dict) or not {"seed", "best_curve"} <= curve.keys():
                raise ValidationError(f"report curve {i} needs 'seed' and 'best_curve'")
            _check_pairs(curve["best_curve"], f"curve {i} 'best_curve'")
        for key in ("pn_curve", "effort_curve"):
            if key in data["summary"]:
                _check_pairs(data["summary"][key], f"summary {key!r}")
        return cls(
            config=data["config"],
            rows=data["rows"],
            summary=data["summary"],
            curves=data["curves"],
        )


def _check_pairs(curve, what: str) -> None:
    """Refuse a report curve that is not a list of [n, value] number pairs, naming it."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if not isinstance(curve, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(map(number, pair)) for pair in curve
    ):
        raise ValidationError(f"report {what} must be a list of [n, value] number pairs")


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> ResultTable:
    """Execute all replicas, assemble the table, write CSV and JSON."""
    problem = load_instance(cfg.instance)
    threshold = success_threshold(cfg.success)
    rows = []
    curves = []
    records = []
    total_wall = 0.0
    entry, kwargs = _entry_call(cfg)
    for i in range(cfg.replicas):
        seed = cfg.seed + i
        t0 = time.perf_counter()
        record = entry(problem, cfg.budget, seed, **kwargs)
        wall = time.perf_counter() - t0
        total_wall += wall
        records.append(record)
        succeeded = (
            success_time(record, threshold) is not None
            if threshold is not None
            else None
        )
        rows.append(
            {
                "seed": seed,
                "status": record.status,
                "best_fitness": record.best_fitness,
                "evaluations": record.evaluations,
                "success": succeeded,
                "wall_time_s": wall,
            }
        )
        curves.append(
            {"seed": seed, "best_curve": [[int(n), float(f)] for n, f in record.best_curve]}
        )
    ens = EnsembleStats(tuple(records), cfg.budget.max_evaluations, threshold)
    summary: dict = {
        "replicas": cfg.replicas,
        **ens.best_summary(),
        "total_wall_time_s": total_wall,
    }
    if threshold is not None:
        summary["success_threshold"] = threshold
        summary["successes"] = len(ens.success_times())
        summary["pn_curve"] = [[t, p] for t, p in success_steps(ens)]
        z = float(cfg.success.get("confidence", DEFAULT_CONFIDENCE))
        summary["confidence"] = z
        try:
            n_star, i_min = computational_effort(ens, z)
            summary["effort"] = {"n_star": n_star, "i_min": i_min}
            summary["effort_curve"] = [[t, i] for t, i in effort_steps(ens, z)]
        except EffortUndefinedError:
            summary["effort"] = None
            summary["effort_curve"] = []
    table = ResultTable(
        config=cfg.echo(),
        rows=rows,
        summary=summary,
        curves=curves,
        records=records,
    )
    _write_outputs(table, cfg, output_dir)
    return table


def _write_outputs(table: ResultTable, cfg: ExperimentConfig, output_dir=None):
    """Write the CSV and the report, one line of strict JSON.

    The report is encoded first, so a value JSON cannot hold raises before
    either file is opened.  `json.dumps` without `indent` runs CPython's C
    encoder; `json.dump` to a file, or any `indent`, runs the pure-Python one.
    """
    report = table.to_json_dict()
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:  # strict JSON has no Infinity: a replica with no solution reads null
        strict = json.loads(json.dumps(report), parse_constant=lambda _: None)
        text = json.dumps(strict, sort_keys=True)
    out_dir = Path(output_dir or os.environ.get(OUTPUT_DIR_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = Path(cfg.output_csv) if cfg.output_csv else out_dir / f"{cfg.label}.csv"
    json_path = Path(cfg.output_json) if cfg.output_json else out_dir / f"{cfg.label}.json"
    fieldnames = ["seed", "status", "best_fitness", "evaluations", "success", "wall_time_s"]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in table.rows:
            writer.writerow(row)
    json_path.write_text(text + "\n")
    table.csv_path = str(csv_path)
    table.json_path = str(json_path)


# ----------------------------------------------------------------- plots


PLOT_KINDS = ("best_curve", "pn_curve", "effort_curve")


def emit_plot_data(table: ResultTable, kind: str) -> str:
    """Two-column text, series separated by blank lines, '#' headers."""
    if kind not in PLOT_KINDS:
        raise ValidationError(f"plot kind must be one of {PLOT_KINDS}")
    if not table.rows:
        raise ValidationError("the table holds no runs to plot")
    lines: list[str] = []
    if kind == "best_curve":
        for series in table.curves:
            lines.append(f"# best-so-far, seed {series['seed']}")
            for n, f in series["best_curve"]:
                lines.append(f"{n} {f}")
            lines.append("")
    else:
        steps = table.summary.get(kind)
        if steps is None:
            raise ValidationError("no success predicate was configured for this run")
        lines.append("# cumulative success probability" if kind == "pn_curve" else
                     f"# computational effort at confidence {table.summary.get('confidence')}")
        for n, value in steps:
            lines.append(f"{n} {value}")
        lines.append("")
    return "\n".join(lines)


# ------------------------------------------------------------------ main


def _parse_complexity(text: str) -> ComplexityClass:
    base, _, param = text.partition(":")
    base = base.strip().lower()
    if base in ("poly", "exp"):
        try:
            value = float(param or (1 if base == "poly" else 2))
        except ValueError:
            raise ValidationError(f"complexity class {text!r}: {param!r} is not a number") from None
        return ComplexityClass(base, value)
    if base in ("tsp", "tsp_factorial"):
        return ComplexityClass("tsp_factorial")
    if base == "factorial":
        return ComplexityClass("factorial")
    raise ValidationError(
        f"unknown complexity class {text!r}; use poly:k, exp:base, tsp or factorial"
    )


def format_duration(seconds: float) -> str:
    if seconds != seconds or seconds == math.inf:
        return "beyond any horizon"
    if seconds < 1.0:
        return f"{seconds * 1e3:.4g} ms"
    if seconds < 60.0:
        return f"{seconds:.4g} s"
    if seconds < 3600.0:
        return f"{seconds / 60.0:.4g} minutes"
    if seconds < 86400.0:
        return f"{seconds / 3600.0:.4g} hours"
    if seconds < 365.0 * 86400.0:
        return f"{seconds / 86400.0:.4g} days"
    return f"{seconds / (365.0 * 86400.0):.4g} years"


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    table = run_experiment(cfg, output_dir=args.output_dir)
    s = table.summary
    print(
        f"{cfg.algorithm} on {cfg.label}: {cfg.replicas} replicas, "
        f"best median {s['best_median']:.6g}, best min {s['best_min']:.6g}"
    )
    if "successes" in s:
        print(f"successes: {s['successes']}/{cfg.replicas} at threshold {s['success_threshold']:.6g}")
        if s.get("effort"):
            print(f"effort: n*={s['effort']['n_star']}, I={s['effort']['i_min']}")
    print(f"wrote {table.csv_path} and {table.json_path}")
    return 0


def _cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    if inst.kind == "tsp":
        tour, length = brute_force_tour(inst)
        answer = {
            "instance": inst.name,
            "kind": "tsp",
            "optimum": length,
            "tour": [int(c) for c in tour],
        }
    else:
        bins, assignment = brute_force_packing(inst)
        answer = {
            "instance": inst.name,
            "kind": "binpacking",
            "optimum": int(bins),
            "assignment": [int(b) for b in assignment],
        }
    return _emit(json.dumps(answer, indent=2, sort_keys=True), args.out)


def _cmd_project(args) -> int:
    cls = _parse_complexity(args.cls)
    ops = cls.operations(args.n)
    seconds = seconds_at(ops, args.rate)
    print(f"operations: {ops}")
    print(f"seconds at {args.rate:g} ops/s: {seconds:.6g} ({format_duration(seconds)})")
    return 0


def _cmd_plot(args) -> int:
    table = ResultTable.from_json_dict(_read_json(args.input))
    return _emit(emit_plot_data(table, args.kind), args.out)


def _emit(text: str, out: str | None) -> int:
    """Print `text`, or write it to `out` with a final newline added if it lacks one."""
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optimize",
        description="Stochastic optimization toolkit: run experiments, "
        "query exact oracles, project runtimes, export plot data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument(
        "--output-dir",
        default=None,
        help=f"output directory (default: ${OUTPUT_DIR_ENV} or the working directory)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="exhaustive optimum for a small instance")
    p_oracle.add_argument("--instance", required=True, help=".tsp or bin-packing file")
    p_oracle.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_project = sub.add_parser("project", help="runtime projection for a complexity class")
    p_project.add_argument(
        "--class", dest="cls", required=True, help="poly:k, exp:base, tsp, factorial"
    )
    p_project.add_argument("--n", type=int, required=True, help="problem size")
    p_project.add_argument(
        "--rate", type=float, default=1e9, help="operations per second (default 1e9)"
    )
    p_project.set_defaults(fn=_cmd_project)

    p_plot = sub.add_parser("plot", help="columnar plot data from a JSON report")
    p_plot.add_argument("--input", required=True, help="report JSON from `optimize run`")
    p_plot.add_argument("--kind", required=True, choices=PLOT_KINDS)
    p_plot.add_argument("--out", default=None, help="write here instead of stdout")
    p_plot.set_defaults(fn=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OptimizationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
