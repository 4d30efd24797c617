import csv
import functools
import hashlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import types
from dataclasses import fields

import numpy as np
import pytest

from conftest import EXPERIMENTS, FIXTURES, REPO
from stochopt import (
    Budget,
    CoolingSchedule,
    ExperimentConfig,
    ParseError,
    TankParams,
    TabuConfig,
    TspInstance,
    ValidationError,
    format_duration,
    load_instance,
    main,
    parse_binpacking_file,
    parse_tsp_file,
    run_experiment,
    seeded_rng,
)
from stochopt import cli
from stochopt.cli import ResultTable, _parse_complexity, emit_plot_data, success_threshold
from stochopt.core import field_types, type_rule

TRI_TSP = """\
NAME: tri
TYPE: TSP
COMMENT: three points on a 3-4-5 frame
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 4
3 0 8
EOF
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------- parsing


def test_parse_tsp_minimal_file(tmp_path):
    inst = parse_tsp_file(_write(tmp_path, "tri.tsp", TRI_TSP))
    assert isinstance(inst, TspInstance)
    assert inst.name == "tri"
    assert inst.n == 3
    assert inst.d[0, 1] == 5.0
    assert inst.d[1, 2] == 5.0
    assert inst.d[0, 2] == 8.0


def test_parse_tsp_accepts_zero_based_indices(tmp_path):
    text = TRI_TSP.replace("1 0 0", "0 0 0").replace("2 3 4", "1 3 4").replace(
        "3 0 8", "2 0 8"
    )
    inst = parse_tsp_file(_write(tmp_path, "z.tsp", text))
    assert inst.d[0, 1] == 5.0


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: "NAME: tri\nTYPE: TSP\nEOF\n", "missing DIMENSION"),
        (lambda t: t.replace("3 0 8\n", ""), "has 2 entries, DIMENSION says 3"),
        (lambda t: t.replace("2 3 4", "2 3"), "expected 'index x y'"),
        (lambda t: t.replace("2 3 4", "2 three 4"), "non-numeric coordinate"),
        (lambda t: t.replace("2 3 4", "1 3 4"), "duplicate node index 1"),
        (lambda t: t.replace("3 0 8", "7 0 8"), "node indices must be 1..3"),
        (lambda t: t.replace("TYPE: TSP", "TYPE: ATSP"), "only TYPE: TSP"),
        (
            lambda t: t.replace("EUC_2D", "GEO"),
            "unknown edge weight type",
        ),
        (lambda t: t.replace("DIMENSION: 3", "DIMENSION: many"), "must be an integer"),
        (lambda t: t.replace("COMMENT: three points on a 3-4-5 frame\n", "stray\n"),
         "unrecognized line"),
        (lambda t: t.replace("2 3 4", "2 nan 4"), ":8: coordinates must be finite"),
        (lambda t: t.replace("2 3 4", "2 3 inf"), ":8: coordinates must be finite"),
    ],
)
def test_parse_tsp_rejects_malformed_files(tmp_path, mangle, message):
    path = _write(tmp_path, "bad.tsp", mangle(TRI_TSP))
    with pytest.raises(ParseError, match=message):
        parse_tsp_file(path)


def test_parse_tsp_needs_dimension_before_coordinates(tmp_path):
    text = (
        "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 0 8\nDIMENSION: 3\nEOF\n"
    )
    with pytest.raises(ParseError, match="DIMENSION must appear before"):
        parse_tsp_file(_write(tmp_path, "order.tsp", text))


def test_parse_binpacking_file(tmp_path):
    text = "# three items, unit bins\n3 1.0\n0.4 0.7  # one pair inline\n0.3\n"
    inst = parse_binpacking_file(_write(tmp_path, "toy.bp", text))
    assert inst.n == 3
    assert inst.name == "toy"
    np.testing.assert_allclose(inst.sizes, [0.4, 0.7, 0.3])


def test_parse_binpacking_normalizes_capacity(tmp_path):
    inst = parse_binpacking_file(_write(tmp_path, "cap.bp", "3 10\n4 7 3\n"))
    np.testing.assert_allclose(inst.sizes, [0.4, 0.7, 0.3])


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "need an item count and a capacity"),
        ("2 1.0\n0.4\n", "expected 2 sizes, found 1"),
        ("1 1.0\n1.5\n", "exceeds the capacity"),
        ("1 1.0\n-0.2\n", "item size must be positive"),
        ("1 1.0\nbig\n", "must be a number"),
        ("3.0 1.0\n0.4 0.4 0.2\n", ":1: item count must be a whole number, got '3.0'"),
        ("0 1.0\n", "item count must be positive"),
        ("1 0\n0.4\n", "capacity must be positive"),
        ("1 inf\n0.4\n", ":1: capacity must be finite"),
        ("2 1.0\n0.4\nnan\n", ":3: item size must be finite"),
    ],
)
def test_parse_binpacking_rejects_malformed_files(tmp_path, text, message):
    path = _write(tmp_path, "bad.bp", text)
    with pytest.raises(ParseError, match=message):
        parse_binpacking_file(path)


def test_load_instance_dispatch(tmp_path):
    tsp = _write(tmp_path, "tri.tsp", TRI_TSP)
    assert load_instance(str(tsp)).kind == "tsp"
    bp = _write(tmp_path, "toy.bp", "1 1.0\n0.4\n")
    assert load_instance(str(bp)).kind == "binpacking"
    with pytest.raises(ValidationError, match="cannot infer instance kind"):
        load_instance(str(tmp_path / "conf.yaml"))

    cube = load_instance({"kind": "cube"})
    assert cube.kind == "tabletop"
    cont = load_instance({"kind": "continuous", "objective": "multimodal_test",
                          "dim": 2, "bounds": [-1.0, 1.0]})
    assert cont.dim == 2 and cont.upper[0] == 1.0
    with pytest.raises(ValidationError, match="unknown instance kind"):
        load_instance({"kind": "sat"})
    with pytest.raises(ValidationError, match="path or a dict"):
        load_instance({"path": "x.tsp"})


# ------------------------------------------------------------ experiments


def test_success_threshold_rules():
    assert success_threshold(None) is None
    assert success_threshold({"threshold": 3.5}) == 3.5
    assert success_threshold({"optimum": 100.0, "relative": 0.05}) == pytest.approx(105.0)
    assert success_threshold({"optimum": 100.0}) == pytest.approx(100.0 + 1e-7)
    assert success_threshold({"optimum": 10.0, "relative": 0.0, "absolute": 2.0}) == 12.0
    with pytest.raises(ValidationError, match="'optimum' or 'threshold'"):
        success_threshold({"relative": 0.05})


def test_config_from_dict():
    raw = {
        "instance": {"kind": "cube"},
        "algorithm": "tabu",
        "replicas": 3,
        "seed": 9,
        "budget": 50,
        "tabu": {"tenure": 3},
        "success": {"optimum": 5.0},
    }
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.replicas == 3
    assert cfg.budget.max_evaluations == 50
    assert cfg.budget.target_fitness == pytest.approx(5.0 + 5e-9)
    assert cfg.params["tabu"] == {"tenure": 3}

    explicit = dict(raw, params={"tabu": {"tenure": 11}})
    cfg2 = ExperimentConfig.from_dict(explicit)
    assert cfg2.params["tabu"] == {"tenure": 11}  # params block wins

    with pytest.raises(ValidationError, match="unknown config fields"):
        ExperimentConfig.from_dict(dict(raw, typo=1))
    with pytest.raises(ValidationError, match="unknown algorithm"):
        ExperimentConfig.from_dict(dict(raw, algorithm="genetic"))
    with pytest.raises(ValidationError, match="config 'replicas' must be at least 1, got 0"):
        ExperimentConfig.from_dict(dict(raw, replicas=0))
    with pytest.raises(ValidationError, match="'instance' and 'algorithm'"):
        ExperimentConfig.from_dict({"algorithm": "tabu"})

    timed = ExperimentConfig.from_dict(
        {
            "instance": {"kind": "cube"},
            "algorithm": "random",
            "budget": {"max_evaluations": 7, "target_fitness": 5.0},
        }
    )
    assert timed.budget == Budget(7, 5.0)


_CUBE = {"instance": {"kind": "cube"}, "budget": 10}


@pytest.mark.parametrize(
    "raw, bad",
    [
        pytest.param({"algorithm": "sa", "sa": {"lamda": 0.5}}, "lamda", id="sa-lamda"),
        pytest.param({"algorithm": "sa", "sa": {"steps_per_tmp": 3}}, "steps_per_tmp",
                     id="sa-steps_per_tmp"),
        pytest.param({"algorithm": "tabu", "params": {"sa": {"rate": 0.5}}}, "rate",
                     id="idle-block-parameter-name"),
        pytest.param({"algorithm": "pso", "params": {"genetic": {"size": 4}}}, "genetic",
                     id="params-unknown-algorithm"),
        pytest.param({"algorithm": "random", "success": {"optimum": 5.0, "relativ": 0.5}},
                     "relativ", id="success-relativ"),
        pytest.param({"algorithm": "random", "budget": {"max_evaluations": 10, "target": 5.0}},
                     "target", id="budget-target"),
        pytest.param({"algorithm": "random",
                      "instance": {"kind": "continuous", "objectiv": "abs_linear"}},
                     "objectiv", id="instance-objectiv"),
        pytest.param({"algorithm": "random", "instance": {"kind": "cube", "path": "x.tsp"}},
                     "path", id="instance-key-of-another-kind"),
        pytest.param({"algorithm": "random", "instance": {"kind": "tsp"}}, "path",
                     id="tsp-without-path"),
        pytest.param({"algorithm": "random", "success": 5}, "success", id="success-not-object"),
        pytest.param({"algorithm": "random", "params": [1]}, "params", id="params-not-object"),
        pytest.param({"algorithm": "random", "budget": [10]}, "budget", id="budget-list"),
        pytest.param({"algorithm": "random", "replicas": "x"}, "replicas", id="replicas-text"),
        pytest.param({"algorithm": "random", "success": {"optimum": "abc"}}, "optimum",
                     id="optimum-text"),
        pytest.param({"algorithm": "sa", "sa": {"t0": "hot"}}, "t0", id="sa-t0-text"),
        pytest.param({"algorithm": "tabu", "tabu": {"tenure": [3]}}, "tenure",
                     id="tabu-tenure-list"),
        pytest.param({"algorithm": "random", "success": {"optimum": 5.0, "confidence": "abc"}},
                     "confidence", id="confidence-text"),
        pytest.param({"algorithm": "random", "success": {"optimum": 5.0, "confidence": 1.5}},
                     "confidence", id="confidence-out-of-range"),
        pytest.param({"algorithm": "random", "success": {"optimum": 10.0, "relative": -0.5}},
                     "success 'relative' must be at least 0", id="success-relative-negative"),
        pytest.param({"algorithm": "random", "success": {"optimum": 10.0, "absolute": -1}},
                     "success 'absolute' must be at least 0", id="success-absolute-negative"),
        pytest.param({"algorithm": "random",
                      "success": {"optimum": 10, "threshold": 3, "relative": 0.1}},
                     r"'threshold' cannot be given with \['optimum', 'relative'\]",
                     id="success-threshold-with-optimum"),
        pytest.param({"algorithm": "random", "success": {"threshold": 3, "absolute": 1}},
                     r"'threshold' cannot be given with \['absolute'\]",
                     id="success-threshold-with-absolute"),
        pytest.param({"algorithm": "random",
                      "budget": {"max_evaluations": 10, "target_fitness": "abc"}},
                     "target_fitness", id="target-fitness-text"),
        pytest.param({"algorithm": "hillclimb", "hillclimb": {"random_walk": "false"}},
                     "random_walk", id="bool-setting-text"),
        pytest.param({"algorithm": "random", "budget": float("inf")}, "budget",
                     id="budget-infinite"),
        pytest.param({"algorithm": "pso", "pso": {"vmax": float("nan")}}, "vmax",
                     id="pso-vmax-nan"),
        pytest.param({"algorithm": "hopfield", "hopfield": {"A": float("nan")}}, "'A'",
                     id="hopfield-A-nan"),
        pytest.param({"algorithm": "random", "replicas": 2.5}, "replicas",
                     id="replicas-fraction"),
        pytest.param({"algorithm": "tabu", "tabu": {"tenure": 2.5}}, "tenure",
                     id="tabu-tenure-fraction"),
        pytest.param({"algorithm": "tabu", "tabu": {"tenure": True}}, "tenure",
                     id="tabu-tenure-bool"),
        pytest.param({"algorithm": "random", "replicas": True}, "replicas", id="replicas-bool"),
        pytest.param({"algorithm": "random", "budget": True}, "budget", id="budget-bool"),
        pytest.param({"algorithm": "random", "seed": -3}, "seed", id="seed-negative"),
        pytest.param({"algorithm": "random", "label": ["a"]}, "label", id="label-list"),
        pytest.param({"algorithm": "random", "output_csv": 5}, "output_csv",
                     id="output_csv-number"),
        pytest.param({"algorithm": "tabu", "sa": {"t0": "hot", "lambda": True}},
                     "sa setting 't0'", id="idle-sa-t0-text"),
        pytest.param({"algorithm": "random", "tabu": {"tenure": -1}}, "tenure",
                     id="idle-tabu-tenure-negative"),
        pytest.param({"algorithm": "sa", "aco": {"rule": "x"}}, "aco setting 'rule'",
                     id="idle-aco-rule-unknown"),
    ]
    + [
        pytest.param({"algorithm": name, "start": 1}, "start", id=f"{name}-start")
        for name in ("random", "pso", "aco", "hopfield")
    ],
)
def test_config_rejects_unknown_keys(monkeypatch, raw, bad):
    def no_loading(desc):
        raise AssertionError("the instance was loaded before the config was checked")

    monkeypatch.setattr(cli, "load_instance", no_loading)
    with pytest.raises(ValidationError, match=bad):
        ExperimentConfig.from_dict({**_CUBE, **raw})


@pytest.mark.parametrize("path", sorted(EXPERIMENTS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_experiments_load(path):
    cfg = ExperimentConfig.from_file(path)
    assert cfg.label == path.stem
    load_instance(cfg.instance)


@pytest.mark.parametrize("name", list(cli.ALGORITHMS))
def test_every_table_key_reaches_a_parameter(name):
    entry, keys = cli.ALGORITHMS[name]
    parameters = inspect.signature(getattr(cli, entry), eval_str=True).parameters
    _, config = cli._settings(parameters)
    own = field_types(config) if config else {}
    for key in keys:
        target = cli.ALIASES.get(key, key)
        assert (target in own) != (target in parameters)
        kind = own[target] if target in own else parameters[target].annotation
        assert type_rule(kind) is not None, f"{key!r} has no type rule for {kind!r}"
    assert (config is not None) == (name in ("sa", "tabu", "hopfield", "pso", "aco"))


# Settings no config block can reach, each kept on purpose; any other is a
# switch only Python callers can set, so one config and seed no longer pin a run.
UNREACHABLE = {"CoolingSchedule.t_floor", "TabuConfig.elite_size",
               "AcoConfig.tau_min", "AcoConfig.tau_max"}


@pytest.mark.parametrize("name", list(cli.ALGORITHMS))
def test_every_setting_is_reachable_from_a_config_block(name):
    entry, keys = cli.ALGORITHMS[name]
    parameters = inspect.signature(getattr(cli, entry), eval_str=True).parameters
    keyword, config = cli._settings(parameters)
    reachable = {cli.ALIASES.get(key, key) for key in keys} | {"start", keyword}
    after_seed = list(parameters)[list(parameters).index("seed") + 1:]
    settings = [(entry, p) for p in after_seed]
    settings += [(config.__name__, f.name) for f in fields(config)] if config else []
    stray = {f"{owner}.{s}" for owner, s in settings if s not in reachable} - UNREACHABLE
    assert not stray, f"settable only from Python: {sorted(stray)}"


def _readme_block_table() -> dict:
    """README's block-key table: algorithm -> (block keys, whether it takes `start`)."""
    lines = (REPO / "README.md").read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("| algorithm"))
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[head + 2:]):
        name, keys, start = (cell.strip() for cell in line.strip("|").split("|"))
        firsts = (re.search(r"`([^`]*)`", item) for item in keys.split(","))
        table[name.strip("`")] = (tuple(m.group(1) for m in firsts if m), start == "yes")
    return table


def test_readme_block_table_matches_the_algorithm_table():
    table = _readme_block_table()
    assert list(table) == list(cli.ALGORITHMS)
    for name, (entry, keys) in cli.ALGORITHMS.items():
        parameters = inspect.signature(getattr(cli, entry)).parameters
        assert table[name] == (keys, "start" in parameters), name


def _entry_call(raw):
    return cli._entry_call(ExperimentConfig.from_dict({**_CUBE, **raw}))


def test_blocks_reach_entry_points_with_aliases_and_casts(monkeypatch, tmp_path):
    @functools.wraps(cli.simulated_annealing)  # casts follow the entry point's signature
    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(cli, "simulated_annealing", patched)
    entry, sa = _entry_call({
        "algorithm": "sa", "start": 1,
        "sa": {"lambda": "0.5", "steps_per_temp": 3.0, "t0": 2, "rescaled": 1},
    })
    assert entry is patched  # looked up on the module when the experiment runs
    assert sa == {"schedule": CoolingSchedule(t0=2, rate=0.5, steps_per_temperature=3),
                  "rescaled": True, "start": 1}
    assert type(sa["schedule"].steps_per_temperature) is int

    entry, tabu = _entry_call({"algorithm": "tabu", "tabu": {"aspiration": False}})
    assert entry is cli.tabu_search
    assert tabu == {"cfg": TabuConfig(aspiration="off"), "start": None}

    hopfield_solve = cli.hopfield_solve

    @functools.wraps(hopfield_solve)
    def solve(*args, **kwargs):
        return hopfield_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "hopfield_solve", solve)
    entry, hop = _entry_call({"algorithm": "hopfield", "hopfield": {"A": 7, "max_steps": 5}})
    assert entry is solve
    assert hop == {"p": TankParams(a=7.0), "max_steps": 5}
    entry, hop = _entry_call({"algorithm": "hopfield",
                              "hopfield": {"restarts": 3.0, "max_steps": 100.0}})
    assert hop == {"p": TankParams(), "restarts": 3, "max_steps": 100}
    assert type(hop["restarts"]) is int and type(hop["max_steps"]) is int

    tri = parse_tsp_file(_write(tmp_path, "tri.tsp", TRI_TSP))
    entry, hop = _entry_call({"algorithm": "hopfield", "hopfield": {"max_steps": 20}})
    record = entry(tri, Budget(4, target_fitness=0.0), 0, **hop)
    assert record.extras["restarts"] == 4  # restarts default to the budget
    assert record == hopfield_solve(tri, Budget(4), 0, max_steps=20)  # which sets no target


def test_config_from_file_labels_and_anchoring(tmp_path, monkeypatch):
    _write(tmp_path, "tri.tsp", TRI_TSP)
    nested = tmp_path / "configs" / "deep"
    nested.mkdir(parents=True)
    cfg_path = nested / "tri_random.json"
    cfg_path.write_text(json.dumps({"instance": "../../tri.tsp", "algorithm": "random"}))

    monkeypatch.chdir(tmp_path / "configs")  # instance not visible from cwd
    cfg = ExperimentConfig.from_file(cfg_path)
    assert cfg.label == "tri_random"  # file stem fills the default label
    assert cfg.instance == str(nested / "../../tri.tsp")  # read from the config's directory
    assert load_instance(cfg.instance).n == 3

    # a same-named file in an ancestor of the config's directory is not found
    stray = nested / "stray.json"
    stray.write_text(json.dumps({"instance": "tri.tsp", "algorithm": "random"}))
    assert ExperimentConfig.from_file(stray).instance == "tri.tsp"
    with pytest.raises(OSError):
        load_instance("tri.tsp")
    # one that resolves from the working directory still wins
    monkeypatch.chdir(tmp_path)
    assert ExperimentConfig.from_file(stray).instance == "tri.tsp"
    assert load_instance("tri.tsp").n == 3

    labeled = nested / "named.json"
    labeled.write_text(
        json.dumps({"instance": {"kind": "cube"}, "algorithm": "random", "label": "pet"})
    )
    assert ExperimentConfig.from_file(labeled).label == "pet"


def test_run_experiment_writes_table_and_files(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "instance": {"kind": "cube"},
            "algorithm": "random",
            "replicas": 3,
            "seed": 5,
            "budget": 40,
            "success": {"optimum": 5.0},
            "label": "cube_random",
        }
    )
    table = run_experiment(cfg, output_dir=tmp_path)

    assert [r["seed"] for r in table.rows] == [5, 6, 7]
    s = table.summary
    assert s["replicas"] == 3
    assert s["best_min"] == 5.0
    assert s["successes"] >= 1
    assert s["success_threshold"] == pytest.approx(5.0 + 5e-9)
    assert s["effort"] is not None
    probs = [p for _, p in s["pn_curve"]]
    assert probs == sorted(probs)

    with open(table.csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["5", "6", "7"]
    assert all(r["status"] in ("target_reached", "budget_exhausted") for r in rows)

    with open(table.json_path) as fh:
        data = json.load(fh)
    assert data["schema_version"] == 1
    assert data == table.to_json_dict()
    again = ResultTable.from_json_dict(data)
    assert again.summary == table.summary
    assert again.curves == table.curves

    with pytest.raises(ValidationError, match="schema_version"):
        ResultTable.from_json_dict(dict(data, schema_version=99))


@pytest.mark.parametrize("budget, evaluations", [
    (3, 3), ({"max_evaluations": 10, "target_fitness": 100.0}, 1),
])
def test_hopfield_rows_count_under_the_configured_budget(tmp_path, budget, evaluations):
    coords = seeded_rng(1).random((5, 2))  # tours of these five points decode at D = 40
    lines = ["NAME: unit5", "TYPE: TSP", "DIMENSION: 5", "EDGE_WEIGHT_TYPE: EUC_2D",
             "NODE_COORD_SECTION"]
    lines += [f"{k + 1} {x!r} {y!r}" for k, (x, y) in enumerate(coords.tolist())]
    path = _write(tmp_path, "unit5.tsp", "\n".join(lines + ["EOF"]) + "\n")
    cfg = ExperimentConfig.from_dict({"instance": str(path), "algorithm": "hopfield",
                                      "replicas": 3, "budget": budget,
                                      "hopfield": {"D": 40.0, "restarts": 10}})
    table = run_experiment(cfg, output_dir=tmp_path)
    assert [row["evaluations"] for row in table.rows] == [evaluations] * 3
    assert all(r.extras["restarts"] == evaluations for r in table.records)


def test_run_experiment_is_stable_apart_from_wall_time(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "instance": {"kind": "cube"},
            "algorithm": "sa",
            "replicas": 2,
            "budget": 60,
            "label": "cube_sa",
        }
    )

    def stripped(table):
        data = table.to_json_dict()
        data["summary"].pop("total_wall_time_s")
        for row in data["rows"]:
            row.pop("wall_time_s")
        return json.dumps(data, sort_keys=True)

    a = run_experiment(cfg, output_dir=tmp_path / "a")
    b = run_experiment(cfg, output_dir=tmp_path / "b")
    assert stripped(a) == stripped(b)


def test_output_dir_falls_back_to_environment(tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("STOCHOPT_OUTPUT_DIR", str(out))
    cfg = ExperimentConfig.from_dict(
        {"instance": {"kind": "cube"}, "algorithm": "random", "budget": 5,
         "label": "envtest"}
    )
    table = run_experiment(cfg)
    assert (out / "envtest.csv").exists()
    assert table.json_path == str(out / "envtest.json")


def test_explicit_output_paths_win(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "instance": {"kind": "cube"},
            "algorithm": "random",
            "budget": 5,
            "output_csv": str(tmp_path / "mine.csv"),
            "output_json": str(tmp_path / "mine.json"),
        }
    )
    table = run_experiment(cfg, output_dir=tmp_path / "ignored")
    assert table.csv_path == str(tmp_path / "mine.csv")
    assert (tmp_path / "mine.json").exists()


# ----------------------------------------------------------------- plots


def _small_table(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "instance": {"kind": "cube"},
            "algorithm": "random",
            "replicas": 2,
            "budget": 40,
            "success": {"optimum": 5.0},
            "label": "plotme",
        }
    )
    return run_experiment(cfg, output_dir=tmp_path)


def test_emit_plot_data(tmp_path):
    table = _small_table(tmp_path)
    best = emit_plot_data(table, "best_curve")
    assert best.startswith("# best-so-far, seed 0")
    assert best.count("# best-so-far") == 2
    for line in best.splitlines():
        if line and not line.startswith("#"):
            n, f = line.split()
            int(n), float(f)

    # both step curves, byte for byte: one run of the two succeeds by evaluation 4, both by 10
    assert emit_plot_data(table, "pn_curve") == (
        "# cumulative success probability\n4 0.5\n10 1.0\n")
    assert emit_plot_data(table, "effort_curve") == (
        "# computational effort at confidence 0.99\n4 28\n10 10\n")

    with pytest.raises(ValidationError, match="plot kind"):
        emit_plot_data(table, "histogram")


def test_emit_plot_data_error_cases(tmp_path):
    empty = ResultTable(config={}, rows=[], summary={}, curves=[])
    with pytest.raises(ValidationError, match="no runs"):
        emit_plot_data(empty, "best_curve")

    cfg = ExperimentConfig.from_dict(
        {"instance": {"kind": "cube"}, "algorithm": "random", "budget": 5,
         "label": "nopred"}
    )
    table = run_experiment(cfg, output_dir=tmp_path)
    with pytest.raises(ValidationError, match="no success predicate"):
        emit_plot_data(table, "pn_curve")


# ------------------------------------------------------------------ main


def test_parse_complexity_spellings():
    assert _parse_complexity("poly:2").parameter == 2.0
    assert _parse_complexity("exp:5").parameter == 5.0
    assert _parse_complexity("tsp").kind == "tsp_factorial"
    assert _parse_complexity("tsp_factorial").kind == "tsp_factorial"
    assert _parse_complexity("factorial").kind == "factorial"
    assert _parse_complexity("poly").parameter == 1.0
    with pytest.raises(ValidationError, match="unknown complexity class"):
        _parse_complexity("linear-ish")


def test_format_duration_ladder():
    assert format_duration(0.5) == "500 ms"
    assert format_duration(2.0) == "2 s"
    assert format_duration(120.0) == "2 minutes"
    assert format_duration(7200.0) == "2 hours"
    assert format_duration(172800.0) == "2 days"
    assert format_duration(2 * 365.0 * 86400.0) == "2 years"
    assert format_duration(float("inf")) == "beyond any horizon"
    assert format_duration(float("nan")) == "beyond any horizon"


def test_main_run_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "cube_tabu.json"
    cfg_path.write_text(
        json.dumps(
            {
                "instance": {"kind": "cube"},
                "algorithm": "tabu",
                "replicas": 2,
                "budget": 50,
                "tabu": {"tenure": 2},
                "success": {"optimum": 5.0},
            }
        )
    )
    rc = main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tabu on cube_tabu: 2 replicas" in out
    assert "successes: 2/2" in out
    assert "wrote" in out
    assert (tmp_path / "cube_tabu.csv").exists()


def test_a_report_without_solutions_is_strict_json(tmp_path, capsys):
    """A replica with no solution has best cost inf.  Its report writes null
    there, which RFC 8259 parsers accept, and the summary line and every
    plot still work on it."""
    cfg = _write(tmp_path, "none.json", json.dumps({
        "instance": str(FIXTURES / "eight.tsp"), "algorithm": "hopfield", "replicas": 2,
        "budget": 2, "hopfield": {"restarts": 1, "max_steps": 1},
        "success": {"optimum": 242.46491759376028, "relative": 0.01}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 0
    assert "2 replicas, best median inf, best min inf" in capsys.readouterr().out

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads((out / "none.json").read_text(), parse_constant=refuse)
    assert [row["best_fitness"] for row in report["rows"]] == [None, None]
    assert {report["summary"][f"best_{k}"] for k in ("min", "median", "mean", "max")} == {None}
    for kind in cli.PLOT_KINDS:
        assert main(["plot", "--input", str(out / "none.json"), "--kind", kind]) == 0
        assert capsys.readouterr().out.startswith("# ")


# a report of each kind: sha256 of its CSV bytes and of its JSON value, re-encoded
# with sorted keys, both taken from the indented reports written before the
# report became one line; the clock in `_clocked_run` makes wall times repeat
REPORT_CASES = {
    "cube_tabu": ({"instance": {"kind": "cube"}, "algorithm": "tabu", "replicas": 3,
                   "budget": 50, "tabu": {"tenure": 2}, "success": {"optimum": 5.0}},
                  "e0db837d10bfd365b345df97f60f40bb229c855f1ee20e1f9566f61f5d407f3d",
                  "fc630c8849d7b21fbab619283bdc3d43c802650b908df083aacf7b9fdb8c856e"),
    "none": ({"instance": "eight.tsp", "algorithm": "hopfield", "replicas": 2, "budget": 2,
              "hopfield": {"restarts": 1, "max_steps": 1},
              "success": {"optimum": 242.46491759376028, "relative": 0.01}},
             "1d466f0d959833d529dc24e6928af328dd3a50d8486a3e12fe60f043f7a2cdff",
             "380a0d5dbc40491c4a9ee23df7ba9209964f3f2b4cf5a9b779837046e4207947"),
}


def _clocked_run(monkeypatch, raw, out):
    """`run_experiment` under a clock that reads 0.125 s later at each call."""
    ticks = itertools.count(0.0, 0.125)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
    return run_experiment(ExperimentConfig.from_dict(raw), output_dir=out)


def _indented(report: dict) -> str:
    """The report as `indent=2` wrote it, a value that is not finite as null."""
    try:
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        strict = json.loads(json.dumps(report), parse_constant=lambda _: None)
        return json.dumps(strict, indent=2, sort_keys=True)


@pytest.mark.parametrize("label", list(REPORT_CASES))
def test_a_report_is_one_line_holding_the_indented_value(tmp_path, monkeypatch, capsys, label):
    """The report is one line of strict JSON with the value the indented
    report held, the CSV keeps its bytes, and `optimize plot` reads it.
    `none` has an infinite best cost, written as null."""
    raw, csv_digest, value_digest = REPORT_CASES[label]
    monkeypatch.chdir(FIXTURES)  # a relative instance path keeps the echo the same anywhere
    table = _clocked_run(monkeypatch, {**raw, "label": label}, tmp_path)
    text = (tmp_path / f"{label}.json").read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    value = json.loads(text)
    assert value == json.loads(_indented(table.to_json_dict()))
    canonical = json.dumps(value, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == value_digest
    assert hashlib.sha256((tmp_path / f"{label}.csv").read_bytes()).hexdigest() == csv_digest
    for kind in cli.PLOT_KINDS:
        assert main(["plot", "--input", str(tmp_path / f"{label}.json"), "--kind", kind]) == 0
        assert capsys.readouterr().out.startswith("# ")


def test_an_array_start_is_echoed_as_a_list_that_reruns(tmp_path):
    cfg = ExperimentConfig(instance=str(FIXTURES / "eight.tsp"), algorithm="sa", replicas=2,
                           start=np.arange(8), label="nd")
    table = run_experiment(cfg, output_dir=tmp_path / "a")
    echo = json.loads((tmp_path / "a" / "nd.json").read_text())["config"]
    assert echo["start"] == list(range(8))
    again = run_experiment(ExperimentConfig.from_dict(echo), output_dir=tmp_path / "b")
    assert again.records == table.records


def test_a_report_that_cannot_be_encoded_writes_no_file(tmp_path):
    """The report is encoded before either file is opened."""
    cfg = ExperimentConfig(instance=str(FIXTURES / "eight.tsp"), algorithm="sa", replicas=2,
                           start=list(np.arange(8)), label="nd")  # numpy ints: not JSON
    with pytest.raises(TypeError, match="int64"):
        run_experiment(cfg, output_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


# runs one small ensemble of every algorithm, and compares them, after every import
NO_IMPORT_RUN = """
import sys

from stochopt import cli
from stochopt.effort import EnsembleStats, nfl_comparison

before = set(sys.modules)
eight = {"instance": sys.argv[2], "success": {"optimum": 242.4649175937603, "relative": 0.01}}
cube = {"instance": {"kind": "cube"}, "success": {"optimum": 5.0}}
box = {"instance": {"kind": "continuous", "objective": "abs_linear"},
       "success": {"threshold": 0.5}}
problem = {"random": cube, "hillclimb": cube, "steepest": cube, "sa": eight, "tabu": cube,
           "hopfield": eight, "pso": box, "aco": eight}
ensembles = {}
for name in cli.ALGORITHMS:
    cfg = cli.ExperimentConfig.from_dict(
        {**problem[name], "algorithm": name, "replicas": 3, "budget": 60, "label": name})
    table = cli.run_experiment(cfg, output_dir=sys.argv[1])
    ensembles[name] = EnsembleStats(tuple(table.records), 60, cli.success_threshold(cfg.success))
baseline = ensembles.pop("random")
nfl_comparison(ensembles, baseline).to_dict()
print(sorted(set(sys.modules) - before))
"""


def test_a_run_imports_nothing(tmp_path):
    """Running and comparing ensembles loads no module past `import stochopt.cli`.

    On numpy 2, `np.median`'s first call imported `numpy.ma`, `numpy.ma.core`
    and `numpy.ma.extras` inside a run.  numpy below 2 loads `numpy.ma` within
    `import numpy`, so there the test holds for that reason, a case only
    the CI leg on numpy 1.25.2 runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", NO_IMPORT_RUN, str(tmp_path), str(FIXTURES / "eight.tsp")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instance": {"kind": "cube"}, "algorithm": "genetic"}))
    rc = main(["run", "--config", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")

    rc = main(["run", "--config", str(tmp_path / "missing.json")])
    assert rc == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["run", "--config", str(garbled)]) == 1


@pytest.mark.parametrize("command", [
    ["run", "--config"], ["plot", "--kind", "best_curve", "--input"],
], ids=["config", "report"])
def test_main_names_a_file_that_is_not_json(tmp_path, capsys, command):
    cut = _write(tmp_path, "g.json", '{"instance": ')
    assert main([*command, str(cut)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cut}: Expecting value: line 1 column 14 (char 13)\n"
    )


@pytest.mark.parametrize("raw, key", [
    ({"instance": {"kind": "continuous", "dim": "x"}}, "dim"),
    ({"instance": {"kind": "continuous", "bounds": 5}}, "bounds"),
    ({"instance": {"kind": "continuous", "bounds": [1, 2, 3]}}, "bounds"),
    ({"instance": {"kind": "continuous", "bounds": ["a", "b"]}}, "bounds"),
    ({"instance": {"kind": "continuous", "bounds": [float("nan"), 1.0]}}, "bounds"),
    ({"instance": {"kind": "continuous", "neighbor_radius": "x"}}, "neighbor_radius"),
] + [
    ({"instance": "eight.tsp", "algorithm": "hopfield", "hopfield": {key: value}}, key)
    for key, value in (("max_steps", 2.5), ("max_steps", 0), ("max_steps", -3),
                       ("restarts", 2.5), ("restarts", 0))
] + [
    ({"instance": "eight.tsp", "algorithm": "aco", "aco": {"ants": value}}, "ants")
    for value in (2.5, 0)
], ids=["dim", "bounds-number", "bounds-triple", "bounds-text", "bounds-nan",
        "neighbor_radius", "hopfield-max_steps-fraction", "hopfield-max_steps-zero",
        "hopfield-max_steps-negative", "hopfield-restarts-fraction", "hopfield-restarts-zero",
        "aco-ants-fraction", "aco-ants-zero"])
def test_main_names_a_value_that_cannot_be_cast(tmp_path, capsys, raw, key):
    _write(tmp_path, "eight.tsp", (FIXTURES / "eight.tsp").read_text())
    cfg = _write(tmp_path, "bad_value.json", json.dumps(
        {"algorithm": "random", "budget": 5, **raw}))
    rc = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert f"'{key}'" in err
    assert not (tmp_path / "bad_value.csv").exists()  # failed before any report was written


def test_main_refuses_a_start_that_is_not_finite(tmp_path, capsys):
    # json reads the bare token Infinity as a float, so a config can carry one
    cfg = _write(tmp_path, "inf_start.json", '{"instance": {"kind": "continuous", "dim": 2}, '
                 '"algorithm": "hillclimb", "budget": 5, "start": [Infinity, 0]}')
    rc = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "x[0] = inf" in err
    assert not (tmp_path / "inf_start.csv").exists()


def test_main_refuses_a_tour_start_with_a_negative_city(tmp_path, capsys):
    _write(tmp_path, "eight.tsp", (FIXTURES / "eight.tsp").read_text())
    cfg = _write(tmp_path, "neg_start.json", json.dumps(
        {"instance": "eight.tsp", "algorithm": "hillclimb", "budget": 5,
         "start": [-1, 0, 1, 2, 3, 4, 5, 6]}))
    rc = main(["run", "--config", str(cfg), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: tour must visit every city exactly once\n"
    assert not (tmp_path / "neg_start.csv").exists()


def test_main_runs_a_whole_float_ant_count_as_that_many_ants(tmp_path):
    _write(tmp_path, "eight.tsp", (FIXTURES / "eight.tsp").read_text())
    reports = []
    for ants in (3.0, 3):
        cfg = _write(tmp_path, "ants.json", json.dumps(
            {"instance": "eight.tsp", "algorithm": "aco", "budget": 9, "aco": {"ants": ants}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 0
        report = json.loads((out / "ants.json").read_text())
        for row in report["rows"]:
            del row["wall_time_s"]
        reports.append((report["rows"], report["curves"]))
    assert reports[0] == reports[1]
    assert type(cli._entry_call(ExperimentConfig.from_file(cfg))[1]["cfg"].ants) is int


@pytest.mark.parametrize("algorithm", ["hopfield", "aco"])
@pytest.mark.parametrize("instance", [{"kind": "cube"}, {"kind": "continuous"}, "pack10.txt"],
                         ids=["cube", "continuous", "packing"])
def test_tour_searchers_refuse_problems_that_are_not_tours(tmp_path, capsys, algorithm, instance):
    if instance == "pack10.txt":
        instance = str(FIXTURES / instance)
    entry = getattr(cli, cli.ALGORITHMS[algorithm][0])
    with pytest.raises(ValidationError, match="need a distance-matrix instance"):
        entry(load_instance(instance), Budget(5), 0)

    config = _write(tmp_path, "cfg.json",
                    json.dumps({"instance": instance, "algorithm": algorithm, "budget": 5}))
    rc = main(["run", "--config", str(config), "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "distance-matrix instance" in err


def test_main_oracle_subcommand(tmp_path, capsys, eight_oracle):
    rc = main(["oracle", "--instance", str(FIXTURES / "eight.tsp")])
    out = capsys.readouterr().out
    assert rc == 0
    answer = json.loads(out)
    assert answer["optimum"] == pytest.approx(eight_oracle["optimum"])

    bp = _write(tmp_path, "toy.bp", "3 1.0\n0.4 0.7 0.3\n")
    dest = tmp_path / "toy_answer.json"
    rc = main(["oracle", "--instance", str(bp), "--out", str(dest)])
    assert rc == 0
    assert json.loads(dest.read_text())["optimum"] == 2


@pytest.mark.parametrize("instance, answer", [("eight.tsp", "eight.oracle.json"),
                                              ("pack10.txt", "pack10.oracle.json")])
def test_main_oracle_regenerates_the_shipped_answers(tmp_path, instance, answer):
    dest = tmp_path / answer
    assert main(["oracle", "--instance", str(FIXTURES / instance), "--out", str(dest)]) == 0
    assert dest.read_bytes() == (FIXTURES / answer).read_bytes()


def test_main_oracle_refuses_large_instances(tmp_path, capsys):
    lines = ["NAME: big", "TYPE: TSP", "DIMENSION: 11",
             "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
    lines += [f"{i} {i} 0" for i in range(1, 12)]
    lines.append("EOF")
    big = _write(tmp_path, "big.tsp", "\n".join(lines) + "\n")
    rc = main(["oracle", "--instance", str(big)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "capped at 10 cities" in err


def test_main_project_subcommand(capsys):
    rc = main(["project", "--class", "poly:2", "--n", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "operations: 400" in out
    assert "4e-07" in out

    rc = main(["project", "--class", "warp", "--n", "3"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text, named", [
    (["project", "--class", "poly:abc", "--n", "5"], None, "'poly:abc'"),
    (["project", "--class", "poly:nan", "--n", "5"], None, "poly parameter"),
    (["project", "--class", "exp:inf", "--n", "5"], None, "exp parameter"),
    (["project", "--class", "poly:2", "--n", "5", "--rate", "nan"], None, "rate"),
    (["project", "--class", "poly:2", "--n", "5", "--rate", "inf"], None, "rate"),
    (["plot", "--kind", "best_curve", "--input"], '{"schema_version": 1}', "'config'"),
    (["plot", "--kind", "best_curve", "--input"], json.dumps(
        {"schema_version": 1, "config": {}, "rows": [], "summary": {}, "curves": [{"seed": 0}]}),
     "'best_curve'"),
    (["plot", "--kind", "best_curve", "--input"], "[1]", "a report must be a JSON object"),
    (["plot", "--kind", "best_curve", "--input"], json.dumps(
        {"schema_version": 1, "config": {}, "rows": [], "summary": {},
         "curves": [{"seed": 0, "best_curve": [1, 2]}]}),
     "report curve 0 'best_curve' must be a list of [n, value] number pairs"),
    (["plot", "--kind", "pn_curve", "--input"], json.dumps(
        {"schema_version": 1, "config": {}, "rows": [{}], "summary": {"pn_curve": [5]},
         "curves": []}),
     "report summary 'pn_curve' must be a list"),
    (["plot", "--kind", "effort_curve", "--input"], json.dumps(
        {"schema_version": 1, "config": {}, "rows": [{}], "curves": [],
         "summary": {"effort_curve": [[1, 2.0], [3, "x"]]}}),
     "report summary 'effort_curve' must be a list"),
    (["run", "--config"], "5", "a config must be a JSON object"),
], ids=["poly-text", "poly-nan", "exp-inf", "rate-nan", "rate-inf", "report-without-config",
        "curve-without-best_curve", "report-array", "best_curve-of-numbers",
        "pn_curve-of-numbers", "effort_curve-with-text", "config-number"])
def test_main_names_bad_input(tmp_path, capsys, argv, text, named):
    if text is not None:
        argv = argv + [str(_write(tmp_path, "input.json", text))]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:")
    assert named in err


@pytest.mark.parametrize("argv, name", [
    (["run", "--config"], "cfg.json"),
    (["oracle", "--instance"], "cities.tsp"),
    (["oracle", "--instance"], "items.txt"),
    (["plot", "--kind", "best_curve", "--input"], "report.json"),
], ids=["config", "tsp", "packing", "report"])
def test_main_names_a_file_that_is_not_utf8(tmp_path, capsys, argv, name):
    path = tmp_path / name
    path.write_bytes(b"NAME: caf\xe9\n")  # Latin-1 text
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "0xe9" in err


@pytest.mark.parametrize("cls, n, count", [
    ("exp:2.5", "2000", "operations: inf"),  # a float power past the largest double
    ("exp:2", "20000", "operations: ~3.98e+6020"),  # an int too long for str()
    ("tsp", "1000000", "operations: ~4.13e+5565702"),  # never built: from math.lgamma
    ("exp:3", "30000000", "operations: ~4.38e+14313637"),  # never built: n * log10(3)
], ids=["float-overflow", "int-too-long", "factorial-too-long", "power-too-long"])
def test_main_project_counts_past_any_horizon(capsys, cls, n, count):
    rc = main(["project", "--class", cls, "--n", n])
    out = capsys.readouterr().out
    assert rc == 0
    assert count in out.splitlines()
    assert "beyond any horizon" in out


def test_main_plot_subcommand(tmp_path, capsys):
    table = _small_table(tmp_path)
    rc = main(["plot", "--input", table.json_path, "--kind", "pn_curve"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "# cumulative success probability"

    dest = tmp_path / "series.txt"
    rc = main(["plot", "--input", table.json_path, "--kind", "best_curve",
               "--out", str(dest)])
    assert rc == 0
    assert dest.read_text().startswith("# best-so-far")


def test_out_holds_the_printed_text_with_one_final_newline(tmp_path, capsys):
    table = _small_table(tmp_path)
    dest = tmp_path / "out.txt"
    for args in (["oracle", "--instance", str(FIXTURES / "eight.tsp")],
                 ["plot", "--input", table.json_path, "--kind", "best_curve"]):
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--out", str(dest)]) == 0
        assert capsys.readouterr().out == f"wrote {dest}\n"
        assert dest.read_text() == printed.rstrip("\n") + "\n"


def test_the_package_runs_as_a_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "stochopt", "project", "--class", "tsp", "--n", "10"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("operations: 181440\n")
