"""Every single-field bound lives in the annotation the type rule reads.

The sweep reads each bounded field and parameter off its annotation:
a value just past the bound is refused with the one range message,
which names the field, and a closed bound itself is accepted.  Block
keys are swept the same way through `ExperimentConfig.from_dict`,
spelled as a config spells them (`'A'`, `'steps_per_temp'`).
"""

import inspect
import math
import types
import typing

import pytest

from conftest import CONFIGS
from stochopt import (
    BinPackingInstance,
    Budget,
    ComplexityClass,
    ContinuousLandscape,
    CoolingSchedule,
    EnsembleStats,
    ExperimentConfig,
    TspInstance,
    ValidationError,
    cube_fixture,
    cumulative_success,
    effort_steps,
    hopfield_solve,
    random_search,
    seeded_rng,
    simulated_annealing,
)
from stochopt import cli
from stochopt.core import field_types
from stochopt.effort import seconds_at

_TOUR = TspInstance.from_coords(seeded_rng(1).random((4, 2)))
_ENSEMBLE = EnsembleStats((random_search(cube_fixture(), Budget(5), 0),), 5)

# the plain parameters that carry a bound, each with a call that sets it alone
_CALLS = {
    (simulated_annealing, "alpha"): lambda v: simulated_annealing(cube_fixture(), Budget(5), 0,
                                                                  alpha=v),
    (hopfield_solve, "max_steps"): lambda v: hopfield_solve(_TOUR, Budget(2), 0, max_steps=v),
    (hopfield_solve, "restarts"): lambda v: hopfield_solve(_TOUR, Budget(2), 0, restarts=v),
    (BinPackingInstance, "capacity"): lambda v: BinPackingInstance([0.5, 0.7], capacity=v),
    (BinPackingInstance, "penalty"): lambda v: BinPackingInstance([0.5, 0.7], penalty=v),
    (ContinuousLandscape, "dim"): lambda v: ContinuousLandscape(dim=v),
    (cumulative_success, "n"): lambda v: cumulative_success(_ENSEMBLE, v),
    (effort_steps, "z"): lambda v: effort_steps(_ENSEMBLE, v),
    (seconds_at, "ops_per_second"): lambda v: seconds_at(10, v),
    (ComplexityClass.operations, "n"): lambda v: ComplexityClass("poly", 2).operations(v),
}


def _bound(kind):
    """(base type, Range) of a bounded annotation, `X | None` included; None if unbounded."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        (kind,) = [a for a in typing.get_args(kind) if a is not type(None)]
    if typing.get_origin(kind) is typing.Annotated:
        return typing.get_args(kind)
    return None


def _past(base, bound) -> list:
    """Values just outside `bound`: below or at its low end, and at a finite high end."""
    low = bound.low if not bound.closed else (
        bound.low - 1 if base is int else math.nextafter(bound.low, -math.inf))
    return [low] + ([bound.high] if bound.high < math.inf else [])


def _kind(owner, name):
    """The annotation of parameter `name` of a function or a class's `__init__`."""
    target = owner.__init__ if inspect.isclass(owner) else owner
    return inspect.signature(target, eval_str=True).parameters[name].annotation


def _case(kind, ident, *head):
    """pytest.param(*head, the values past the bound, its closed low or None)."""
    base, bound = _bound(kind)
    return pytest.param(*head, _past(base, bound), bound.low if bound.closed else None, id=ident)


_FIELDS = [(cls, name, kind) for cls in CONFIGS for name, kind in field_types(cls).items()]
_PARAMETERS = [(owner, name, _kind(owner, name)) for owner, name in _CALLS]


def test_the_sweep_reaches_every_bounded_setting():
    bounded = {f"{cls.__name__}.{name}" for cls, name, kind in _FIELDS if _bound(kind)}
    assert bounded == {
        "Budget.max_evaluations", "ExperimentConfig.replicas", "ExperimentConfig.seed",
        "CoolingSchedule.t0", "CoolingSchedule.steps_per_temperature",
        "CoolingSchedule.max_temperature_steps",
        "TabuConfig.tenure", "TabuConfig.intensification_weight",
        "TabuConfig.diversification_weight", "TabuConfig.elite_size",
        "AcoConfig.ants", "AcoConfig.w_tau", "AcoConfig.w_eta", "AcoConfig.rho",
        "AcoConfig.local_deposit", "AcoConfig.q", "AcoConfig.tau0", "AcoConfig.tau_min",
        "SwarmConfig.size", "SwarmConfig.p_increment", "SwarmConfig.g_increment",
        "SwarmConfig.vmax", "TankParams.a", "TankParams.b", "TankParams.c", "TankParams.d",
        "EnsembleStats.budget",
    }
    assert all(_bound(kind) for _, _, kind in _PARAMETERS)


@pytest.mark.parametrize("cls, name, past, low", [
    _case(kind, f"{cls.__name__}.{name}", cls, name) for cls, name, kind in _FIELDS if _bound(kind)
])
def test_a_config_field_refuses_a_value_past_its_bound(cls, name, past, low):
    for value in past:
        with pytest.raises(ValidationError, match=rf"'{name}' must be (at least|above) "):
            cls(**{**CONFIGS[cls], name: value})
    if low is not None:
        assert getattr(cls(**{**CONFIGS[cls], name: low}), name) == low


@pytest.mark.parametrize("owner, name, past, low", [
    _case(kind, f"{owner.__name__}.{name}", owner, name) for owner, name, kind in _PARAMETERS
])
def test_a_parameter_refuses_a_value_past_its_bound(owner, name, past, low):
    call = _CALLS[owner, name]
    for value in past:
        with pytest.raises(ValidationError, match=rf"'{name}' must be (at least|above) "):
            call(value)
    if low is not None:
        call(low)


def _block_keys():
    """(block, key, annotation) for every key of every algorithm block, as `_entry_call` reads it."""
    for block, (entry_name, keys) in cli.ALGORITHMS.items():
        parameters = inspect.signature(getattr(cli, entry_name), eval_str=True).parameters
        _, config = cli._settings(parameters)
        kinds = {k: p.annotation for k, p in parameters.items()}
        kinds |= field_types(config) if config else {}
        for key in keys:
            yield block, key, kinds[cli.ALIASES.get(key, key)]


_BLOCK_KEYS = [_case(kind, f"{block}.{key}", block, key)
               for block, key, kind in _block_keys() if _bound(kind)]
_CUBE = {"instance": {"kind": "cube"}, "algorithm": "random", "budget": 5}


def test_the_block_sweep_reaches_every_bounded_key():
    assert {p.id for p in _BLOCK_KEYS} == {
        "sa.t0", "sa.steps_per_temp", "sa.max_temperature_steps", "sa.alpha",
        "tabu.tenure", "tabu.intensification_weight", "tabu.diversification_weight",
        "hopfield.A", "hopfield.B", "hopfield.C", "hopfield.D",
        "hopfield.max_steps", "hopfield.restarts",
        "pso.size", "pso.p_increment", "pso.g_increment", "pso.vmax",
        "aco.ants", "aco.w_tau", "aco.w_eta", "aco.rho", "aco.local_deposit", "aco.q", "aco.tau0",
    }


@pytest.mark.parametrize("block, key, past, low", _BLOCK_KEYS)
def test_a_block_key_refuses_a_value_past_its_bound_at_load(monkeypatch, block, key, past, low):
    monkeypatch.setattr(cli, "load_instance", lambda desc: pytest.fail("an instance was loaded"))
    for value in past:
        with pytest.raises(ValidationError,
                           match=rf"^{block} setting '{key}' must be (at least|above) "):
            ExperimentConfig.from_dict({**_CUBE, block: {key: value}})
    if low is not None:
        ExperimentConfig.from_dict({**_CUBE, block: {key: low}})


@pytest.mark.parametrize("raw, message", [
    ({"sa": {"rescaled": True, "alpha": -1}}, "sa setting 'alpha' must be above 0, got -1"),
    ({"sa": {"rescaled": False, "alpha": 0}}, "sa setting 'alpha' must be above 0, got 0"),
    ({"hopfield": {"max_steps": 0}}, "hopfield setting 'max_steps' must be at least 1, got 0"),
    ({"hopfield": {"A": -1}}, "hopfield setting 'A' must be at least 0, got -1"),
    ({"sa": {"max_temperature_steps": -5}},
     "sa setting 'max_temperature_steps' must be at least 1, got -5"),
    ({"replicas": 0}, "config 'replicas' must be at least 1, got 0"),
    ({"seed": -1}, "config 'seed' must be at least 0, got -1"),
    ({"budget": 0}, "budget 'max_evaluations' must be at least 1, got 0"),
    ({"success": {"optimum": 1.0, "confidence": 1}},
     r"success 'confidence' must be above 0 and below 1, got 1"),
])
def test_from_dict_names_a_setting_past_its_bound(raw, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ExperimentConfig.from_dict({**_CUBE, **raw})


def test_capacity_follows_the_float_rule():
    assert BinPackingInstance([0.5, 0.7], capacity="2").sizes.tolist() == [0.25, 0.35]
    for bad in (True, "x", 0, float("inf")):
        with pytest.raises(ValidationError, match="'capacity'"):
            BinPackingInstance([0.5, 0.7], capacity=bad)


def test_a_schedule_with_no_temperature_step_is_refused(eight):
    """At -5 a run did only its calibration walk and stopped as frozen."""
    with pytest.raises(ValidationError, match="'max_temperature_steps' must be at least 1"):
        CoolingSchedule(max_temperature_steps=-5)
    rec = simulated_annealing(eight, Budget(500), 0, CoolingSchedule(max_temperature_steps=1))
    assert rec.extras["temperature_steps"] == 1 and rec.evaluations == 201
