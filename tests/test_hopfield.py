import re
import tracemalloc
from contextlib import nullcontext
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochopt import (
    Budget,
    HopfieldNet,
    TankParams,
    TspInstance,
    ValidationError,
    async_step,
    brute_force_tour,
    build_weights,
    constraint_energy,
    cost_energy,
    decode_tour,
    hopfield_solve,
    is_fixed_point,
    network_energy,
    seeded_rng,
)
from stochopt import hopfield
from stochopt.core import ScalarDraws
from stochopt.hopfield import MAX_WEIGHT_BYTES, TankNet


def _tour_matrix(order):
    n = len(order)
    v = np.zeros((n, n))
    for pos, city in enumerate(order):
        v[city, pos] = 1.0
    return v


def _summed_field(net, k):
    """`TankNet.field` summing the row, column and total from the state on every call."""
    n = net.d.shape[0]
    x, i = divmod(k, n)
    v = net.state.reshape(n, n)
    own = v[x, i]
    near = net.d[x] @ (v[:, (i + 1) % n] + v[:, i - 1])
    p = net.p
    return float(
        -p.a * (v[x].sum() - own)
        - p.b * (v[:, i].sum() - own)
        - p.c * (v.sum() - own)
        - p.d * near
        - net.theta
    )


def _summed_fields(net):
    n = net.d.shape[0]
    v = net.state.reshape(n, n)
    near = net.d @ (np.roll(v, -1, axis=1) + np.roll(v, 1, axis=1))
    p = net.p
    h = (
        -p.a * (v.sum(axis=1, keepdims=True) - v)
        - p.b * (v.sum(axis=0) - v)
        - p.c * (v.sum() - v)
        - p.d * near
        - net.theta
    )
    return h.ravel()


def _random_net(rng, m):
    w = rng.normal(size=(m, m))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    theta = rng.normal(size=m)
    state = rng.integers(0, 2, size=m).astype(float)
    return HopfieldNet(weights=w, thresholds=theta, state=state)


def test_constraint_energy_vanishes_exactly_on_permutations():
    p = TankParams()
    zero, positive = 0, 0
    for bits in range(512):
        v = np.array([(bits >> k) & 1 for k in range(9)], dtype=float).reshape(3, 3)
        is_perm = (
            np.all(v.sum(axis=0) == 1.0) and np.all(v.sum(axis=1) == 1.0)
        )
        e = constraint_energy(v, p)
        if is_perm:
            assert e == 0.0
            zero += 1
        else:
            assert e > 0.0
            positive += 1
    assert zero == 6
    assert positive == 512 - 6


def test_cost_energy_equals_scaled_tour_length():
    p = TankParams()
    rng = seeded_rng(13)
    for n in range(2, 6):
        d = rng.uniform(1.0, 9.0, size=(n, n))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        for order in permutations(range(n)):
            v = _tour_matrix(order)
            length = sum(d[order[i], order[(i + 1) % n]] for i in range(n))
            assert cost_energy(v, d, p.d) == pytest.approx(
                p.d * length, rel=1e-12
            )


def test_network_energy_matches_triple_loop():
    rng = seeded_rng(3)
    net = _random_net(rng, 6)
    s, w, theta = net.state, net.weights, net.thresholds
    by_hand = 0.0
    for i in range(6):
        by_hand += theta[i] * s[i]
        for j in range(6):
            by_hand -= 0.5 * w[i, j] * s[i] * s[j]
    assert network_energy(net) == pytest.approx(by_hand, rel=1e-12)


def test_network_energy_decomposes_into_penalty_terms(eight):
    # the network energy of any binary state equals the explicit penalty
    # energies up to the constant dropped when completing the square
    p = TankParams()
    n = 4
    inst = TspInstance(eight.d[:n, :n], name="four")
    net = build_weights(inst, p)
    shift = 0.5 * p.c * n * n
    rng = seeded_rng(8)
    states = [rng.integers(0, 2, size=n * n).astype(float) for _ in range(64)]
    states.append(_tour_matrix((0, 1, 2, 3)).flatten())
    states.append(np.zeros(n * n))
    states.append(np.ones(n * n))
    for s in states:
        net.state = s
        v = s.reshape(n, n)
        explicit = constraint_energy(v, p) + cost_energy(v, inst.d, p.d)
        assert network_energy(net) == pytest.approx(explicit - shift, rel=1e-9, abs=1e-6)


def test_async_steps_never_raise_the_energy():
    rng = seeded_rng(7)
    for _ in range(20):
        net = _random_net(rng, int(rng.integers(5, 20)))
        e = network_energy(net)
        for _ in range(200):
            async_step(net, rng)
            e_next = network_energy(net)
            assert e_next <= e + 1e-9
            e = e_next


def test_single_neuron_with_positive_threshold_switches_off():
    net = HopfieldNet(weights=np.zeros((1, 1)), thresholds=np.array([1.0]),
                      state=np.array([1.0]))
    async_step(net, seeded_rng(0))
    assert net.state[0] == 0.0
    assert is_fixed_point(net)


def test_weight_matrix_entries():
    d = np.zeros((4, 4))
    d[0, 1] = d[1, 0] = 2.0
    inst = TspInstance(d, name="pair")
    net = build_weights(inst, TankParams()).dense()

    def neuron(city, pos):
        return city * 4 + pos

    # same city, positions two apart: row penalty plus the global bias
    assert net.weights[neuron(0, 0), neuron(0, 2)] == -700.0
    # same position, different cities: column penalty plus the bias
    assert net.weights[neuron(0, 1), neuron(1, 1)] == -700.0
    # adjacent positions: bias plus distance-weighted tour term
    assert net.weights[neuron(0, 0), neuron(1, 1)] == -1200.0
    assert net.weights[neuron(0, 0), neuron(1, 3)] == -1200.0  # wraparound
    # constant drive from completing the square over the global term
    np.testing.assert_allclose(net.thresholds, -200.0 * 7 / 2.0)
    assert np.all(np.diag(net.weights) == 0.0)


def test_oversized_network_is_refused_before_allocating():
    assert 53**4 * 8 <= MAX_WEIGHT_BYTES < 54**4 * 8
    net = build_weights(TspInstance.from_coords(seeded_rng(0).random((54, 2))), TankParams())
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="54-city network needs a 68,024,448-byte"):
            net.dense()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_solve_runs_above_the_dense_cap_in_little_memory():
    inst = TspInstance.from_coords(seeded_rng(0).random((60, 2)))
    tracemalloc.start()
    try:
        rec = hopfield_solve(inst, Budget(1), 0, max_steps=2 * 60 * 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.extras["restarts"] == 1
    assert peak < 2_000_000  # the dense weights alone would take 103.7 MB


_coefficient = st.floats(0.0, 1000.0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.builds(TankParams, _coefficient, _coefficient, _coefficient, _coefficient),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, p=TankParams(), seed=0)  # positions i + 1 and i - 1 coincide
def test_structured_field_matches_the_dense_weights(n, p, seed):
    rng = seeded_rng(seed)
    d = rng.uniform(0.1, 100.0, size=(n, n))
    d = np.triu(d, 1) + np.triu(d, 1).T
    net = build_weights(TspInstance(d), p)
    dense = net.dense()
    w, theta = dense.weights, dense.thresholds
    np.testing.assert_array_equal(net.thresholds, theta)
    scale = np.abs(w).sum(axis=0).max() + abs(theta[0]) + 1.0
    for _ in range(4):
        net.state = rng.integers(0, 2, size=n * n).astype(float)
        dense.state = net.state.copy()
        by_weights = w @ net.state - theta
        for k in range(n * n):
            assert abs(net.field(k) - (w[:, k] @ net.state - theta[k])) <= 1e-9 * scale
        assert np.all(np.abs(net.fields() - by_weights) <= 1e-9 * scale)
        e_dense = -0.5 * net.state @ w @ net.state + theta @ net.state
        assert abs(network_energy(net) - e_dense) <= 1e-9 * scale * n * n
        if np.all(np.abs(by_weights) > 1e-9 * scale):  # no near-tie for rounding to split
            assert is_fixed_point(net) == is_fixed_point(dense)
    for _ in range(50):  # settle, so that fixed points are compared too
        if is_fixed_point(dense):
            break
        for _ in range(n * n):
            async_step(dense, rng)
    net.state = dense.state.copy()
    if np.all(np.abs(dense.fields()) > 1e-9 * scale):
        assert is_fixed_point(net) == is_fixed_point(dense)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    p=st.builds(TankParams, _coefficient, _coefficient, _coefficient, _coefficient),
    seed=st.integers(0, 2**32 - 1),
    script=st.lists(st.one_of(st.none(), st.integers(1, 150)), max_size=6),
)
def test_kept_counts_give_the_fields_a_summed_state_gives(n, p, seed, script):
    """After steps (an int) and reassigned states (None), every field equals the summed one."""
    rng = seeded_rng(seed)
    d = rng.uniform(0.1, 100.0, size=(n, n))
    net = TankNet(np.triu(d, 1) + np.triu(d, 1).T, p,
                  state=rng.integers(0, 2, size=n * n).astype(float))
    for action in [None, *script]:
        if action is None:
            net.state = rng.random(n * n) < rng.random()  # from all off to all on
        else:
            for _ in range(action):
                async_step(net, rng)
        assert [net.field(k) for k in range(n * n)] == [
            _summed_field(net, k) for k in range(n * n)
        ]
        assert np.array_equal(net.fields(), _summed_fields(net))


_small_coefficient = st.integers(0, 4).map(float)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.one_of(
        st.builds(TankParams, _small_coefficient, _small_coefficient, _small_coefficient,
                  _small_coefficient),
        st.builds(TankParams, _coefficient, _coefficient, _coefficient, _coefficient),
    ),
    integer=st.booleans(),
    low=st.sampled_from([0, -3]),
    diagonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, p=TankParams(a=1, b=1, c=2, d=1), integer=True, low=0, diagonal=False, seed=0)
def test_fires_is_the_sign_of_the_field(n, p, integer, low, diagonal, seed):
    """Bounds or not, `fires(k)` is `field(k) >= 0`, on the Tank net and on its dense weights.

    Integer distances and coefficients make fields of exactly 0, `low` < 0
    gives negative distances and `diagonal` a non-zero diagonal; at n = 2
    positions i + 1 and i - 1 are one column.
    """
    rng = seeded_rng(seed)
    if integer:
        d = rng.integers(low, 4, size=(n, n)).astype(float)
    else:
        d = rng.uniform(low, 100.0, size=(n, n))
    d = np.triu(d) + np.triu(d, 1).T
    if not diagonal:
        np.fill_diagonal(d, 0.0)
    net = TankNet(d, p)
    dense = net.dense()
    for _ in range(6):
        net.state = rng.random(n * n) < rng.random()  # from all off to all on
        dense.state = net.state
        for each in (net, dense):
            assert [each.fires(k) for k in range(n * n)] == [
                each.field(k) >= 0 for k in range(n * n)
            ]


def _net_with(n, on, d, p):
    """A `TankNet` on distances d whose on-neurons are the (city, position) pairs `on`."""
    v = np.zeros((n, n))
    for x, i in on:
        v[x, i] = 1.0
    return TankNet(np.asarray(d, dtype=float), p, state=v.ravel())


def test_a_negative_distance_fires_a_neuron_whose_counts_are_negative():
    """With a negative distance the counts bound does not hold: the distance term raises a field."""
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = -1.0
    net = _net_with(3, [(1, 1), (2, 1), (2, 2)], d, TankParams(a=1, b=1, c=1, d=1))
    assert hopfield._penalty(net.p, 0, 0, 3, 0.0) - net.theta == -0.5
    assert net.field(0) == 0.5
    assert net.fires(0)


def test_an_on_neighbour_in_its_own_row_leaves_the_nearest_bound_out():
    """Neuron (0, 0)'s only on-neighbour in columns 1 and 3 is (0, 1), so its field is its counts'.

    Counting (0, 1) would apply the nearest-city bound, 4 - 10 < 0.
    """
    net = _net_with(4, [(0, 1)], 10.0 * (np.ones((4, 4)) - np.eye(4)),
                    TankParams(a=1, b=1, c=2, d=1))
    assert hopfield._penalty(net.p, 1, 0, 1, 0.0) - net.theta == 4.0
    assert net.field(0) == 4.0
    assert net.fires(0)


@pytest.mark.parametrize("on, bound", [
    ([(1, 0), (2, 2), (3, 2)], "counts"),  # no on-neuron in columns 1 and 3
    ([(1, 1), (2, 2), (3, 2)], "nearest"),  # (1, 1), at distance 1 = nearest[0]
])
def test_a_field_of_exactly_zero_fires(on, bound):
    """The bound that reads neuron (0, 0) is exactly 0 here, and so is its field; a tie fires."""
    net = _net_with(4, on, np.ones((4, 4)) - np.eye(4), TankParams(a=1, b=1, c=2, d=1))
    v = net.state.reshape(4, 4)
    counts = hopfield._penalty(net.p, v[0].sum(), v[:, 0].sum(), v.sum(), 0.0)
    assert counts - net.p.d * (bound == "nearest") - net.theta == 0.0
    assert net.field(0) == 0.0
    assert net.fires(0)


class _CountedMatmul(np.ndarray):
    calls = 0

    def __matmul__(self, other):
        _CountedMatmul.calls += 1
        return np.ndarray.__matmul__(self, other)


def test_bounds_spare_almost_every_step_its_dot_product(monkeypatch):
    """On a 40-city textbook run, fewer than 5% of steps read the distances."""
    inst = TspInstance.from_coords(seeded_rng(40).uniform(0.0, 1000.0, size=(40, 2)))
    plain = hopfield_solve(inst, Budget(2), 0)
    build, step = hopfield.build_weights, hopfield.async_step
    steps = []

    def counted_build(inst, p):
        net = build(inst, p)
        net.d = net.d.view(_CountedMatmul)
        return net

    monkeypatch.setattr(hopfield, "build_weights", counted_build)
    monkeypatch.setattr(hopfield, "async_step", lambda net, rng: steps.append(1) or step(net, rng))
    monkeypatch.setattr(_CountedMatmul, "calls", 0)
    counted = hopfield_solve(inst, Budget(2), 0)
    assert counted == plain
    assert len(steps) > 10_000
    assert 0 < _CountedMatmul.calls < 0.05 * len(steps)


@pytest.mark.parametrize("kind", ["tank", "dense"])
def test_assigning_a_bad_state_fails_loudly(kind):
    net = build_weights(TspInstance(np.ones((4, 4)) - np.eye(4)), TankParams())
    if kind == "dense":
        net = net.dense()
    with pytest.raises(ValidationError, match="binary"):
        net.state = np.full(16, 2.0)
    with pytest.raises(ValidationError, match="16 entries"):
        net.state = np.zeros(5)
    assert np.array_equal(net.state, np.zeros(16))  # a refused state leaves the old one
    with pytest.raises(ValueError, match="read-only"):
        net.state[3] = 1.0
    given = np.ones(16)
    net.state = given
    given[3] = 0.0  # the net holds a copy, not the caller's array
    assert np.array_equal(net.state, np.ones(16))
    for _ in range(64):
        async_step(net, seeded_rng(0))
    assert set(net.state.tolist()) <= {0.0, 1.0}
    if kind == "tank":
        assert [net.field(k) for k in range(16)] == [_summed_field(net, k) for k in range(16)]


def test_solve_calls_the_traced_steps_through_the_module(eight, monkeypatch):
    """The benchmark tracer wraps `async_step` and `is_fixed_point`: one call per step, one per sweep.

    150 steps of 64 neurons make sweeps of 64, 64 and 22 in a restart the
    cap ends; each restart starts with a check and ends with a decode.
    """
    plain = hopfield_solve(eight, Budget(4), 2, max_steps=150)
    events = []
    for name, mark in (("async_step", "s"), ("is_fixed_point", "F"), ("decode_tour", "D")):
        original = getattr(hopfield, name)

        def counted(*args, _original=original, _mark=mark):
            events.append(_mark)
            return _original(*args)

        monkeypatch.setattr(hopfield, name, counted)
    traced = hopfield_solve(eight, Budget(4), 2, max_steps=150)
    assert traced.to_dict() == plain.to_dict()
    restarts = re.findall(r"F(?:s{64}F)*(?:s{22}F)?D", "".join(events))
    assert "".join(restarts) == "".join(events)
    assert len(restarts) == traced.extras["restarts"] == 4
    assert "F" + "s" * 64 + "F" + "s" * 64 + "F" + "s" * 22 + "FD" in restarts  # capped
    assert all(r.count("s") <= 150 for r in restarts)


@pytest.mark.parametrize("stop", ["budget", "error"])
def test_each_restart_hands_its_stream_back(monkeypatch, stop):
    """The steps decode each restart's stream, which goes back as numpy would leave it."""
    unit5 = TspInstance.from_coords(seeded_rng(1).random((5, 2)))
    streams, taken = [], []
    step = hopfield.async_step

    def failing(net, rng):  # a failure inside the step loop, on its 60th step
        taken.append(type(rng))
        if len(taken) == 60:
            raise RuntimeError("step 60")
        return step(net, rng)

    if stop == "error":
        monkeypatch.setattr(hopfield, "async_step", failing)

    def solve(draws):
        streams.clear()
        taken.clear()

        def opened(stream):
            streams.append(stream)
            return draws(stream)

        monkeypatch.setattr(hopfield, "ScalarDraws", opened)
        try:
            return hopfield_solve(unit5, Budget(4), 0, TankParams(d=40.0)).to_dict()
        except RuntimeError as error:
            return str(error)

    decoded = solve(ScalarDraws)
    decoded_states = [s.bit_generator.state for s in streams]
    if stop == "error":
        assert decoded == "step 60" and set(taken) == {ScalarDraws}
    plain = solve(nullcontext)
    assert decoded == plain
    assert decoded_states == [s.bit_generator.state for s in streams]
    assert len(streams) == (1 if stop == "error" else 4)


@pytest.mark.parametrize("case", ["eight", "unit5"])
def test_solve_replays_the_dense_network(monkeypatch, eight, case):
    if case == "eight":
        inst, p = eight, TankParams()
    else:
        inst = TspInstance.from_coords(seeded_rng(1).random((5, 2)), name="unit5")
        p = TankParams(d=40.0)
    decode = hopfield.decode_tour

    def solve(build):
        finals = []
        monkeypatch.setattr(hopfield, "build_weights", build)
        monkeypatch.setattr(hopfield, "decode_tour", lambda v: finals.append(v.copy()) or decode(v))
        return hopfield_solve(inst, Budget(20), 3, p), finals

    structured, structured_finals = solve(hopfield.build_weights)
    dense, dense_finals = solve(lambda inst, p: TankNet(inst.d, p).dense())
    assert structured == dense
    assert len(structured_finals) == len(dense_finals) == 20
    for a, b in zip(structured_finals, dense_finals):
        np.testing.assert_array_equal(a, b)
    if case == "unit5":
        assert structured.extras["valid_tours"] > 0


@pytest.mark.parametrize("kwargs, field", [
    ({"max_steps": 2.5}, "max_steps"), ({"max_steps": "100"}, "max_steps"),
    ({"max_steps": 0}, "max_steps"), ({"max_steps": -3}, "max_steps"),
    ({"restarts": 2.5}, "restarts"), ({"restarts": 0}, "restarts"),
    ({"restarts": True}, "restarts"),
])
def test_solve_names_a_bad_count_before_any_restart(monkeypatch, eight, kwargs, field):
    monkeypatch.setattr(hopfield, "build_weights", lambda *a: pytest.fail("a network was built"))
    with pytest.raises(ValidationError, match=f"'{field}'"):
        hopfield_solve(eight, Budget(10), 0, **kwargs)


def test_solve_reads_a_whole_float_count_as_the_int_a_config_gives():
    unit5 = TspInstance.from_coords(seeded_rng(1).random((5, 2)))
    rec = hopfield_solve(unit5, Budget(4), 0, max_steps=100.0, restarts=3.0)
    assert rec == hopfield_solve(unit5, Budget(4), 0, max_steps=100, restarts=3)
    assert type(rec.extras["max_steps"]) is int and type(rec.extras["restarts"]) is int


def test_decode_tour():
    v = _tour_matrix((2, 0, 1))
    assert decode_tour(v).tolist() == [2, 0, 1]
    assert decode_tour(np.zeros((3, 3))) is None
    assert decode_tour(np.ones((3, 3))) is None
    with pytest.raises(ValidationError):
        decode_tour(np.full((3, 3), 0.5))


def test_weights_distances_and_instances_refuse_the_same_near_symmetry():
    """One exact rule: a 1e-9 asymmetry is refused, named by its largest entry."""
    m = np.ones((3, 3)) - np.eye(3)
    m[1, 0] += 1e-9
    for build, symbol in (
        (lambda: HopfieldNet(weights=m, thresholds=0.0), "w"),
        (lambda: cost_energy(np.eye(3), m, 1.0), "d"),
        (lambda: TspInstance(m), "d"),
    ):
        with pytest.raises(ValidationError, match=re.escape(
                f"exactly symmetric; largest asymmetry |{symbol}[0, 1] - {symbol}[1, 0]| = 1e-09")):
            build()


def test_net_validation():
    with pytest.raises(ValidationError):
        HopfieldNet(weights=np.array([[0.0, 1.0], [2.0, 0.0]]), thresholds=0.0)
    with pytest.raises(ValidationError):
        HopfieldNet(weights=np.array([[1.0]]), thresholds=0.0)
    with pytest.raises(ValidationError):
        HopfieldNet(weights=np.zeros((2, 2)), thresholds=0.0, state=np.array([0.5, 0.0]))
    with pytest.raises(ValidationError):
        build_weights(TspInstance(np.zeros((1, 1))), TankParams())
    for name in ("a", "b", "c", "d"):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValidationError, match=f"'{name}'"):
                TankParams(**{name: bad})


def test_textbook_penalties_rarely_settle_on_tours(eight):
    rec = hopfield_solve(eight, Budget(30), 0)
    assert rec.status == "no_valid_tour"
    assert rec.extras["valid_fraction"] == 0.0
    assert rec.extras["restarts"] == 30


def test_softer_tour_term_recovers_valid_tours():
    # unit-square coordinates keep the tour term comparable to the
    # feasibility penalties; at that scale a softer drive settles on tours
    rng = seeded_rng(1)
    inst = TspInstance.from_coords(rng.random((5, 2)), name="unit5")
    _, optimum = brute_force_tour(inst)
    rec = hopfield_solve(inst, Budget(50), 0, TankParams(d=40.0))
    assert rec.status == "budget_exhausted"
    assert rec.evaluations == 50
    assert rec.extras["valid_fraction"] == 1.0
    assert rec.best_fitness == pytest.approx(optimum, rel=1e-9)


def test_restarts_stop_when_the_run_is_finished():
    unit5 = TspInstance.from_coords(seeded_rng(1).random((5, 2)))
    spent = hopfield_solve(unit5, Budget(3), 0, TankParams(d=40.0), restarts=10)
    assert spent.status == "budget_exhausted"
    assert spent.evaluations == spent.extras["restarts"] == 3
    assert spent.extras["valid_fraction"] == 1.0
    reached = hopfield_solve(unit5, Budget(10, target_fitness=100.0), 0, TankParams(d=40.0))
    assert reached.status == "target_reached"
    assert reached.evaluations == reached.evaluations_to_success == 1
    assert reached.extras["restarts"] == 1
    # only a run the restart cap ended reads `ok` or `no_valid_tour`
    capped = hopfield_solve(unit5, Budget(10), 0, TankParams(d=40.0), restarts=4)
    assert capped.status == "ok" and capped.evaluations == 4
    # an invalid decode is not an evaluation, so `restarts` caps the attempts
    none = hopfield_solve(unit5, Budget(10), 0, max_steps=1, restarts=4)
    assert none.status == "no_valid_tour"
    assert none.evaluations == 0 and none.extras["restarts"] == 4


def test_peak_memory_does_not_grow_with_restarts():
    unit5 = TspInstance.from_coords(seeded_rng(1).random((5, 2)))

    def peak(restarts):
        tracemalloc.start()
        try:
            rec = hopfield_solve(unit5, Budget(restarts), 0, max_steps=1)
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rec.extras["restarts"] == restarts
        return top

    peak(20)
    # a generator takes about 0.9 KB, so 2,000 held at once would add 1.6 MB
    assert peak(2000) < peak(200) + 200_000
