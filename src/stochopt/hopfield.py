"""Binary Hopfield network and its map onto the TSP.

A tour of n cities is encoded as an n x n binary matrix V with V[x][i]=1
when city x sits at tour position i (positions wrap modulo n).  Neuron
(x, i) is flat index x*n + i.

Penalty energy (zero exactly on permutation matrices):

    A/2 sum_x sum_{i != j} V[x][i] V[x][j]      one position per city
  + B/2 sum_i sum_{x != y} V[x][i] V[y][i]      one city per position
  + C/2 (sum V - n)^2                           n entries in total

Tour-length energy:

    D/2 sum_{x != y} sum_i d[x][y] V[x][i] (V[y][i+1] + V[y][i-1])

which counts every tour edge twice, so it equals D times the decoded
tour length on any permutation matrix.

Connection weights between distinct neurons (x,i) and (y,j):

    w = -A [x==y][i!=j] - B [i==j][x!=y] - C - D d[x][y]([j==i+1] + [j==i-1])

with a zero diagonal.  Dynamics are asynchronous: one uniformly drawn
neuron updates to 1 when its input reaches its firing threshold
(w[:,i] @ s - theta_i >= 0, ties fire), else to 0.  The matching
Lyapunov energy is the threshold form

    E(s) = -1/2 s W s + theta . s

which never increases under the update when W is symmetric with a zero
diagonal: flipping neuron i changes E by -(w[:,i] @ s - theta_i) times
the flip direction.

Thresholds come from expanding the C-term with s^2 = s for binary
states: C/2 (S-n)^2 = C/2 sum_{a!=b} s_a s_b + (C/2 - Cn) S + C n^2/2,
so the uniform threshold theta = -(C(2n-1)/2), a constant positive
drive, makes E equal the penalty plus tour-length energy minus the
constant C n^2/2 on every binary state.  Without that drive the
all-negative weights would switch every neuron off.

The weights never need to be stored.  Summing w over the neurons (y, j)
other than (x, i), each term of the weight formula collapses onto a
sum of V:

    h(x,i) = sum_{(y,j) != (x,i)} w V[y][j] - theta
           = -A (r[x] - v) - B (c[i] - v) - C (S - v)
             - D d[x] . (V[:, i+1] + V[:, i-1]) - theta

with v = V[x][i], r and c the row and column sums of V and S its
total.  The "- v" removes the neuron itself from its own row, column
and total; the distance term needs no such correction because positions
i +- 1 never equal i (for n = 2 both name the other position, and it
counts twice, as in the weights).  r, c and S are exact small integers.
`TankNet` evaluates this field from the state alone: O(n^2) memory, and
per asynchronous step an n-entry dot product, a row, a column and the
n^2-entry total.  All fields at once cost one O(n^3) product,
d @ (roll(V, -1, 1) + roll(V, 1, 1)), and the energy follows from them,
since W s = h + theta.  `TankNet.dense()` builds the (n^2)^2 matrix
itself, as a reference for small n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Budget, Count, NonNegative, Run, RunRecord, ValidationError, check_fields,
                   conform)

# The dense matrix holds (n^2)^2 floats and building it peaks at several
# times that, so n = 100 would need gigabytes; 64 MiB admits n <= 53.
MAX_WEIGHT_BYTES = 64 * 2**20


@dataclass(frozen=True)
class TankParams:
    a: NonNegative = 500.0
    b: NonNegative = 500.0
    c: NonNegative = 200.0
    d: NonNegative = 500.0

    def __post_init__(self):
        check_fields(self, "penalty coefficient")


@dataclass
class HopfieldNet:
    weights: np.ndarray
    thresholds: np.ndarray
    state: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError("weight matrix must be square")
        if not np.allclose(w, w.T):
            raise ValidationError("weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ValidationError("no self-connections: diagonal must be zero")
        self.weights = w
        self.thresholds = np.broadcast_to(
            np.asarray(self.thresholds, dtype=float), (w.shape[0],)
        ).copy()
        if self.state is None:
            self.state = np.zeros(w.shape[0])
        else:
            self.state = _validate_state(self.state, w.shape[0])

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def field(self, i: int) -> float:
        """Input of neuron i less its threshold: w[:, i] @ s - theta_i."""
        return float(self.weights[:, i] @ self.state) - float(self.thresholds[i])

    def fields(self) -> np.ndarray:
        """Every neuron's `field` at once."""
        return self.weights @ self.state - self.thresholds


@dataclass
class TankNet:
    """The Tank network of a tour instance, held as its distances and coefficients.

    It has `HopfieldNet`'s `size`, `state`, `thresholds`, `field` and
    `fields`, computed from the structured field in the module
    docstring.  Row, column and total sums are read from `state` on
    every call, so `state` may be replaced at any time.
    """

    d: np.ndarray
    p: TankParams
    state: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("distance matrix must be square")
        if d.shape[0] < 2:
            raise ValidationError("the tour encoding needs at least two cities")
        self.d = d
        if self.state is None:
            self.state = np.zeros(self.size)
        else:
            self.state = _validate_state(self.state, self.size)

    @property
    def size(self) -> int:
        return self.d.shape[0] ** 2

    @property
    def theta(self) -> float:
        return -self.p.c * (2 * self.d.shape[0] - 1) / 2.0

    @property
    def thresholds(self) -> np.ndarray:
        return np.full(self.size, self.theta)

    def field(self, k: int) -> float:
        n = self.d.shape[0]
        x, i = divmod(k, n)
        v = self.state.reshape(n, n)
        own = v[x, i]
        near = self.d[x] @ (v[:, (i + 1) % n] + v[:, i - 1])
        p = self.p
        return float(
            -p.a * (v[x].sum() - own)
            - p.b * (v[:, i].sum() - own)
            - p.c * (v.sum() - own)
            - p.d * near
            - self.theta
        )

    def fields(self) -> np.ndarray:
        n = self.d.shape[0]
        v = self.state.reshape(n, n)
        near = self.d @ (np.roll(v, -1, axis=1) + np.roll(v, 1, axis=1))
        p = self.p
        h = (
            -p.a * (v.sum(axis=1, keepdims=True) - v)
            - p.b * (v.sum(axis=0) - v)
            - p.c * (v.sum() - v)
            - p.d * near
            - self.theta
        )
        return h.ravel()

    def dense(self) -> HopfieldNet:
        """The same network as dense (n^2, n^2) weights; refused above MAX_WEIGHT_BYTES.

        The refusal comes before any allocation.
        """
        n = self.d.shape[0]
        m = n * n
        need = m * m * np.dtype(float).itemsize
        if need > MAX_WEIGHT_BYTES:
            raise ValidationError(
                f"a {n}-city network needs a {need:,}-byte weight matrix, "
                f"over the {MAX_WEIGHT_BYTES:,}-byte cap"
            )
        city = np.arange(m) // n
        pos = np.arange(m) % n
        same_city = city[:, None] == city[None, :]
        same_pos = pos[:, None] == pos[None, :]
        gap = (pos[None, :] - pos[:, None]) % n
        adjacent = (gap == 1).astype(float) + (gap == n - 1).astype(float)
        p = self.p
        w = (
            -p.a * (same_city & ~same_pos)
            - p.b * (same_pos & ~same_city)
            - p.c
            - p.d * self.d[city[:, None], city[None, :]] * adjacent
        )
        np.fill_diagonal(w, 0.0)
        return HopfieldNet(weights=w, thresholds=self.theta, state=self.state.copy())


def _validate_state(state, m: int) -> np.ndarray:
    s = np.asarray(state, dtype=float)
    if s.shape != (m,):
        raise ValidationError(f"state must have {m} entries")
    if not np.all((s == 0.0) | (s == 1.0)):
        raise ValidationError("states are binary 0/1 vectors")
    return s


def _validate_matrix(v) -> np.ndarray:
    m = np.asarray(v, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("tour matrix must be square")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValidationError("tour matrix must be binary")
    return m


def constraint_energy(v, p: TankParams) -> float:
    m = _validate_matrix(v)
    n = m.shape[0]
    rows = m.sum(axis=1)
    cols = m.sum(axis=0)
    total = m.sum()
    row_term = 0.5 * p.a * float((rows**2 - rows).sum())
    col_term = 0.5 * p.b * float((cols**2 - cols).sum())
    count_term = 0.5 * p.c * float(total - n) ** 2
    return row_term + col_term + count_term


def cost_energy(v, distances, d_coeff: float) -> float:
    m = _validate_matrix(v)
    dist = np.asarray(distances, dtype=float)
    if dist.shape != m.shape:
        raise ValidationError("distance matrix must match the tour matrix size")
    if not np.allclose(dist, dist.T):
        raise ValidationError("distance matrix must be symmetric")
    forward = np.roll(m, -1, axis=1)
    backward = np.roll(m, 1, axis=1)
    pairing = m @ (forward + backward).T  # [x,y] = sum_i V[x][i](V[y][i+1]+V[y][i-1])
    off_diag = dist * pairing
    np.fill_diagonal(off_diag, 0.0)  # the x == y terms are excluded
    return 0.5 * d_coeff * float(off_diag.sum())


def build_weights(inst, p: TankParams) -> TankNet:
    """The Tank network of `inst`, stored in O(n^2); `.dense()` gives its weight matrix."""
    return TankNet(inst.d, p)


def network_energy(net) -> float:
    """-1/2 s W s + theta . s, with W s read off the fields as h + theta."""
    s = net.state
    theta = net.thresholds
    return float(-0.5 * s @ (net.fields() + theta) + theta @ s)


def async_step(net, rng):
    i = int(rng.integers(net.size))
    net.state[i] = 1.0 if net.field(i) >= 0 else 0.0
    return net


def is_fixed_point(net) -> bool:
    desired = (net.fields() >= 0).astype(float)
    return bool(np.array_equal(desired, net.state))


def decode_tour(v):
    """City order by position if v is a permutation matrix, else None."""
    m = _validate_matrix(v)
    if not (np.all(m.sum(axis=0) == 1.0) and np.all(m.sum(axis=1) == 1.0)):
        return None
    return np.argmax(m, axis=0).astype(np.intp)


def hopfield_solve(
    inst,
    budget: Budget,
    seed: int,
    p: TankParams | None = None,
    max_steps: Count | None = None,
    restarts: Count | None = None,
) -> RunRecord:
    """Best valid decoded tour over at most `restarts` random starts (default: the budget's).

    Each restart spawns its own child stream of the run's generator and
    runs the asynchronous dynamics until a full sweep would change
    nothing, or until `max_steps` single-neuron updates (default 100
    sweeps).  A valid decoded tour counts one evaluation under `budget`,
    and restarts stop once the run is finished; the extras count the
    restarts made.  A run the budget or target finished reads
    `budget_exhausted` or `target_reached`, as every searcher's does; one
    the restart cap ended reads `ok`, or `no_valid_tour` if no decode was
    valid.  The network is a `TankNet`: O(n^2) memory, any n.
    """
    if not hasattr(inst, "d"):
        raise ValidationError("Hopfield runs need a distance-matrix instance")
    p = p or TankParams()
    max_steps = conform(Count | None, max_steps, "'max_steps'")
    restarts = conform(Count | None, restarts, "'restarts'") or budget.max_evaluations
    net = build_weights(inst, p)
    m = net.size
    if max_steps is None:
        max_steps = 100 * m
    run = Run(inst, budget, seed, "hopfield_tank")
    attempts = valid = 0
    while attempts < restarts and not run.finished:
        attempts += 1
        stream = run.rng.spawn(1)[0]
        net.state = (stream.random(m) < 0.5).astype(float)
        steps = 0
        converged = is_fixed_point(net)
        while not converged and steps < max_steps:
            sweep = min(m, max_steps - steps)
            for _ in range(sweep):
                async_step(net, stream)
            steps += sweep
            converged = is_fixed_point(net)
        tour = decode_tour(net.state.reshape(inst.n, inst.n))
        if tour is not None:
            valid += 1
            run.evaluate(tour)
    extras = {
        "restarts": attempts,
        "valid_tours": valid,
        "valid_fraction": valid / attempts,
        "max_steps": max_steps,
    }
    return run.record(None if run.finished else ("ok" if valid else "no_valid_tour"),
                      extras=extras)
