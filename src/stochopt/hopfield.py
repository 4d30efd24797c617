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
the flip direction.  The descent needs W exactly symmetric, so
`HopfieldNet` weights and `cost_energy` distances that differ from their
transpose in any entry are refused, as `TspInstance` refuses them.

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
counts twice, as in the weights).  r, c and S are exact small integers,
so `TankNet` keeps them as counts, updated as neurons switch, and
`field` and `fields` both read them: each field is the float a sum over
the state would give.  That is O(n^2) memory, and three count updates
when a neuron switches.  All fields at once cost one O(n^3) product,
d @ (roll(V, -1, 1) + roll(V, 1, 1)), and the energy follows from them,
since W s = h + theta.  `TankNet.dense()` builds the (n^2)^2 matrix
itself, as a reference for small n.

An asynchronous step needs only the sign of one field, and
`TankNet.fires` reads it from three counts before it reads any
distance.  Call the count terms P = -A (r[x] - v) - B (c[i] - v)
- C (S - v).  When no distance is negative, the distance term is a
float sum of non-negative products, so it is at least each product;
rounding is monotone, so subtracting a larger term never gives a larger
float.  Hence the field is no greater than P - theta, and, when another
row holds an on-neuron in column i + 1 or i - 1, no greater than
P - D nearest[x] - theta, with nearest[x] the smallest distance from x
to another city.  Both bounds are computed in the field's own order, and
either one below 0 switches the neuron off.  Only a step neither bound
settles computes the n-entry dot product, and it then decides from the
exact field, ties firing.  `field` itself always returns the exact value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Budget, Count, NonNegative, Run, RunRecord, ScalarDraws, ValidationError,
                   check_fields, check_symmetric, conform)

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


class _Neurons:
    """A binary state held by the net: validated on every assignment, handed out read-only.

    `state` may be replaced at any time; the new vector is checked and
    copied, so the net alone writes to it, one neuron at a time through
    `set_neuron`.  An in-place write to `state` raises.
    """

    size: int

    @property
    def state(self) -> np.ndarray:
        return self._readonly

    @state.setter
    def state(self, state) -> None:
        self._state = _validate_state(state, self.size)
        self._readonly = self._state.view()
        self._readonly.flags.writeable = False
        self._recount()

    def _recount(self) -> None:
        pass

    def set_neuron(self, k: int, on: bool) -> None:
        """Switch neuron k on (1.0) or off (0.0)."""
        self._state[k] = 1.0 if on else 0.0

    def fires(self, k: int) -> bool:
        """Whether neuron k's input reaches its threshold: `field(k) >= 0`."""
        return self.field(k) >= 0


class HopfieldNet(_Neurons):
    """A Hopfield network given by dense symmetric weights and thresholds."""

    def __init__(self, weights: np.ndarray, thresholds, state=None):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError("weight matrix must be square")
        check_symmetric(w, "weight matrix", "w")
        if np.any(np.diag(w) != 0):
            raise ValidationError("no self-connections: diagonal must be zero")
        self.weights = w
        self.thresholds = np.broadcast_to(
            np.asarray(thresholds, dtype=float), (w.shape[0],)
        ).copy()
        self.state = np.zeros(w.shape[0]) if state is None else state

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def field(self, i: int) -> float:
        """Input of neuron i less its threshold: w[:, i] @ s - theta_i."""
        return float(self.weights[:, i] @ self._state) - float(self.thresholds[i])

    def fields(self) -> np.ndarray:
        """Every neuron's `field` at once."""
        return self.weights @ self._state - self.thresholds


class TankNet(_Neurons):
    """The Tank network of a tour instance, held as its distances and coefficients.

    It has `HopfieldNet`'s `size`, `state`, `thresholds`, `field`,
    `fields`, `fires` and `set_neuron`, computed from the structured
    field in the module docstring; `n`, `size` and `theta` are set once,
    from `d` and `p`.  The net keeps the row, column and total counts of
    `state`: assigning `state` recounts them and `set_neuron` updates the
    three it changes, and `field`, `fields` and `fires` all read them
    where they would sum the state.  They are exact small integers, so
    each field is the same float as one summed from the state.
    """

    def __init__(self, d: np.ndarray, p: TankParams, state=None):
        d = np.asarray(d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError("distance matrix must be square")
        if d.shape[0] < 2:
            raise ValidationError("the tour encoding needs at least two cities")
        self.d = d
        self.p = p
        self.n = n = d.shape[0]
        self.size = n * n
        self.theta = -p.c * (2 * n - 1) / 2.0
        # `fires` may decide from bounds only when every distance term is >= 0
        self._bounded = bool(np.all(d >= 0))
        self._nearest = np.where(np.eye(n, dtype=bool), np.inf, d).min(axis=1).tolist()
        self.state = np.zeros(self.size) if state is None else state

    @property
    def thresholds(self) -> np.ndarray:
        return np.full(self.size, self.theta)

    def _recount(self) -> None:
        self._v = v = self._state.reshape(self.n, self.n)
        self._rows = v.sum(axis=1).tolist()
        self._cols = v.sum(axis=0).tolist()
        self._total = float(v.sum())

    def set_neuron(self, k: int, on: bool) -> None:
        value = 1.0 if on else 0.0
        change = value - self._state.item(k)
        if change:
            self._state[k] = value
            x, i = divmod(k, self.n)
            self._rows[x] += change
            self._cols[i] += change
            self._total += change

    def field(self, k: int) -> float:
        n = self.n
        x, i = divmod(k, n)
        v = self._v
        counts = _penalty(self.p, self._rows[x], self._cols[i], self._total, v.item(x, i))
        near = float(self.d[x] @ (v[:, (i + 1) % n] + v[:, i - 1]))
        return counts - self.p.d * near - self.theta

    def fires(self, k: int) -> bool:
        """`field(k) >= 0`, settled from the counts where one of the module docstring's bounds holds.

        Each bound is computed in `field`'s float order and, with no
        distance negative, is no less than the field, so a bound below 0
        means off; otherwise `field` itself decides.
        """
        if self._bounded:
            n = self.n
            x, i = divmod(k, n)
            v = self._v
            counts = _penalty(self.p, self._rows[x], self._cols[i], self._total, v.item(x, i))
            if counts - self.theta < 0:
                return False
            after = (i + 1) % n
            cols = self._cols
            if (cols[after] + cols[i - 1] > v.item(x, after) + v.item(x, i - 1)
                    and counts - self.p.d * self._nearest[x] - self.theta < 0):
                return False
        return self.field(k) >= 0

    def fields(self) -> np.ndarray:
        v = self._v
        near = self.d @ (np.roll(v, -1, axis=1) + np.roll(v, 1, axis=1))
        counts = _penalty(self.p, np.array(self._rows)[:, None], np.array(self._cols),
                          self._total, v)
        return (counts - self.p.d * near - self.theta).ravel()

    def dense(self) -> HopfieldNet:
        """The same network as dense (n^2, n^2) weights; refused above MAX_WEIGHT_BYTES.

        The refusal comes before any allocation.
        """
        n, m = self.n, self.size
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


def _penalty(p: TankParams, row, col, total, own):
    """-A (r[x] - v) - B (c[i] - v) - C (S - v): the count terms of a field, in its float order."""
    return -p.a * (row - own) - p.b * (col - own) - p.c * (total - own)


def _validate_state(state, m: int) -> np.ndarray:
    """A binary vector of m floats, as a new array."""
    s = np.array(state, dtype=float)
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
    check_symmetric(dist, "distance matrix", "d")
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
    """Update one uniformly drawn neuron: on when its field reaches 0, else off."""
    i = int(rng.integers(net.size))
    net.set_neuron(i, net.fires(i))
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
    sweeps).  The steps draw their neurons from the stream through
    `core.ScalarDraws`, which hands the stream back when the restart's
    steps end.  A valid decoded tour counts one evaluation under `budget`,
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
        with ScalarDraws(stream) as draws:
            steps = 0
            converged = is_fixed_point(net)
            while not converged and steps < max_steps:
                sweep = min(m, max_steps - steps)
                for _ in range(sweep):
                    async_step(net, draws)
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
