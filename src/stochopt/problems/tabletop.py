"""Explicit finite state graphs with labeled moves.

A tabletop instance lists every state's cost and its undirected neighbor
edges, so tiny landscapes can be written down exactly and search traces
checked step by step.  Edges may carry a label per direction (an axis
and sign on a hypercube, say); unlabeled edges fall back to (from, to)
ordered pairs, which still gives every move a well-defined reverse.

Atoms: each distinct label gets an id (0..L-1, in order of first
appearance), and state s has the id L + s, so move atoms and the state
atoms of `solution_attributes` never meet.

`cube_fixture` builds the 8-state unit cube whose vertex costs make
greedy descent stall on a secondary basin while smarter strategies reach
the global minimum at cost 5.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    EncodingMismatchError,
    Neighborhood,
    NoNeighborError,
    Problem,
    ValidationError,
)


class TabletopInstance(Problem):
    kind = "tabletop"

    def __init__(self, costs, edges, name: str = "tabletop"):
        """edges: (u, v) or (u, v, label_uv, label_vu) tuples, undirected."""
        self.costs = [float(c) for c in costs]
        if not self.costs:
            raise ValidationError("instance needs at least one state")
        n = len(self.costs)
        self.adjacency: list[list[tuple[int, object, object]]] = [[] for _ in range(n)]
        for e in edges:
            if len(e) == 2:
                u, v = e
                lab_uv, lab_vu = (u, v), (v, u)
            else:
                u, v, lab_uv, lab_vu = e
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValidationError(f"edge ({u}, {v}) is not between two distinct states")
            self.adjacency[u].append((v, lab_uv, lab_vu))
            self.adjacency[v].append((u, lab_vu, lab_uv))
        self.name = name
        self._label_ids: dict = {}
        for options in self.adjacency:
            for _, lab, _ in options:
                self._label_ids.setdefault(lab, len(self._label_ids))
        self.atom_count = len(self._label_ids) + n

    def validate(self, solution) -> int:
        if isinstance(solution, (np.integer, int)) and not isinstance(solution, bool):
            s = int(solution)
            if 0 <= s < len(self.costs):
                return s
            raise ValidationError(f"state {s} outside 0..{len(self.costs) - 1}")
        raise EncodingMismatchError("tabletop solutions are integer state ids")

    def cost(self, solution) -> float:
        return self.costs[solution]

    def random_solution(self, rng) -> int:
        return int(rng.integers(len(self.costs)))

    def neighbors(self, solution) -> Neighborhood:
        options = self.adjacency[solution]
        ids = self._label_ids
        states = [v for v, _, _ in options]
        return Neighborhood(
            costs=self.cost_rows(states),
            broken=np.array([ids[lab] for _, lab, _ in options], dtype=np.intp).reshape(-1, 1),
            made=np.array([ids[rev] for _, _, rev in options], dtype=np.intp).reshape(-1, 1),
            label=lambda k: options[k][1],
            row=states.__getitem__,
        )

    def sample_move(self, solution, rng):
        options = self.adjacency[solution]
        if not options:
            raise NoNeighborError(f"state {solution} has no neighbors")
        return options[int(rng.integers(len(options)))][0]

    def solution_attributes(self, solution) -> np.ndarray:
        return np.array([len(self._label_ids) + solution], dtype=np.intp)


CUBE_COSTS = {
    (0, 0, 0): 15.0,
    (1, 0, 0): 10.0,
    (0, 1, 0): 5.0,
    (1, 1, 0): 12.0,
    (0, 0, 1): 11.0,
    (1, 0, 1): 8.0,
    (0, 1, 1): 9.0,
    (1, 1, 1): 13.0,
}


def cube_state(x: int, y: int, z: int) -> int:
    return x + 2 * y + 4 * z


def cube_fixture() -> TabletopInstance:
    """Unit cube, states indexed x + 2y + 4z, moves labeled 'x+', 'x-', ...

    Flipping a coordinate from 0 to 1 is the '+' move along that axis.
    Starting from the cost-10 vertex, greedy descent ends in the cost-8
    corner; the global minimum sits at cost 5.
    """
    costs = [0.0] * 8
    for (x, y, z), c in CUBE_COSTS.items():
        costs[cube_state(x, y, z)] = c
    edges = []
    for x in range(2):
        for y in range(2):
            for z in range(2):
                here = (x, y, z)
                for axis, name in enumerate("xyz"):
                    if here[axis] == 0:
                        there = list(here)
                        there[axis] = 1
                        edges.append(
                            (
                                cube_state(*here),
                                cube_state(*there),
                                f"{name}+",
                                f"{name}-",
                            )
                        )
    # list each state's moves in x, y, z order
    inst = TabletopInstance(costs, edges, name="cube")
    for s in range(8):
        inst.adjacency[s].sort(key=lambda t: "xyz".index(str(t[1])[0]))
    return inst
