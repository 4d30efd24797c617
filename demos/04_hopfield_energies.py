"""
Hopfield networks as energy minimizers for tours
================================================

A tour over n cities becomes an n-by-n binary assignment: rows are
cities, columns are positions.  Quadratic penalties score how far an
assignment is from being a permutation, a third term scores the tour
length, and a symmetric network encodes their sum so that every
asynchronous neuron update moves downhill in energy.
"""

import numpy as np

from stochopt import (
    Budget,
    HopfieldNet,
    TankParams,
    TspInstance,
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

# A valid assignment has zero constraint energy; anything else pays.
valid = np.eye(3)
broken = valid.copy()
broken[0, 0] = 0.0
p = TankParams()
print("constraint energy, permutation :", constraint_energy(valid, p))
print("constraint energy, broken      :", constraint_energy(broken, p))

# The tour term is the tour length scaled by its weight.
rng = seeded_rng(1)
inst = TspInstance.from_coords(rng.random((5, 2)), name="unit5")
order = decode_tour(np.eye(5))
print("cost energy / weight           :", cost_energy(np.eye(5), inst.d, p.d) / p.d)
print("tour length of that assignment :", inst.evaluate(order))

# Wiring the penalties into weights and thresholds gives a network whose
# energy can only fall under asynchronous updates.  `build_weights` keeps
# only the distances and coefficients, which is all its fields need;
# `dense()` spells out the (n^2, n^2) weight matrix they stand for.
net = build_weights(inst, p).dense()
net.state = (seeded_rng(7).random(net.size) < 0.5).astype(float)
energies = [network_energy(net)]
while not is_fixed_point(net):
    for _ in range(net.size):
        async_step(net, rng)
    energies.append(network_energy(net))
print("energy per sweep               :", [round(e, 1) for e in energies])

# Whether the fixed point decodes to a tour is a different question:
# with the textbook penalty weights it usually does not.  A gentler tour
# term on unit-scale distances behaves far better.
rec = hopfield_solve(inst, Budget(100), 0, p)
print(f"textbook weights: {rec.extras['valid_tours']}/100 restarts decode to tours")

soft = TankParams(d=40.0)
rec = hopfield_solve(inst, Budget(100), 0, soft)
_, optimum = brute_force_tour(inst)
print(
    f"softer tour term: {rec.extras['valid_tours']}/100 decode, "
    f"best {rec.best_fitness:.6f} vs exact {optimum:.6f}"
)

# The same recipe collapses on instances whose distances dwarf the
# penalty scale; valid fractions are worth recording, not assuming.
big = TspInstance.from_coords(100.0 * seeded_rng(3).random((6, 2)), name="big6")
rec = hopfield_solve(big, Budget(100), 0, soft)
print(f"unscaled distances: {rec.extras['valid_tours']}/100 decode ({rec.status})")
