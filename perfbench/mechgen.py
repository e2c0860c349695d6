"""Seeded generator of mass-balanced, igniting chain-branching mechanisms.

The generated mechanisms generalise the shipped three-species toy (fuel,
chain carrier, bath) to K species in five classes, with integer mass units
so every reaction balances exactly:

    fuels F*          4 units, as energetic as two intermediates, so
                      initiation neither heats nor cools the gas much
    intermediates I*  2 units, moderately energetic
    carriers X*       1 unit, radicals with high formation enthalpy
    products P*       2 units, very stable (the heat release)
    bath gases B*     inert

Reaction templates: fuel initiation (F => I + I), intermediate fission
(I => X + X), fuel attack (F + X => I + I + X), chain branching
(I + X => X + X + X), oxidation (I + X => P + X), reversible radical
exchange (X + I <=> X + I), reversible isomerisation (I <=> I) and
reversible recombination (X + X <=> P). There are 6K + K//7 reactions
(325 at K = 53, as in GRI-Mech 3.0). Thermo is NASA-7 with one coefficient
set over 200-6000 K, so c_p is continuous at T_mid. `perturb_rates` draws
new rate constants on a fixed network, for inputs of equal difficulty.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from expkin.kinetics import Mechanism, Reaction, Species

MASS_UNIT = 0.015            # kg/mol per mass unit
T_LOW, T_MID, T_HIGH = 200.0, 1000.0, 6000.0
MIN_SPECIES = 8

# class -> (mass units, a1 range, a6 range [K], a7 range)
_CLASSES = {
    "F": (4, (6.0, 8.0), (1.8e4, 2.2e4), (20.0, 30.0)),
    "I": (2, (4.0, 5.0), (8.0e3, 1.2e4), (10.0, 15.0)),
    "X": (1, (2.5, 3.0), (2.2e4, 2.8e4), (3.0, 6.0)),
    "P": (2, (4.0, 5.0), (-4.2e4, -3.6e4), (5.0, 10.0)),
}
# template -> (reactant classes, product classes, reversible,
#              log10 A range, temperature exponent range, E range [J/mol])
_TEMPLATES = (
    ("init", ("F",), ("I", "I"), False, (12.0, 13.0), (0.0, 0.5), (2.3e5, 2.5e5)),
    ("fission", ("I",), ("X", "X"), False, (12.0, 13.0), (0.0, 0.5), (2.0e5, 2.2e5)),
    ("attack", ("F", "X"), ("I", "I", "X"), False, (6.5, 7.5), (0.0, 1.0), (3.0e4, 5.0e4)),
    ("branch", ("I", "X"), ("X", "X", "X"), False, (7.0, 7.5), (0.0, 0.5), (7.0e4, 9.0e4)),
    ("oxidise", ("I", "X"), ("P", "X"), False, (6.5, 7.0), (0.0, 0.5), (1.0e4, 2.0e4)),
    ("exchange", ("X", "I"), ("X", "I"), True, (6.0, 7.0), (0.0, 0.5), (1.0e4, 3.0e4)),
    ("isomer", ("I",), ("I",), True, (9.0, 10.0), (0.0, 0.5), (1.2e5, 1.5e5)),
    ("recomb", ("X", "X"), ("P",), True, (6.0, 6.5), (-0.5, 0.0), (0.0, 2.0e3)),
)
# Share of the reactions each template gets, in _TEMPLATES order.
_TEMPLATE_WEIGHTS = (0.03, 0.07, 0.20, 0.15, 0.20, 0.15, 0.10, 0.10)


def class_counts(n_species):
    """Species per class for K species: {class: count}."""
    if n_species < MIN_SPECIES:
        raise ValueError(f"need at least {MIN_SPECIES} species, got {n_species}")
    counts = {
        "B": 1 + n_species // 25,
        "F": max(1, n_species // 12),
        "X": max(2, n_species // 4),
        "P": max(2, n_species // 6),
    }
    counts["I"] = n_species - sum(counts.values())
    return counts


def n_reactions_for(n_species):
    return 6 * n_species + n_species // 7


def _species(rng, cls, index):
    if cls == "B":
        units, a1, a6, a7 = None, 3.5, -1.0e3, 20.0
        molar_mass = (0.028, 0.040)[index % 2]
    else:
        units, a1_rng, a6_rng, a7_rng = _CLASSES[cls]
        molar_mass = units * MASS_UNIT
        a1, a6, a7 = (rng.uniform(*a1_rng), rng.uniform(*a6_rng),
                      rng.uniform(*a7_rng))
    # One coefficient set for both ranges keeps c_p continuous at T_MID.
    coeffs = (float(a1), 0.0, 0.0, 0.0, 0.0, float(a6), float(a7))
    return Species(name=f"{cls}{index}", molar_mass=molar_mass, t_low=T_LOW,
                   t_mid=T_MID, t_high=T_HIGH, coeffs_low=coeffs,
                   coeffs_high=coeffs)


def _side(rng, classes, members):
    stoich = {}
    for cls in classes:
        idx = int(rng.choice(members[cls]))
        stoich[idx] = stoich.get(idx, 0) + 1
    return stoich


def generate_mechanism(n_species, seed):
    """Mechanism with `n_species` species, reproducible from `seed`."""
    rng = np.random.default_rng([n_species, seed])
    counts = class_counts(n_species)
    species = []
    members = {}
    for cls in ("F", "I", "X", "P", "B"):
        members[cls] = list(range(len(species), len(species) + counts[cls]))
        species.extend(_species(rng, cls, i) for i in range(counts[cls]))

    n_rxn = n_reactions_for(n_species)
    quota = np.floor(np.asarray(_TEMPLATE_WEIGHTS) * n_rxn).astype(int)
    # Every fuel gets an initiation and every intermediate a fission path,
    # so no species is a dead end of the chain.
    quota[0] = max(quota[0], counts["F"])
    quota[1] = max(quota[1], counts["I"])
    quota[2] += n_rxn - quota.sum()
    reactions = []
    seen = set()
    for (name, lhs, rhs, reversible, log_a, beta, energy), n in zip(_TEMPLATES, quota):
        made = 0
        while made < n:
            if name in ("init", "fission") and made < counts[lhs[0]]:
                reactants = {members[lhs[0]][made]: 1}
            else:
                reactants = _side(rng, lhs, members)
            products = _side(rng, rhs, members)
            key = (tuple(sorted(reactants.items())), tuple(sorted(products.items())))
            if reactants == products or key in seen:
                continue
            seen.add(key)
            reactions.append(Reaction(
                reactants=reactants, products=products,
                arrhenius=(float(10.0 ** rng.uniform(*log_a)),
                           float(rng.uniform(*beta)), float(rng.uniform(*energy))),
                reversible=reversible))
            made += 1
    return Mechanism(species=tuple(species), reactions=tuple(reactions))


def perturb_rates(mech, seed, spread):
    """The mechanism with every pre-exponential factor scaled by exp(N(0, spread))."""
    rng = np.random.default_rng(seed)
    factors = np.exp(rng.normal(0.0, spread, size=mech.n_reactions))
    reactions = tuple(
        replace(r, arrhenius=(float(r.arrhenius[0] * f), *r.arrhenius[1:]))
        for r, f in zip(mech.reactions, factors))
    return Mechanism(species=mech.species, reactions=reactions)


def initial_mass_fractions(mech, fuel_fraction=0.08):
    """Fuel split evenly over the fuels, the rest evenly over the bath gases."""
    fuels = [s.name for s in mech.species if s.name.startswith("F")]
    baths = [s.name for s in mech.species if s.name.startswith("B")]
    Y = {name: fuel_fraction / len(fuels) for name in fuels}
    Y.update({name: (1.0 - fuel_fraction) / len(baths) for name in baths})
    return Y
