"""Independent brute-force machinery: bounded model search and generators.

``bounded_sat_search`` is a falsifier, not a decision procedure: it
exhaustively enumerates every labelled transition system in a small box
(up to 3 states, 2 actions, 2 atoms), then tries seeded random models.
Random trials run only for formulas over more than 2 atoms or for bounds
beyond 3 states or 2 actions: with bounds inside the box every draw is a
model the sweep has already rejected.  Any model it returns is re-checked
with the exact evaluator before being handed back, so a hit is always
trustworthy; a miss proves nothing outside the box.

The exhaustive tier is vectorized with numpy: for each (state count, action
count) shape, a formula-independent table of witness-plan existence — indexed
by relation combination, precondition mask, and postcondition mask — is
computed once by a subset-reachability fixpoint and cached.  Evaluating a
formula over all relation combinations of a shape then runs the model
checker's own walker (``semantics.eval_core``) on integer arrays of truth
masks, with ``Kh`` read from that table.  Both tiers evaluate the formula
as written, sugar included, and never build its core form; the walker's
rules need each atom's masks to lie within the shape's full state mask,
which the valuation counters' masks do.  Of the valuations that are equal
up to a permutation of the states it visits only the least: they have
isomorphic models, so the first model found is the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .formula import (
    And,
    Atom,
    Bottom,
    Exis,
    Formula,
    Implies,
    Iff,
    Kh,
    Not,
    Or,
    Top,
    Univ,
    fold,
    kh_occurrences,
)
from .semantics import Lts, eval_core, eval_formula, make_lts

_EXHAUSTIVE_MAX_STATES = 3
_EXHAUSTIVE_MAX_ACTIONS = 2
_EXHAUSTIVE_MAX_ATOMS = 2


@dataclass(frozen=True)
class SearchBounds:
    """Knobs for the bounded search.

    The exhaustive tier runs over the fixed box intersected with these
    bounds; the random tier draws ``random_trials`` models within them.  The
    trials run only for formulas over more than 2 atoms or for bounds beyond
    3 states or 2 actions.
    """

    max_states: int = 3
    max_actions: int = 2
    random_trials: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        for name in ("max_actions", "random_trials"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")


# ---------------------------------------------------------------------------
# Vectorized witness tables
#
# For a shape (n states, k actions) every relation combination is an integer
# r with k * n * n bits: bit (a * n * n + s * n + t) says state s has an
# a-successor t.  The table w[r, pre, post] records whether some plan is
# strongly executable on all of `pre` with image inside `post`.


@lru_cache(maxsize=None)
def _witness_table(n: int, k: int) -> np.ndarray:
    combos = 1 << (k * n * n)
    subsets = 1 << n
    r = np.arange(combos, dtype=np.int64)

    # successor masks per action and source state, shape (combos,)
    succ = np.empty((k, n, combos), dtype=np.int16)
    row_mask = (1 << n) - 1
    for a in range(k):
        for s in range(n):
            succ[a, s] = ((r >> (a * n * n + s * n)) & row_mask).astype(np.int16)

    # image[a][T] and applicability[a][T] for every frontier subset T
    image = np.zeros((k, subsets, combos), dtype=np.int16)
    applicable = np.zeros((k, subsets, combos), dtype=bool)
    for a in range(k):
        for subset in range(subsets):
            img = np.zeros(combos, dtype=np.int16)
            app = np.ones(combos, dtype=bool)
            for s in range(n):
                if subset >> s & 1:
                    img |= succ[a, s]
                    app &= succ[a, s] != 0
            image[a, subset] = img
            applicable[a, subset] = app

    # reach[pre, T] : frontier T is reachable from initial frontier `pre`
    reach = np.zeros((subsets, subsets, combos), dtype=bool)
    for pre in range(subsets):
        reach[pre, pre] = True
    changed = True
    while changed:
        changed = False
        for pre in range(subsets):
            for frontier in range(subsets):
                active = reach[pre, frontier]
                if not active.any():
                    continue
                for a in range(k):
                    step = active & applicable[a, frontier]
                    if not step.any():
                        continue
                    targets = image[a, frontier]
                    for target in np.unique(targets[step]):
                        update = step & (targets == target) & ~reach[pre, target]
                        if update.any():
                            reach[pre, target] |= update
                            changed = True

    # w[r, pre, post] = exists reachable frontier T with T subset of post
    table = np.zeros((combos, subsets, subsets), dtype=bool)
    for post in range(subsets):
        inside = [t for t in range(subsets) if t & ~post == 0]
        table[:, :, post] = reach[:, inside, :].any(axis=1).T
    return table


def _decode_model(n: int, k: int, combo: int, atoms: list[str], val_masks: dict[str, int]) -> Lts:
    """The model of relation combination ``combo`` of shape (n, k) under the
    valuation masks, its successor masks read straight off ``combo``'s bits."""
    row_mask = (1 << n) - 1
    actions = ("a", "b")[:k]
    succ = {
        action: tuple(combo >> (a * n * n + s * n) & row_mask for s in range(n))
        for a, action in enumerate(actions)
    }
    val = {atom: val_masks[atom] for atom in atoms if val_masks.get(atom, 0)}
    return Lts(tuple(f"s{i}" for i in range(n)), actions, succ, val)


@lru_cache(maxsize=None)
def _least_valuations(n: int, atom_count: int) -> list[int]:
    """The valuation counters of ``n`` states over ``atom_count`` atoms that
    are least among their images under permutations of the states: those
    whose states' atom sets, read as numbers (last atom most significant),
    never grow from one state to the next.  A model with its states permuted
    is isomorphic, so the sweep's first hit is always such a counter."""

    def kind(counter: int, s: int) -> int:
        return sum((counter >> (idx * n + s) & 1) << idx for idx in range(atom_count))

    counters = range(1 << (atom_count * n))
    return [c for c in counters if all(kind(c, s) >= kind(c, s + 1) for s in range(n - 1))]


def _exhaustive_tier(f: Formula, atoms: list[str], bounds: SearchBounds) -> Lts | None:
    max_states = min(_EXHAUSTIVE_MAX_STATES, bounds.max_states)
    max_actions = min(_EXHAUSTIVE_MAX_ACTIONS, bounds.max_actions)
    for n in range(1, max_states + 1):
        for k in range(0, max_actions + 1):
            combos = 1 << (k * n * n)
            table = _witness_table(n, k)
            rows = np.arange(combos)
            all_mask = (1 << n) - 1

            def kh(pre, post):
                return np.where(table[rows, pre, post], all_mask, 0).astype(np.int16)

            for val_counter in _least_valuations(n, len(atoms)):
                val_masks = {
                    atom: (val_counter >> (idx * n)) & all_mask
                    for idx, atom in enumerate(atoms)
                }
                truth = eval_core(f, val_masks, all_mask, kh)
                hits = np.flatnonzero(truth)
                if hits.size:
                    model = _decode_model(n, k, int(hits[0]), atoms, val_masks)
                    if eval_formula(model, f) == 0:  # pragma: no cover
                        raise AssertionError("vectorized tier disagrees with exact evaluator")
                    return model
    return None


def bounded_sat_search(f: Formula, bounds: SearchBounds = SearchBounds()) -> Lts | None:
    """First model of ``f`` found in the exhaustive box or by random trials.

    Every returned model has been re-verified by the exact evaluator.  The
    exhaustive tier is skipped when the formula mentions more atoms than the
    box covers (it could not be complete for that vocabulary).  When it ran
    and the bounds lie inside the box (at most 3 states and 2 actions), its
    miss is returned without random trials, which could only redraw models
    it has already rejected.  The atom names come from one ``fold`` over
    ``f``, which fills no node fact.
    """
    names: set[str] = set()
    fold(f, lambda node, _: names.add(node.name) if type(node) is Atom else None)
    atoms = sorted(names)
    if len(atoms) <= _EXHAUSTIVE_MAX_ATOMS:
        model = _exhaustive_tier(f, atoms, bounds)
        if model is not None:
            return model
        if (
            bounds.max_states <= _EXHAUSTIVE_MAX_STATES
            and bounds.max_actions <= _EXHAUSTIVE_MAX_ACTIONS
        ):
            return None  # every random draw would lie inside the swept box
    rng = random.Random(bounds.seed)
    for _ in range(bounds.random_trials):
        n = rng.randint(1, bounds.max_states)
        k = rng.randint(0, bounds.max_actions)
        density = rng.choice([0.1, 0.2, 0.3, 0.5])
        model = random_lts(n, k, tuple(atoms), density, rng.getrandbits(32))
        if eval_formula(model, f) != 0:
            return model
    return None


# ---------------------------------------------------------------------------
# Seeded generators


def random_formula(
    depth_max: int, leaf_max: int, atoms: tuple[str, ...], seed: int
) -> Formula:
    """Seeded random formula with modal depth at most ``depth_max`` and at
    most ``leaf_max`` modality occurrences (counted after desugaring)."""
    if not atoms:
        raise ValueError("need at least one atom")
    if depth_max < 0 or leaf_max < 0:
        raise ValueError("depth and leaf bounds must not be negative")
    rng = random.Random(seed)
    leaves = [leaf_max]
    nodes = [24]  # connective budget keeping every sample finite and small

    def gen(depth: int, mult: int) -> Formula:
        # ``mult`` tracks how many copies of this subtree survive desugaring
        # (each enclosing <-> duplicates it), so the leaf budget stays exact.
        if nodes[0] <= 0:
            return Atom(rng.choice(atoms))
        choices = ["atom", "atom", "not", "or", "and", "implies"]
        if rng.random() < 0.08:
            choices.append("const")
        if rng.random() < 0.15:
            choices.append("iff")
        if depth > 0 and leaves[0] >= mult:
            choices.extend(["kh", "kh", "univ", "exis"])
        pick = rng.choice(choices)
        if pick == "atom":
            return Atom(rng.choice(atoms))
        if pick == "const":
            return Top() if rng.random() < 0.5 else Bottom()
        nodes[0] -= 1
        if pick == "not":
            return Not(gen(depth, mult))
        if pick == "iff":
            return Iff(gen(depth, 2 * mult), gen(depth, 2 * mult))
        if pick in ("or", "and", "implies"):
            ctor = {"or": Or, "and": And, "implies": Implies}[pick]
            return ctor(gen(depth, mult), gen(depth, mult))
        leaves[0] -= mult
        if pick == "univ":
            return Univ(gen(depth - 1, mult))
        if pick == "exis":
            return Exis(gen(depth - 1, mult))
        return Kh(gen(depth - 1, mult), gen(depth - 1, mult))

    f = gen(depth_max, 1)
    assert kh_occurrences(f) <= leaf_max
    return f


def random_lts(
    states: int, actions: int, atoms: tuple[str, ...], density: float, seed: int
) -> Lts:
    """Seeded random model: each potential edge kept with probability
    ``density``, each atom true at each state with probability one half."""
    if states < 1:
        raise ValueError("need at least one state")
    if actions < 0:
        raise ValueError("action count must not be negative")
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(states)]
    action_names = [chr(ord("a") + i) for i in range(actions)]
    props = {s: [atom for atom in atoms if rng.random() < 0.5] for s in names}
    rel = {
        action: [(s, t) for s in names for t in names if rng.random() < density]
        for action in action_names
    }
    return make_lts(names, props, rel)
