"""Independent brute-force machinery: bounded model search and generators.

``bounded_sat_search`` is a falsifier, not a decision procedure: it
exhaustively enumerates every labelled transition system in a small box
(up to 3 states, 2 actions, 2 atoms), then tries seeded random models.
Random trials run only for formulas over more than 2 atoms or for bounds
beyond 3 states or 2 actions: with bounds inside the box every draw is a
model the sweep has already rejected.  Any model it returns is re-checked
with the exact evaluator before being handed back, so a hit is always
trustworthy; a miss proves nothing outside the box.

The exhaustive tier is bit-sliced on Python ints: for each (state count,
action count) shape, a formula-independent table of witness-plan existence
— for each precondition and postcondition mask, the set of relation
combinations, one bit each, where a witness plan exists — is computed once
by a subset-reachability fixpoint and cached.  Evaluating a formula over
all relation combinations of a shape then runs the model checker's own
walker (``semantics.eval_core``) once per valuation on ints that hold a
state set under every combination, one slice of combination bits per
state, with ``Kh`` read from that table; the lowest combination whose
truth set is not empty is the hit.  Both tiers evaluate the formula as
written, sugar included, and never build its core form; the walker's rules
need each atom's sets to lie within the shape's full state set, which the
valuation counters' masks do.  Of the valuations that are equal up to a
permutation of the states it visits only the least: they have isomorphic
models, so the first model found is the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

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
from .semantics import Lts, eval_core, eval_formula, make_lts, truth_masks

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
# Bit-sliced witness tables
#
# For a shape (n states, k actions) every relation combination is an integer
# r with k * n * n bits: bit (a * n * n + s * n + t) says state s has an
# a-successor t.  A set of combinations is an int whose bit r says r is in
# it; the combinations with one relation bit set form a periodic mask, as a
# truth-table column does.  The table w[pre][post] is the set of
# combinations where some plan is strongly executable on all of `pre` with
# image inside `post`.


@lru_cache(maxsize=None)
def _witness_table(n: int, k: int) -> list[list[int]]:
    bits = k * n * n
    every = (1 << (1 << bits)) - 1
    subsets = 1 << n
    edge = truth_masks(range(bits - 1, -1, -1))  # relation bit i -> its combinations

    # moves[T]: for each action, each frontier U it steps T to, with the
    # combinations where it applies at every state of T and its image is U
    moves: list[list[tuple[int, int]]] = []
    for frontier in range(subsets):
        states = [s for s in range(n) if frontier >> s & 1]
        moves.append([])
        for a in range(k):
            applicable = every
            for s in states:
                applicable &= reduce(or_, (edge[a * n * n + s * n + t] for t in range(n)))
            into = [reduce(or_, (edge[a * n * n + s * n + t] for s in states), 0) for t in range(n)]
            moves[frontier] += [(image, m) for image, m in enumerate(_partition(applicable, into)) if m]

    table = []
    for pre in range(subsets):
        # reach[T]: the combinations where frontier T is reachable from pre,
        # closed by passing on only what each frontier newly gains
        reach = [0] * subsets
        reach[pre] = every
        gains = {pre: every}
        while gains:
            frontier, gained = gains.popitem()
            for image, m in moves[frontier]:
                new = gained & m & ~reach[image]
                if new:
                    reach[image] |= new
                    gains[image] = gains.get(image, 0) | new
        # w[pre][post] is reach[T] over every T within post
        for s in range(n):
            for post in range(subsets):
                if post >> s & 1:
                    reach[post] |= reach[post ^ 1 << s]
        table.append(reach)
    return table


def _partition(whole: int, members: list[int]) -> list[int]:
    """``whole`` split by membership: part i holds the bits of ``whole``
    that lie in ``members[j]`` exactly for the bits j set in i."""
    parts = [whole]
    for member in members:
        parts = [m & ~member for m in parts] + [m & member for m in parts]
    return parts


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
            every = (1 << combos) - 1
            all_mask = (1 << n) - 1
            # A set of states under every combination at once: n slices of
            # ``combos`` bits, bit s * combos + r saying state s is in the set
            # under combination r.  spread[S] is the state set S under all.
            spread = [0]
            for s in range(n):
                spread += [m | every << s * combos for m in spread]

            def slices(states: int) -> list[int]:
                return [states >> s * combos & every for s in range(n)]

            def kh(pre: int, post: int) -> int:
                # _partition(every, slices(x))[S]: the combinations where x is S
                posts = [(q, m) for q, m in enumerate(_partition(every, slices(post))) if m]
                hit = 0
                for p, at_pre in enumerate(_partition(every, slices(pre))):
                    if at_pre:
                        row = table[p]
                        hit |= at_pre & reduce(or_, (m & row[q] for q, m in posts))
                return reduce(or_, (hit << s * combos for s in range(n)))

            for val_counter in _least_valuations(n, len(atoms)):
                val_masks = {
                    atom: (val_counter >> (idx * n)) & all_mask
                    for idx, atom in enumerate(atoms)
                }
                truth = eval_core(f, {a: spread[m] for a, m in val_masks.items()}, spread[all_mask], kh)
                hits = reduce(or_, slices(truth))
                if hits:
                    combo = (hits & -hits).bit_length() - 1
                    model = _decode_model(n, k, combo, atoms, val_masks)
                    if eval_formula(model, f) == 0:  # pragma: no cover
                        raise AssertionError("bit-sliced tier disagrees with exact evaluator")
                    return model
    return None


def bounded_sat_search(f: Formula, bounds: SearchBounds = SearchBounds()) -> Lts | None:
    """First model of ``f`` found in the exhaustive box or by random trials.

    Every returned model has been re-verified by the exact evaluator.  The
    exhaustive tier is skipped when the formula mentions more atoms than the
    box covers (it could not be complete for that vocabulary).  When it ran
    and the bounds lie inside the box (at most 3 states and 2 actions), its
    miss is returned without random trials, which could only redraw models
    it has already rejected.
    """
    atoms = _atom_names(f)
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


def _atom_names(f: Formula) -> list[str]:
    """The atom names of ``f``, sorted, read without filling a node fact.
    The walk recurses once per nesting level; past the recursion limit
    ``formula.fold`` collects them again in one frame."""
    names: set[str] = set()

    def walk(g: Formula) -> None:
        if type(g) is Atom:
            names.add(g.name)
        else:
            for child in g.children:
                walk(child)

    try:
        walk(f)
    except RecursionError:
        fold(f, lambda node, _: names.add(node.name) if type(node) is Atom else None)
    finally:
        del walk  # empties the closure's own cell: no cycle for the collector
    return sorted(names)


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
