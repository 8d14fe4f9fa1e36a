"""Tests for the bounded model search and the seeded generators."""

from __future__ import annotations

import itertools
import random

import numpy as np

from knowhow import formula, oracle
from knowhow.formula import And, Exis, Not, atoms_of, kh_occurrences, modal_depth, parse
from knowhow.oracle import (
    SearchBounds,
    _decode_model,
    _witness_table,
    bounded_sat_search,
    random_formula,
    random_lts,
)
from knowhow.semantics import dump_model, eval_core, eval_formula, has_witness_plan, make_lts


def test_search_finds_model_for_simple_modality():
    model = bounded_sat_search(parse("Kh(p, q)"))
    assert model is not None
    assert eval_formula(model, parse("Kh(p, q)")) != 0


def test_search_rejects_propositional_contradiction():
    assert bounded_sat_search(parse("p & ~p")) is None


def test_search_rejects_denied_reflexive_modality():
    # The empty plan witnesses Kh(p, p) in every model.
    assert bounded_sat_search(parse("~Kh(p, p)")) is None


def test_search_rejects_conflicting_quantifiers():
    assert bounded_sat_search(parse("A p & E ~p")) is None


def test_search_needs_two_states_when_forced():
    model = bounded_sat_search(parse("p & E ~p"))
    assert model is not None
    assert len(model.states) == 2
    assert eval_formula(model, parse("p & E ~p")) != 0


def test_search_is_deterministic():
    first = bounded_sat_search(parse("Kh(p, q) & ~Kh(q, p)"))
    second = bounded_sat_search(parse("Kh(p, q) & ~Kh(q, p)"))
    assert first is not None
    assert dump_model(first) == dump_model(second)


def test_search_finds_the_same_model_for_a_formula_and_its_core_seeded():
    # Two atoms run the exhaustive tier, and at 4 states random trials after
    # its miss; three atoms run the random tier alone.
    found = 0
    for seed in range(40):
        for atoms, bounds in (
            (("p", "q"), SearchBounds(max_states=2)),
            (("p", "q"), SearchBounds(max_states=4, random_trials=20)),
            (("p", "q", "r"), SearchBounds(random_trials=20)),
        ):
            f = random_formula(2, 2, atoms, seed)
            model = bounded_sat_search(f, bounds)
            assert bounded_sat_search(f.core, bounds) == model, (seed, atoms)
            found += model is not None
    assert found >= 100


def test_search_fills_no_node_fact(monkeypatch):
    # The input's atom names come from one fold over it: no node's hash,
    # atoms or depth is filled, in the exhaustive tier (two atoms, at the
    # differential workload's bounds) or in the random tier (three atoms).
    inputs = [
        (random_formula(2, 2, atoms, seed), bounds)
        for atoms, bounds in (
            (("p", "q"), SearchBounds(max_states=2)),
            (("p", "q", "r"), SearchBounds(max_states=2, random_trials=20)),
        )
        for seed in range(300 if len(atoms) == 2 else 40)
    ]
    filled = []
    fill = formula._fill_facts
    monkeypatch.setattr(formula, "_fill_facts", lambda node, children: filled.append(node) or fill(node, children))
    found = sum(bounded_sat_search(f, bounds) is not None for f, bounds in inputs)
    assert filled == []
    assert found > 150


def test_search_random_tier_handles_wide_vocabulary():
    # Three atoms exceed the exhaustive box, so only random trials run.
    model = bounded_sat_search(parse("p & q & r"), SearchBounds(random_trials=50))
    assert model is not None
    assert eval_formula(model, parse("p & q & r")) != 0


def _count_built_models(monkeypatch) -> list[int]:
    """State counts of the random models the search builds, in order."""
    built: list[int] = []
    real_lts = oracle.random_lts

    def counting_lts(states, *args):
        built.append(states)
        return real_lts(states, *args)

    monkeypatch.setattr(oracle, "random_lts", counting_lts)
    return built


def test_box_miss_draws_no_random_model(monkeypatch):
    built = _count_built_models(monkeypatch)
    for text in ("p & ~p", "~Kh(p, p)"):
        for bounds in (SearchBounds(max_states=2), SearchBounds()):
            assert bounded_sat_search(parse(text), bounds) is None
            assert built == [], (text, bounds)
    # Bounds beyond the box, or three atoms, leave the random tier running.
    bounds = SearchBounds(max_states=4, max_actions=1, random_trials=60)
    assert bounded_sat_search(parse("p & ~p"), bounds) is None
    assert len(built) == 60
    built.clear()
    bounds = SearchBounds(max_states=2, random_trials=50)
    assert bounded_sat_search(parse("p & q & r & ~p"), bounds) is None
    assert len(built) == 50


def _box_models(atoms: list[str], max_states: int, max_actions: int):
    """Every model with up to the given shape, in a plain nested loop."""
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        for k in range(0, max_actions + 1):
            actions = ["a", "b"][:k]
            pairs = [(s, t) for s in states for t in states]
            for valuation in itertools.product([False, True], repeat=len(atoms) * n):
                props = {
                    s: [
                        atom
                        for idx, atom in enumerate(atoms)
                        if valuation[idx * n + i]
                    ]
                    for i, s in enumerate(states)
                }
                for edges in itertools.product(
                    [False, True], repeat=len(actions) * len(pairs)
                ):
                    rel = {
                        action: [
                            pair
                            for j, pair in enumerate(pairs)
                            if edges[a_idx * len(pairs) + j]
                        ]
                        for a_idx, action in enumerate(actions)
                    }
                    yield make_lts(states, props, rel)


def test_exhaustive_tier_agrees_with_plain_enumeration():
    """Cross-check the vectorized tier against a naive model sweep on full
    boxes, where an exhaustive miss is the final answer: 1 atom with 2
    states and 1 action, the 2-atom, 2-state, 2-action box that ``check
    --mode differential --max-states 2`` searches, and 1 atom with 3 states
    and 1 action."""
    cases = [
        (("p",), 2, 1, range(60)),
        (("p", "q"), 2, 2, range(300)),
        (("p",), 3, 1, range(200)),
    ]
    for atoms, max_states, max_actions, seeds in cases:
        box = list(_box_models(list(atoms), max_states, max_actions))
        bounds = SearchBounds(max_states=max_states, max_actions=max_actions, random_trials=0)
        for seed in seeds:
            f = random_formula(2, 2, atoms, seed)
            brute = any(eval_formula(m, f) != 0 for m in box)
            found = bounded_sat_search(f, bounds)
            assert (found is not None) == brute, f"disagreement on {atoms} seed {seed}"
            if found is not None:
                assert eval_formula(found, f) != 0


def _full_sweep(core, atoms, bounds):
    """Reference exhaustive tier: every valuation counter of every shape, in
    counter order, with no skipping of permuted valuations."""
    for n in range(1, min(3, bounds.max_states) + 1):
        for k in range(0, min(2, bounds.max_actions) + 1):
            combos = 1 << (k * n * n)
            table = _witness_table(n, k)
            rows = np.arange(combos)
            all_mask = (1 << n) - 1

            def kh(pre, post):
                return np.where(table[rows, pre, post], all_mask, 0).astype(np.int16)

            for val_counter in range(1 << (len(atoms) * n)):
                val_masks = {
                    atom: (val_counter >> (idx * n)) & all_mask
                    for idx, atom in enumerate(atoms)
                }
                truth = eval_core(core, val_masks, all_mask, kh)
                hits = np.nonzero(np.broadcast_to(truth, combos))[0]
                if hits.size:
                    return _decode_model(n, k, int(hits[0]), atoms, val_masks)
    return None


def test_least_valuations_are_the_least_of_their_permutation_classes():
    for n, atom_count in itertools.product((1, 2, 3, 4), (0, 1, 2, 3)):
        least = set()
        for counter in range(1 << (atom_count * n)):
            images = [
                sum(
                    (counter >> (idx * n + s) & 1) << (idx * n + perm[s])
                    for idx in range(atom_count)
                    for s in range(n)
                )
                for perm in itertools.permutations(range(n))
            ]
            least.add(min(images))
        assert oracle._least_valuations(n, atom_count) == sorted(least), (n, atom_count)
    assert [len(oracle._least_valuations(n, 2)) for n in (1, 2, 3)] == [4, 10, 20]


def test_sweep_of_least_valuations_returns_the_full_sweeps_model_seeded():
    # Every shape up to 3 states and 2 actions, hits and misses alike.
    # Bare random formulas nearly all hit at one state; conjoining two
    # existentials forces more states, and many misses.
    formulas = [random_formula(2, 2, ("p", "q"), seed) for seed in range(30)]
    formulas += [random_formula(2, 2, ("p",), seed) for seed in range(10)]
    formulas += [
        And(
            random_formula(2, 2, ("p", "q"), seed),
            And(
                Exis(random_formula(1, 1, ("p", "q"), seed + 1000)),
                Exis(Not(random_formula(1, 1, ("p", "q"), seed + 2000))),
            ),
        )
        for seed in range(12)
    ]
    formulas += [parse("~Kh(p, p) | (q & ~q)"), parse("p & q & E (p & ~q) & E ~p")]
    outcomes = set()
    for f in formulas:
        core = f.core
        atoms = sorted(core.atoms)
        for max_states, max_actions in itertools.product((1, 2, 3), (0, 1, 2)):
            bounds = SearchBounds(max_states=max_states, max_actions=max_actions)
            got = oracle._exhaustive_tier(core, atoms, bounds)
            expected = _full_sweep(core, atoms, bounds)
            assert (got is None) == (expected is None), (f, bounds)
            if got is not None:
                assert dump_model(got) == dump_model(expected), (f, bounds)
            outcomes.add((got is None, len(got.states) if got else 0))
    # Misses, and hits at every state count.
    assert outcomes == {(True, 0), (False, 1), (False, 2), (False, 3)}


def test_witness_table_matches_plan_search():
    shapes = [(n, k, range(1 << (k * n * n))) for n in (1, 2) for k in (0, 1, 2)]
    shapes.append((3, 1, range(1 << 9)))
    shapes.append((3, 2, random.Random(14).sample(range(1 << 18), 300)))
    for n, k, combos in shapes:
        table = _witness_table(n, k)
        for combo in combos:
            model = _decode_from_pairs(n, k, combo, [], {})
            for pre in range(1 << n):
                for post in range(1 << n):
                    expected = has_witness_plan(model, pre, post) is not None
                    assert bool(table[combo, pre, post]) == expected, (n, k, combo)


def _decode_from_pairs(n, k, combo, atoms, val_masks):
    """Reference decode: state-id props and pair lists through ``make_lts``."""
    states = [f"s{i}" for i in range(n)]
    props = {
        s: [atom for atom in atoms if val_masks.get(atom, 0) >> i & 1]
        for i, s in enumerate(states)
    }
    rel = {
        action: [
            (states[s], states[t])
            for s in range(n)
            for t in range(n)
            if combo >> (a * n * n + s * n + t) & 1
        ]
        for a, action in enumerate(["a", "b"][:k])
    }
    return make_lts(states, props, rel)


def test_decoded_model_matches_the_pair_list_decode_seeded():
    rng = random.Random(2700)
    for n, k in itertools.product(range(1, 4), range(3)):
        for _ in range(300):
            atoms = sorted(rng.sample(["p", "q"], rng.randint(0, 2)))
            val_masks = {atom: rng.randrange(1 << n) for atom in atoms if rng.random() < 0.9}
            combo = rng.randrange(1 << (k * n * n))
            got = _decode_model(n, k, combo, atoms, val_masks)
            expected = _decode_from_pairs(n, k, combo, atoms, val_masks)
            assert got == expected, (n, k, combo, val_masks)
            assert dump_model(got) == dump_model(expected)


def test_random_formula_is_deterministic():
    args = (3, 4, ("p", "q", "r"), 99)
    assert random_formula(*args) == random_formula(*args)


def test_random_formula_respects_bounds():
    for seed in range(200):
        f = random_formula(2, 3, ("p", "q"), seed)
        assert modal_depth(f) <= 2
        assert kh_occurrences(f) <= 3
        assert atoms_of(f) <= {"p", "q"}


def test_random_formula_depth_zero_is_propositional():
    for seed in range(50):
        assert modal_depth(random_formula(0, 0, ("p",), seed)) == 0


def test_random_formula_requires_atoms():
    import pytest

    with pytest.raises(ValueError):
        random_formula(1, 1, (), 0)


def test_random_lts_is_deterministic():
    a = random_lts(4, 2, ("p", "q"), 0.3, 7)
    b = random_lts(4, 2, ("p", "q"), 0.3, 7)
    assert dump_model(a) == dump_model(b)


def test_random_lts_density_zero_has_no_edges():
    m = random_lts(3, 2, ("p",), 0.0, 1)
    assert all(not pairs for pairs in m.rel.values())


def test_random_lts_single_state_no_actions():
    m = random_lts(1, 0, ("p",), 0.0, 5)
    assert m.states == ("s0",)
    assert m.actions == ()
