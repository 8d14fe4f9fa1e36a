"""Semantics tests: plan relations, strong executability, truth sets,
witness synthesis, and the model file format.

The four-state fixture below (one state satisfying p with two a-successors,
one of which continues via b into the q-state) pins the known golden values
for SE and the two Kh truth sets.
"""

from __future__ import annotations

import json
import random
import sys

import pytest

from knowhow import formula, semantics
from knowhow.certificate import Certificate, verify_certificate
from knowhow.formula import (
    And,
    Atom,
    Bottom,
    Exis,
    Iff,
    Implies,
    Kh,
    Not,
    Or,
    Top,
    Univ,
    desugar,
    parse,
    subformulas,
)
from knowhow.oracle import SearchBounds, bounded_sat_search, random_formula, random_lts
from knowhow.semantics import (
    Lts,
    dump_model,
    eval_core,
    eval_formula,
    has_witness_plan,
    load_model,
    make_lts,
    plan_image,
    strongly_executable,
    truth_masks,
)

from tests.test_propsat import eval_prop

P, Q, R = Atom("p"), Atom("q"), Atom("r")


@pytest.fixture()
def four_state() -> Lts:
    return make_lts(
        ["s", "t", "v", "u"],
        {"s": ["p"], "t": ["r"], "v": ["r"], "u": ["q"]},
        {"a": [("s", "t"), ("s", "v")], "b": [("t", "u")]},
    )


def mask(m: Lts, *ids: str) -> int:
    return m.state_mask(ids)


def truth_table(atoms) -> Lts:
    """One state per valuation of ``atoms``, and no actions; its valuation
    is ``truth_masks(atoms)``.  A formula's truth set on this model is its
    set of satisfying valuations."""
    return Lts(tuple(map(str, range(1 << len(atoms)))), (), {}, truth_masks(atoms))


# ---------------------------------------------------------------------------
# plan_image


def test_plan_image_two_steps(four_state):
    m = four_state
    assert plan_image(m, ("a", "b"), mask(m, "s")) == mask(m, "u")


def test_plan_image_empty_plan_is_identity(four_state):
    m = four_state
    assert plan_image(m, (), mask(m, "t", "u")) == mask(m, "t", "u")


def test_plan_image_single_step(four_state):
    m = four_state
    assert plan_image(m, ("a",), mask(m, "s")) == mask(m, "t", "v")


def test_plan_image_unknown_action(four_state):
    with pytest.raises(ValueError, match="c"):
        plan_image(four_state, ("c",), 1)


# ---------------------------------------------------------------------------
# strongly_executable


def test_se_empty_plan_is_all_states(four_state):
    m = four_state
    assert strongly_executable(m, ()) == m.all_states


def test_se_single_action(four_state):
    m = four_state
    assert strongly_executable(m, ("a",)) == mask(m, "s")


def test_se_two_actions_empty(four_state):
    m = four_state
    assert strongly_executable(m, ("a", "b")) == 0


def test_relaxed_prefix_reading_contradicts_known_values(four_state):
    """A reading that only constrains steps after the first would make every
    single-action plan executable everywhere; the golden value SE(a) = {s}
    rules it out, so the implementation constrains the first step too."""
    m = four_state

    def relaxed_se(m: Lts, pi) -> int:
        # Quantify over intermediate states reached after step 1 only.
        result = m.all_states
        for action in reversed(pi[1:]):
            masks = m.successor_masks(action)
            step = 0
            for i, succ in enumerate(masks):
                if succ and succ & result == succ:
                    step |= 1 << i
            result = step
        # First action unconstrained by the relaxed reading.
        return m.all_states if pi else m.all_states

    assert relaxed_se(m, ("a",)) == m.all_states
    assert strongly_executable(m, ("a",)) == mask(m, "s")
    assert relaxed_se(m, ("a",)) != strongly_executable(m, ("a",))


# ---------------------------------------------------------------------------
# eval_formula


def test_eval_kh_p_r_holds_globally(four_state):
    m = four_state
    assert eval_formula(m, Kh(P, R)) == m.all_states


def test_eval_kh_p_q_fails(four_state):
    m = four_state
    assert eval_formula(m, Kh(P, Q)) == 0


def test_eval_tautology(four_state):
    m = four_state
    assert eval_formula(m, Or(P, Not(P))) == m.all_states


def test_eval_absent_atom_is_empty(four_state):
    m = four_state
    assert eval_formula(m, Atom("zz")) == 0
    assert eval_formula(m, Not(Atom("zz"))) == m.all_states


def test_eval_universal_law(four_state):
    m = four_state
    assert eval_formula(m, Univ(Or(P, Not(P)))) == m.all_states
    assert eval_formula(m, Univ(P)) == 0


def test_eval_nested_modality(four_state):
    m = four_state
    # Kh(p, r) holds globally, so its truth set is the whole space and the
    # outer modality sees a tautologous postcondition from precondition p.
    assert eval_formula(m, Kh(P, Kh(P, R))) == m.all_states


# ---------------------------------------------------------------------------
# has_witness_plan


def test_witness_single_action(four_state):
    m = four_state
    assert has_witness_plan(m, mask(m, "s"), mask(m, "t", "v")) == ("a",)


def test_witness_empty_pre(four_state):
    assert has_witness_plan(four_state, 0, 0) == ()


def test_witness_pre_subset_post(four_state):
    m = four_state
    assert has_witness_plan(m, mask(m, "t"), mask(m, "t", "u")) == ()


def test_witness_none(four_state):
    m = four_state
    assert has_witness_plan(m, mask(m, "s"), mask(m, "u")) is None


def test_witness_two_steps():
    m = make_lts(
        ["x", "y", "z"],
        {"x": ["p"], "z": ["q"]},
        {"a": [("x", "y")], "b": [("y", "z")]},
    )
    assert has_witness_plan(m, m.state_mask(["x"]), m.state_mask(["z"])) == ("a", "b")


def test_witness_action_tie_break_declared_order():
    m = make_lts(
        ["x", "y"],
        {"x": ["p"], "y": ["q"]},
        {"b": [("x", "y")], "a": [("x", "y")]},
    )
    # Both actions witness; declared order picks "b".
    assert has_witness_plan(m, m.state_mask(["x"]), m.state_mask(["y"])) == ("b",)


# ---------------------------------------------------------------------------
# randomized properties


def random_model(rng: random.Random, max_states=4, max_actions=2, atoms=("p", "q")) -> Lts:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    actions = ["a", "b", "c"][: rng.randint(0, max_actions)]
    props = {s: [a for a in atoms if rng.random() < 0.5] for s in states}
    rel = {
        act: [(s, t) for s in states for t in states if rng.random() < 0.3]
        for act in actions
    }
    return make_lts(states, props, rel)


def all_plans(actions, up_to: int):
    plans = [()]
    frontier = [()]
    for _ in range(up_to):
        frontier = [p + (a,) for p in frontier for a in actions]
        plans.extend(frontier)
    return plans


def test_witness_soundness_and_bounded_completeness_seeded():
    rng = random.Random(99)
    for _ in range(300):
        m = random_model(rng)
        pre = rng.randrange(0, m.all_states + 1)
        post = rng.randrange(0, m.all_states + 1)
        plan = has_witness_plan(m, pre, post)
        if plan is not None:
            assert pre & ~strongly_executable(m, plan) == 0
            assert plan_image(m, plan, pre) & ~post == 0
        else:
            # Exhaustive cross-check over short plans.
            for candidate in all_plans(m.actions, 4):
                ok = (
                    pre & ~strongly_executable(m, candidate) == 0
                    and plan_image(m, candidate, pre) & ~post == 0
                )
                assert not ok, f"missed witness {candidate}"


def test_witness_is_shortest_seeded():
    rng = random.Random(123)
    for _ in range(200):
        m = random_model(rng, max_states=3)
        pre = rng.randrange(0, m.all_states + 1)
        post = rng.randrange(0, m.all_states + 1)
        plan = has_witness_plan(m, pre, post)
        if not plan:
            continue  # ε has no shorter competitor
        for candidate in all_plans(m.actions, len(plan) - 1):
            ok = (
                pre & ~strongly_executable(m, candidate) == 0
                and plan_image(m, candidate, pre) & ~post == 0
            )
            assert not ok, f"shorter witness {candidate} than {plan}"


def test_kh_truth_sets_are_global_seeded():
    rng = random.Random(5)
    for _ in range(200):
        m = random_model(rng)
        f = Kh(
            rng.choice([P, Q, Not(P), Or(P, Q)]),
            rng.choice([P, Q, Not(Q), Or(P, Not(Q))]),
        )
        assert eval_formula(m, f) in (0, m.all_states)


def test_vacuous_postcondition_law_seeded():
    # With an unsatisfied postcondition, know-how reduces to the precondition
    # being false everywhere.
    rng = random.Random(31)
    for _ in range(200):
        m = random_model(rng)
        psi = rng.choice([P, Q, Not(P), Or(P, Q)])
        chi = rng.choice([P, Q, Not(Q)])
        if eval_formula(m, chi) != 0:
            continue
        lhs = eval_formula(m, Kh(psi, chi)) == m.all_states
        rhs = eval_formula(m, Not(psi)) == m.all_states
        assert lhs == rhs


# ---------------------------------------------------------------------------
# model documents


MODEL_DOC = """
{
  "states": ["s", "t", "v", "u"],
  "props": {"s": ["p"], "t": ["r"], "v": ["r"], "u": ["q"]},
  "rel": {"a": [["s", "t"], ["s", "v"]], "b": [["t", "u"]]}
}
"""


def test_load_model_round_trip(four_state):
    m = load_model(MODEL_DOC)
    assert m.states == ("s", "t", "v", "u")
    assert eval_formula(m, Kh(P, R)) == m.all_states
    again = load_model(dump_model(m))
    assert again == m


def test_load_model_undeclared_state():
    bad = MODEL_DOC.replace('["t", "u"]', '["t", "w"]')
    with pytest.raises(ValueError, match="w"):
        load_model(bad)


def test_load_model_undeclared_prop_state():
    bad = MODEL_DOC.replace('"u": ["q"]', '"zz": ["q"]')
    with pytest.raises(ValueError, match="zz"):
        load_model(bad)


def test_load_model_malformed_json():
    with pytest.raises(ValueError, match="malformed"):
        load_model("{not json")


def test_load_model_missing_key():
    with pytest.raises(ValueError, match="rel"):
        load_model('{"states": ["s"], "props": {}}')


@pytest.mark.parametrize(
    "props, rel",
    [
        ({}, {"a": [["s"]]}),
        ({}, {"a": [["s", "s", "s"]]}),
        ({}, {"a": "ss"}),
        ({}, {"a": [["s", 1]]}),
        ({}, {"a": ["ss"]}),
        ({"s": "pq"}, {}),
        ({"s": [1]}, {}),
        ({"s": None}, {}),
    ],
)
def test_load_model_rejects_malformed_entries(props, rel):
    doc = json.dumps({"states": ["s"], "props": props, "rel": rel})
    with pytest.raises(ValueError, match="malformed model document"):
        load_model(doc)


def test_dump_model_ignores_extra_keys_on_load(four_state):
    text = dump_model(four_state, extra={"seed": 7})
    assert load_model(text) == four_state


def test_model_requires_states():
    with pytest.raises(ValueError):
        Lts((), (), {}, {})


@pytest.mark.parametrize(
    "succ, message",
    [
        ({"a": (0b01,)}, "out of range"),  # one mask for two states
        ({"a": (0b01, 0b10, 0b00)}, "out of range"),  # three masks
        ({"a": (0b100, 0b00)}, "out of range"),  # bit 2 in a 2-state model
        ({"a": (-1, 0b00)}, "out of range"),
        ({"b": (0b00, 0b00)}, "undeclared action 'b'"),
    ],
)
def test_lts_validates_successor_masks(succ, message):
    with pytest.raises(ValueError, match=message):
        Lts(("s", "t"), ("a",), succ, {})


@pytest.mark.parametrize(
    "states, mask",
    [(("s0",), 0b10), (("s", "t"), 0b100), (("s", "t"), 0b110), (("s", "t"), -1), (("s", "t"), -4)],
)
def test_lts_validates_valuation_masks(states, mask):
    # A bit at or above len(states) names no state; a negative mask has
    # infinitely many.
    with pytest.raises(ValueError, match="valuation 'p' references state index out of range"):
        Lts(states, (), {}, {"q": 1, "p": mask})


def test_successor_masks_are_the_stored_tuple():
    m = Lts(("s", "t"), ("a", "b"), {"a": (0b10, 0b11)}, {})
    assert m.successor_masks("a") is m.succ["a"]
    assert m.successor_masks("b") == (0, 0)  # declared, no transitions
    with pytest.raises(ValueError, match="unknown action 'c'"):
        m.successor_masks("c")
    assert m.rel == {"a": frozenset({(0, 1), (1, 0), (1, 1)})}
    assert len(m.rel["a"]) == 3
    assert (1, 0) in m.rel["a"] and (0, 0) not in m.rel["a"] and (2, 0) not in m.rel["a"]


def test_make_lts_rel_view_is_the_input_pairs_seeded():
    for seed in range(40):
        rng = random.Random(seed)
        states = [f"s{i}" for i in range(rng.randint(1, 6))]
        index = {s: i for i, s in enumerate(states)}
        pairs = {
            act: [(s, t) for s in states for t in states if rng.random() < 0.4]
            for act in ["a", "b", "c"][: rng.randint(0, 3)]
        }
        m = make_lts(states, {}, pairs)
        assert m.actions == tuple(pairs)
        assert m.rel == {
            act: frozenset((index[s], index[t]) for s, t in ps) for act, ps in pairs.items()
        }
        for act, ps in pairs.items():
            masks = m.successor_masks(act)
            assert len(masks) == len(states)
            assert sum(mask.bit_count() for mask in masks) == len(ps)


def test_random_models_round_trip_through_the_model_format_seeded():
    for seed in range(40):
        rng = random.Random(seed)
        m = random_lts(
            rng.randint(1, 6), rng.randint(0, 3), ("p", "q"), rng.choice([0.0, 0.3, 1.0]), seed
        )
        assert load_model(dump_model(m)) == m


def test_eval_matches_prop_eval_on_single_state_models():
    rng = random.Random(77)
    for _ in range(100):
        assignment = {a: rng.random() < 0.5 for a in ("p", "q")}
        m = make_lts(["s"], {"s": [a for a, v in assignment.items() if v]}, {})
        f = parse(rng.choice(["p & q", "p | ~q", "p -> q", "p <-> q", "~p"]))
        assert (eval_formula(m, f) == 1) == eval_prop(f, assignment)


# ---------------------------------------------------------------------------
# deep formulas: the recursive walk and the fold


def deep(f):
    """``f`` under an even chain of negations longer than the recursion
    limit: the same truth set, but only the fold can evaluate it."""
    for _ in range(sys.getrecursionlimit() // 2 * 2 + 2):
        f = Not(f)
    return f


def test_fold_gives_the_walks_truth_sets_seeded(monkeypatch):
    folds = []

    def counted_fold(*args):
        folds.append(args[0])
        return formula.fold(*args)

    monkeypatch.setattr(semantics, "fold", counted_fold)
    for seed in range(60):
        f = random_formula(2, 3, ("p", "q", "r"), seed)
        deep_f = deep(f)
        for k in range(3):
            m = random_lts(1 + k, k, ("p", "q", "r"), 0.4, 100 * seed + k)
            assert eval_formula(m, deep_f) == eval_formula(m, f)
    assert len(folds) == 180  # each deep formula once per model, no bare one


def test_falsifier_finds_the_same_model_through_the_fold_seeded():
    # The exhaustive tier evaluates on arrays of bitmasks, one per model.
    bounds = SearchBounds(max_states=2)
    found = 0
    for seed in range(30):
        f = random_formula(2, 2, ("p", "q"), seed)
        model = bounded_sat_search(f, bounds)
        assert bounded_sat_search(deep(f), bounds) == model
        found += model is not None
    assert found >= 10


class _SubAnd(And):
    """A subclass of a node class, which is no node class itself."""


@pytest.mark.parametrize("wrap", [lambda f: f, deep], ids=["walk", "fold"])
def test_eval_core_rejects_an_object_of_no_node_class(wrap):
    for node in (_SubAnd(P, Q), object()):
        with pytest.raises(TypeError, match="not a formula node"):
            eval_core(wrap(node), {"p": 1, "q": 1}, 1, lambda pre, post: 1)


def _sugared_formulas():
    """Seeded formulas that between them hold every node class."""
    fs = [random_formula(2, 3, ("p", "q", "r"), seed) for seed in range(120)]
    seen = {type(g) for f in fs for g in subformulas(f)}
    assert seen == {Atom, Bottom, Top, Not, Or, And, Implies, Iff, Kh, Univ, Exis}
    return fs


def test_sugar_evaluates_as_its_core_form_seeded(monkeypatch):
    # On the models' int masks, on truth-table masks (a model with no
    # actions: only the empty plan, so Kh holds iff pre lies within post),
    # and under a negation chain past the recursion limit, whose fold takes
    # every node class by its definition too.
    folds = []

    def counted_fold(*args):
        folds.append(args[0])
        return formula.fold(*args)

    monkeypatch.setattr(semantics, "fold", counted_fold)
    atoms = ("p", "q", "r")
    every = (1 << 8) - 1

    def empty_plan(pre, post):
        return every if pre & ~post == 0 else 0

    for seed, f in enumerate(_sugared_formulas()):
        core, deep_f = desugar(f), deep(f)
        for k in range(3):
            m = random_lts(1 + 2 * k, k, atoms, 0.4, 100 * seed + k)

            def kh(pre, post):
                return m.all_states if has_witness_plan(m, pre, post) is not None else 0

            expected = eval_core(core, m.val, m.all_states, kh)
            assert eval_core(f, m.val, m.all_states, kh) == expected
            assert eval_core(deep_f, m.val, m.all_states, kh) == expected
        val = truth_masks(atoms)
        expected = eval_core(core, val, every, empty_plan)
        assert eval_core(f, val, every, empty_plan) == expected
        assert eval_core(deep_f, val, every, empty_plan) == expected
    assert len(folds) == 120 * 4  # each deep formula once per mask kind, no bare one


def test_evaluation_fills_no_core_form(monkeypatch):
    # The model checker, the certificate check and the falsifier's two
    # tiers walk a formula as written: none of them builds its core form.
    filled = []
    original = formula._desugar_node

    def recording_fill(node, children):
        filled.append(node)
        return original(node, children)

    monkeypatch.setattr(formula, "_desugar_node", recording_fill)
    text = "E (p & q) & A (p -> Kh(q <-> true, r)) & ~(p <-> E q)"
    m = random_lts(3, 2, ("p", "q", "r"), 0.5, 7)
    eval_formula(m, parse(text))
    certificate = Certificate(m, None, m.actions)
    verify_certificate(certificate, parse(text))
    bounded_sat_search(parse("E (p & q) & A (p -> Kh(q <-> true, p))"))
    bounded_sat_search(parse("E (p & q & r) & A (p -> Kh(q <-> true, r))"))
    assert filled == []


def test_truth_masks_equal_the_closed_form_table_seeded():
    # The table's masks were built in closed form, all rows' ones divided by
    # a period's ones times the period's true run; doubling one period by
    # shifts gives the same masks, and row r still makes atom j true iff bit
    # n - 1 - j of r is set.
    for n in range(1, 13):
        atoms = [f"x{j}" for j in range(n)]
        size = 1 << n
        closed = {}
        for j, atom in enumerate(atoms):
            run = 1 << (n - 1 - j)
            closed[atom] = ((1 << size) - 1) // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
        assert truth_masks(atoms) == closed, n
        table = truth_table(atoms)
        assert table.val == closed and len(table.states) == size
        if n <= 6:
            for r in range(size):
                for j, atom in enumerate(atoms):
                    assert closed[atom] >> r & 1 == r >> (n - 1 - j) & 1
    assert truth_masks([]) == {} and truth_table([]).states == ("0",)
