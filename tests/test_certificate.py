"""Tests for certificate construction and verification."""

from __future__ import annotations

import json

import pytest

from knowhow.certificate import MAX_ATOMS, CapacityError, build_model, verify_certificate
from knowhow.formula import Atom, Bottom, Or, Top, atoms_of, parse
from knowhow.khsat import NegativeSpec, PositiveSpec, global_indices
from knowhow.oracle import random_formula
from knowhow.propsat import _cnf_enumerate_models
from knowhow.semantics import (
    eval_formula,
    load_model,
    plan_image,
    strongly_executable,
)


def pos(*pairs) -> PositiveSpec:
    return PositiveSpec(tuple((parse(a), parse(b)) for a, b in pairs))


def neg(*pairs) -> NegativeSpec:
    return NegativeSpec(tuple((parse(a), parse(b)) for a, b in pairs))


def build(p, q, **kwargs):
    return build_model(p, q, global_indices(p), **kwargs)


# ---------------------------------------------------------------------------
# Pinned constructions


def test_two_action_product_model():
    # Both positive conjuncts survive: the model spans every valuation of the
    # six atoms and each conjunct gets one product-relation action.
    p = pos(("p & q", "r & t"), ("p", "r"))
    q = NegativeSpec(((Or(Atom("_k1"), Atom("_k2")), Bottom()),))
    c = build(p, q)
    assert len(c.model.states) == 64
    assert c.active_actions == ("a1", "a2")
    all_states = (1 << 64) - 1
    assert eval_formula(c.model, parse("Kh(p & q, r & t)")) == all_states
    assert eval_formula(c.model, parse("Kh(p, r)")) == all_states


def test_forced_empty_postconditions_yield_single_inert_state():
    # Both postconditions are forced false in context, so the context pins
    # ~p & ~q, exactly one valuation survives, and no action is built; both
    # statements hold vacuously.
    p = PositiveSpec(((Atom("p"), Bottom()), (Atom("q"), Atom("p"))))
    c = build(p, NegativeSpec(()))
    assert [s for s in c.model.states] == ["s0"]
    assert eval_formula(c.model, parse("~p & ~q")) == 1
    assert c.model.rel == {}
    assert c.active_actions == ()
    assert eval_formula(c.model, parse("Kh(p, false)")) == 1
    assert eval_formula(c.model, parse("Kh(q, p)")) == 1


def test_empty_positive_side_builds_plain_valuation_grid():
    # With nothing to realize, the model is every valuation over the negative
    # side's atoms with no relations; the denial holds because the empty plan
    # is the only executable one and p-states are not all q-states.
    q = neg(("p", "q"))
    c = build(PositiveSpec(()), q)
    assert len(c.model.states) == 4
    assert c.model.rel == {}
    assert c.active_actions == ()
    assert eval_formula(c.model, parse("~Kh(p, q)")) == 0b1111


# ---------------------------------------------------------------------------
# Verification


def test_verify_against_constants():
    c = build(pos(("p", "q")), neg(("p & ~p", "false")))
    assert verify_certificate(c, Top())
    assert not verify_certificate(c, Bottom())


def test_verify_uses_exact_semantics():
    c = build(pos(("p", "q")), neg(("p & ~p", "false")))
    assert verify_certificate(c, parse("Kh(p, q)"))
    assert not verify_certificate(c, parse("Kh(q, p & ~p)"))


# ---------------------------------------------------------------------------
# Shape properties


def test_capacity_cap_is_loud():
    def chain(count):
        return pos(*((f"x{i}", f"x{i}") for i in range(count)))

    assert MAX_ATOMS == 12
    with pytest.raises(CapacityError):
        build(chain(13), NegativeSpec(()))
    assert len(build(chain(4), NegativeSpec(())).model.states) == 16


def test_states_follow_the_oracle_enumeration_order():
    # The truth-table grid must list the context's models in the order the
    # deterministic DPLL enumeration (the oracle's CNF path) finds them, so
    # state numbering (and every dumped certificate) stays the one the
    # reference solver gives.
    atoms = ("p", "q", "r", "s")
    constrained = 0
    for seed in range(60):
        def prop(salt):
            return random_formula(0, 0, atoms, 1000 * seed + salt)

        p = PositiveSpec(tuple(
            (prop(2 * i), Bottom() if (seed + i) % 3 == 0 else prop(2 * i + 1))
            for i in range(1 + seed % 3)
        ))
        q = NegativeSpec(((prop(10), prop(11)),))
        ctx = global_indices(p)
        constrained += bool(ctx.indices)
        ordered_atoms = sorted(
            set().union(*(atoms_of(a) | atoms_of(b) for a, b in p.conjuncts + q.conjuncts))
        )
        expected = _cnf_enumerate_models(ctx.psi, ordered_atoms)
        if not expected:  # an unsatisfiable context leaves no state to build
            with pytest.raises(ValueError, match="admits no state"):
                build_model(p, q, ctx)
            continue
        c = build_model(p, q, ctx)
        got = [
            {a: bool(c.model.val.get(a, 0) >> i & 1) for a in ordered_atoms}
            for i in range(len(c.model.states))
        ]
        assert got == expected, seed
    assert constrained >= 20


def test_context_indices_are_inert_in_the_model():
    # For every index forced into the context, the postcondition holds
    # nowhere and the negated precondition holds everywhere.
    p = pos(("p", "false"), ("q", "p"), ("r", "r"))
    ctx = global_indices(p)
    c = build_model(p, NegativeSpec(()), ctx)
    assert sorted(ctx.indices) == [1, 2]
    for i in sorted(ctx.indices):
        assert eval_formula(c.model, p.post(i)) == 0
        assert eval_formula(c.model, p.pre(i)) == 0


def test_active_actions_are_witness_plans():
    p = pos(("p", "q"), ("q | r", "p & q"))
    q = neg(("p & ~q", "false"))
    c = build(p, q)
    assert c.active_actions == ("a1", "a2")
    for k, name in zip((1, 2), c.active_actions):
        pre_mask = eval_formula(c.model, p.pre(k))
        post_mask = eval_formula(c.model, p.post(k))
        se = strongly_executable(c.model, (name,))
        assert pre_mask & ~se == 0
        assert plan_image(c.model, (name,), pre_mask) & ~post_mask == 0


def test_witness_state_selection():
    p = pos(("p", "q"))
    q = neg(("~p", "false"))
    chosen = build(p, q, witness_pre=parse("p & ~q"))
    index = chosen.model.states.index(chosen.witness_state)
    assert (eval_formula(chosen.model, parse("p & ~q")) >> index) & 1
    assert build(p, q).witness_state is None
    assert build(p, q, witness_pre=parse("p & ~p")).witness_state is None


def test_dump_round_trips_with_sidecar_fields():
    p = pos(("p", "q"))
    c = build(p, neg(("q", "false")), witness_pre=parse("p"))
    text = c.dump()
    doc = json.loads(text)
    assert doc["active_actions"] == ["a1"]
    assert doc["witness_state"] == c.witness_state
    again = load_model(text)
    assert again.states == c.model.states
    assert again.val == c.model.val
    assert again.rel == c.model.rel
