"""Tests for certificate construction and verification."""

from __future__ import annotations

import json
import time
from functools import reduce

import pytest

from knowhow import certificate
from knowhow.certificate import MAX_ATOMS, CapacityError, build_model, verify_certificate
from knowhow.formula import And, Atom, Bottom, Not, Or, Top, atoms_of, parse
from knowhow.khsat import NegativeSpec, PositiveSpec, Result, decide, global_indices
from knowhow.oracle import random_formula
from knowhow.semantics import (
    eval_formula,
    load_model,
    plan_image,
    strongly_executable,
)
from tests.test_propsat import projections_by_dpll


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
    # The truth-table grid must list the context's models in ascending row
    # order (first sorted atom most significant, False first), the order
    # DPLL with blocking clauses used to find them in, so state numbering
    # (and every dumped certificate) stays the one the reference gives: the
    # reverse of the True-first reference enumeration.
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
        indices = global_indices(p)
        constrained += bool(indices)
        ordered_atoms = sorted(
            set().union(*(atoms_of(a) | atoms_of(b) for a, b in p.conjuncts + q.conjuncts))
        )
        context = reduce(And, [Not(p.pre(k)) for k in sorted(indices)], Top())
        expected = projections_by_dpll(context, ordered_atoms)[0][::-1]
        if not expected:  # an unsatisfiable context leaves no state to build
            with pytest.raises(ValueError, match="admits no state"):
                build_model(p, q, indices)
            continue
        c = build_model(p, q, indices)
        got = [
            {a: bool(c.model.val.get(a, 0) >> i & 1) for a in ordered_atoms}
            for i in range(len(c.model.states))
        ]
        assert got == expected, seed
    assert constrained >= 20


def product_masks(pre_mask: int, post_mask: int, size: int) -> tuple[int, ...]:
    """Reference: fold the pair set pre-states x post-states into masks."""
    pairs = {
        (s, t)
        for s in range(size) if pre_mask >> s & 1
        for t in range(size) if post_mask >> t & 1
    }
    masks = [0] * size
    for s, t in pairs:
        masks[s] |= 1 << t
    return tuple(masks)


def test_action_masks_are_the_pre_post_product_seeded():
    atoms = ("p", "q", "r", "s")
    checked = 0
    for seed in range(80):
        def prop(salt):
            return random_formula(0, 0, atoms, 2000 * seed + salt)

        p = PositiveSpec(tuple(
            (prop(2 * i), Bottom() if (seed + i) % 4 == 0 else prop(2 * i + 1))
            for i in range(1 + seed % 3)
        ))
        q = NegativeSpec(((prop(10), prop(11)),))
        indices = global_indices(p)
        try:
            c = build_model(p, q, indices)
        except ValueError:  # the context admits no state
            continue
        checked += 1
        size = len(c.model.states)
        expected = {}
        for k in range(1, p.n + 1):
            pre_mask = 0 if k in indices else eval_formula(c.model, p.pre(k))
            if pre_mask:
                post_mask = eval_formula(c.model, p.post(k))
                expected[f"a{k}"] = product_masks(pre_mask, post_mask, size)
        assert c.active_actions == tuple(expected), seed
        assert c.model.actions == tuple(expected), seed
        assert dict(c.model.succ) == expected, seed
    assert checked >= 60


def test_large_certificate_is_built_and_verified_quickly():
    # A 2048-state certificate; with pair-set relations this took about 19 s.
    f = random_formula(4, 10, tuple("pqrstu"), 8)
    start = time.perf_counter()
    verdict = decide(f)
    elapsed = time.perf_counter() - start
    assert verdict.result is Result.SAT
    assert len(verdict.certificate.model.states) == 2048
    assert verify_certificate(verdict.certificate, f)
    assert elapsed < 3.0


def test_context_indices_are_inert_in_the_model():
    # For every index forced into the context, the postcondition holds
    # nowhere and the negated precondition holds everywhere.
    p = pos(("p", "false"), ("q", "p"), ("r", "r"))
    indices = global_indices(p)
    c = build_model(p, NegativeSpec(()), indices)
    assert sorted(indices) == [1, 2]
    for i in sorted(indices):
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


@pytest.mark.parametrize(
    "depth, leaves, atoms, seeds",
    [(2, 2, ("p", "q"), range(150)), (3, 3, ("p", "q", "r"), range(100))],
)
def test_decide_certificates_equal_standalone_builds(depth, leaves, atoms, seeds, monkeypatch):
    # Inside decide a certificate is read off the call's truth table; built
    # on its own from the same pair it must dump byte for byte alike.
    built = []
    original = certificate.build_model

    def recording_build(p, q, indices, **kwargs):
        c = original(p, q, indices, **kwargs)
        built.append((p, q, indices, kwargs["witness_pre"], c))
        return c

    tables = []
    original_table = certificate.truth_table

    def counting_table(symbols):
        tables.append(symbols)
        return original_table(symbols)

    monkeypatch.setattr(certificate, "build_model", recording_build)
    monkeypatch.setattr(certificate, "truth_table", counting_table)
    certified = 0
    for seed in seeds:
        f = random_formula(depth, leaves, atoms, seed)
        for mode in ("plain", "augmented"):
            built.clear()
            verdict = decide(f, mode)
            assert not tables  # no second table: the call's own was reused
            if verdict.certificate is not None:
                assert verdict.certificate is built[-1][-1]
            for p, q, indices, witness_pre, c in built:
                alone = original(p, q, indices, witness_pre=witness_pre)
                assert alone.dump() == c.dump(), (seed, mode)
                certified += 1
            tables.clear()
    assert certified >= len(seeds)
