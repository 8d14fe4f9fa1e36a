"""Flattening tests: goldens, contracts, and constructive equisatisfiability."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from knowhow.formula import (
    And,
    Atom,
    Exis,
    Formula,
    Iff,
    Implies,
    Kh,
    Not,
    Or,
    Top,
    Univ,
    atoms_of,
    desugar,
    kh_occurrences,
    modal_depth,
    parse,
)
from knowhow.normalform import FlattenResult, flatten
from knowhow.semantics import eval_formula
from tests.test_semantics import random_model

P, Q, R, T = Atom("p"), Atom("q"), Atom("r"), Atom("t")
K1, K2, K3 = Atom("_k1"), Atom("_k2"), Atom("_k3")


def test_flatten_two_disjoined_modalities():
    result = flatten(parse("Kh(p & q, r & t) | Kh(p, r)"))
    assert result.phi0 == Or(K1, K2)
    assert result.defs == (
        (K1, desugar(parse("Kh(p & q, r & t)"))),
        (K2, Kh(P, R)),
    )


def test_flatten_no_modalities_is_identity():
    result = flatten(parse("p | ~q"))
    assert result.phi0 == Or(P, Not(Q))
    assert result.defs == ()


def test_flatten_nested_two_passes():
    result = flatten(parse("Kh(p, Kh(~q, p -> q)) | Kh(r, t)"))
    assert result.phi0 == Or(K3, K2)
    assert len(result.defs) == 3
    assert result.defs[0] == (K1, Kh(Not(Q), Or(Not(P), Q)))
    assert result.defs[1] == (K2, Kh(R, T))
    assert result.defs[2] == (K3, Kh(P, K1))


def test_flatten_shares_identical_occurrences():
    result = flatten(parse("Kh(p, q) | ~Kh(p, q)"))
    assert result.phi0 == Or(K1, Not(K1))
    assert len(result.defs) == 1


def test_flatten_shares_deep_identical_occurrences():
    # Two separately parsed leaves, equal and 3000 levels deep.
    leaf = "Kh(" + "~" * 3000 + "p, q)"
    result = flatten(parse(f"{leaf} & ~{leaf}"))
    assert len(result.defs) == 1


def test_flatten_rejects_reserved_atoms():
    phi0 = flatten(parse("Kh(p, q) | r")).phi0
    with pytest.raises(ValueError, match="_k1"):
        flatten(phi0)


@pytest.mark.parametrize(
    "f, listed",
    [
        (Univ(Atom("_k1")), "_k1"),
        (Iff(Top(), Atom("_k2")), "_k2"),
        (And(Exis(Atom("_k2")), Implies(Atom("_k10"), P)), "_k10, _k2"),
    ],
)
def test_flatten_rejects_reserved_atoms_under_sugar(f, listed):
    # The check reads the atoms of the core form; sugar hides none of them.
    with pytest.raises(ValueError) as raised:
        flatten(f)
    assert str(raised.value) == (
        f"input uses reserved atom(s) {listed}; the '_k' prefix is for generated definitions"
    )
    assert flatten(f, allow_reserved=True).phi0.depth == 0


def test_reflattening_phi0_adds_nothing():
    result = flatten(parse("Kh(p, Kh(q, r))"))
    again = flatten(result.phi0, allow_reserved=True)
    assert again.phi0 == result.phi0
    assert again.defs == ()


def test_flatten_desugars_input():
    from knowhow.formula import Bottom

    result = flatten(parse("A p"))
    assert result.phi0 == K1
    assert result.defs == ((K1, Kh(Not(P), Bottom())),)


def test_definitions_have_depth_one():
    result = flatten(parse("Kh(p, Kh(~q, p -> q)) | Kh(r, t)"))
    assert modal_depth(result.definitions()) == 1
    assert modal_depth(result.phi0) == 0


def test_flatten_contract_seeded():
    from knowhow.oracle import random_formula

    for seed in range(300):
        f = random_formula(3, 4, ("p", "q", "r"), seed)
        result = flatten(f)
        assert modal_depth(result.phi0) == 0
        for k, leaf in result.defs:
            assert k.name.startswith("_k")
            assert modal_depth(leaf) == 1
            assert k.name not in atoms_of(f)
        names = [k.name for k, _ in result.defs]
        assert len(names) == len(set(names))
        assert len(result.defs) <= kh_occurrences(f)
        again = flatten(result.phi0, allow_reserved=True)
        assert again.defs == ()
        assert again.phi0 == result.phi0


def conjoined(result: FlattenResult) -> Formula:
    """Reference: phi0 together with the definition conjunct."""
    if not result.defs:
        return result.phi0
    return And(result.phi0, result.definitions())


def test_equisat_constructive_direction_seeded():
    """Whenever a model satisfies the input, extending its valuation with the
    definition atoms (true where the named modality holds) satisfies
    phi0 together with all definition biconditionals."""
    rng = random.Random(4242)
    from knowhow.oracle import random_formula

    checked = 0
    for seed in range(400):
        f = random_formula(2, 2, ("p", "q"), seed)
        result = flatten(f)
        if not result.defs:
            continue
        m = random_model(rng, max_states=3, max_actions=2, atoms=("p", "q"))
        if eval_formula(m, f) == 0:
            continue
        checked += 1
        val = dict(m.val)
        for k, leaf in result.defs:
            # Leaf truth sets are global; read them in definition order so
            # later leaves may mention earlier atoms.
            extended = replace(m, val=dict(val))
            truth = eval_formula(extended, leaf)
            assert truth in (0, extended.all_states)
            val[k.name] = truth
        final = replace(m, val=val)
        assert eval_formula(final, conjoined(result)) != 0
    assert checked >= 20
