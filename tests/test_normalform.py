"""Flattening tests: goldens, contracts, and constructive equisatisfiability."""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial
from operator import is_

import pytest

from knowhow import normalform
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
    _core_node,
    desugar,
    fold,
    kh_occurrences,
    modal_depth,
    parse,
    render,
)
from knowhow.normalform import FlattenResult, flatten
from knowhow.normalform import _built as normalform_built
from knowhow.oracle import random_formula
from knowhow.propsat import _bits, _no_modality, _Table
from knowhow.semantics import eval_core, eval_formula
from tests.test_semantics import random_model

P, Q, R, T = Atom("p"), Atom("q"), Atom("r"), Atom("t")
K1, K2, K3 = Atom("_k1"), Atom("_k2"), Atom("_k3")


def desugared(result: FlattenResult) -> FlattenResult:
    """``result`` with ``phi0`` and each definition in core form; the names
    and the vocabulary are unchanged."""
    defs = tuple((k, desugar(leaf)) for k, leaf in result.defs)
    return replace(result, phi0=desugar(result.phi0), defs=defs)


def test_flatten_two_disjoined_modalities():
    result = desugared(flatten(parse("Kh(p & q, r & t) | Kh(p, r)")))
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
    result = desugared(flatten(parse("Kh(p, Kh(~q, p -> q)) | Kh(r, t)")))
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
    # It runs on every call: no earlier call, with or without
    # ``allow_reserved``, keeps a result that would skip it.
    for _ in range(2):
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


def test_flatten_keeps_its_result_on_a_modal_input(monkeypatch):
    """Flattening the same object again returns the result kept on it and
    builds and folds nothing.  An input without a modality is its own phi0,
    so keeping its result would make a reference cycle: it keeps nothing."""
    modal, propositional = parse("Kh(p, q & r) | E ~p"), parse("p | ~q")
    first = flatten(modal)
    calls = []
    monkeypatch.setattr(normalform, "_built", lambda *args: calls.append(args))
    monkeypatch.setattr(normalform, "fold", lambda *args: calls.append(args))
    assert flatten(modal) is first
    assert calls == []
    monkeypatch.undo()
    result = flatten(propositional)
    assert result.phi0 is propositional
    assert flatten(propositional) is not result
    assert flatten(propositional) == result


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
            assert k.name not in f.atoms
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


def _flatten_by_rounds(f: Formula) -> FlattenResult:
    """Reference: the round-by-round flattening.  Each round names the
    innermost modalities (modal depth exactly 1) of the skeleton so far, in
    left-to-right order of first occurrence, refolds the whole skeleton, and
    repeats until no modality remains."""
    phi0, defs = f.core, []
    while phi0.depth != 0:
        names: dict[Kh, Atom] = {}

        def leaf(g: Formula, names=names, first=len(defs) + 1) -> Formula | None:
            if g.depth == 0:
                return g
            if isinstance(g, Kh) and g.depth == 1:
                if g not in names:
                    names[g] = _core_node(Atom, f"_k{first + len(names)}")
                return names[g]
            return None

        phi0 = fold(phi0, lambda g, children: _core_node(type(g), *children), leaf)
        defs.extend((atom, kh) for kh, atom in names.items())
    vocabulary = tuple(sorted(f.core.atoms.union(k.name for k, _ in defs)))
    return FlattenResult(phi0, tuple(defs), vocabulary, numbering=None)


def _e_chain(n: int) -> Formula:
    """``E ~ E ~ … p``: modal depth n."""
    return parse("E ~ " * n + "p")


def _iff_chain(n: int) -> Formula:
    """``Kh(p, q) <-> (Kh(p, q) <-> … p)``: n levels of ``<->``, whose core form
    uses each side twice, so it has 2^n paths through shared nodes."""
    return parse("Kh(p, q) <-> " * n + "p")


# The seeded suites of the roadmap's measurements: (depth, leaves, atoms, count).
_SUITES = {
    "S": (2, 2, ("p", "q"), 300),
    "M": (3, 3, ("p", "q", "r"), 300),
    "L": (3, 6, ("p", "q", "r", "s"), 60),
    "XL": (4, 10, ("p", "q", "r", "s", "t", "u"), 60),
    "XXL": (5, 14, ("p", "q", "r", "s", "t", "u", "v", "w"), 60),
}


def _inputs(suite: str) -> list[Formula]:
    """The seeded suite's inputs, or the chains."""
    if suite == "M&M&M":  # three M inputs conjoined: the guess-heavy suite
        m = partial(random_formula, 3, 3, ("p", "q", "r"))
        return [And(And(m(s), m(s + 5000)), m(s + 9000)) for s in range(300)]
    if suite == "chains":
        return [_e_chain(n) for n in (1, 2, 10, 400)] + [_iff_chain(n) for n in (1, 2, 12, 1000)]
    depth, leaves, atoms, count = _SUITES[suite]
    return [random_formula(depth, leaves, atoms, seed) for seed in range(count)]


@pytest.mark.parametrize("suite", [*_SUITES, "M&M&M"])
def test_flatten_equals_the_round_by_round_flattening_seeded(suite):
    for f in _inputs(suite):
        result, expected = desugared(flatten(f)), _flatten_by_rounds(f)
        assert result == expected, render(f)
        assert result.vocabulary == expected.vocabulary, render(f)


@pytest.mark.parametrize(
    "f",
    [_e_chain(n) for n in (1, 2, 3, 10, 100, 400)] + [_iff_chain(n) for n in (1, 2, 5, 12)],
    ids=[f"e-chain-{n}" for n in (1, 2, 3, 10, 100, 400)] + [f"iff-chain-{n}" for n in (1, 2, 5, 12)],
)
def test_flatten_equals_the_round_by_round_flattening_on_chains(f):
    assert desugared(flatten(f)) == _flatten_by_rounds(f)


@pytest.mark.parametrize("n", [1, 10, 400])
def test_flatten_folds_once_whatever_the_depth(monkeypatch, n):
    folds = []

    def counting_fold(*args):
        folds.append(args[0])
        return fold(*args)

    monkeypatch.setattr(normalform, "fold", counting_fold)
    result = flatten(_e_chain(n))
    assert len(folds) == 1
    assert len(result.defs) == n and result.phi0 == Not(Atom(f"_k{n}"))


def test_flatten_builds_once_per_distinct_modal_node(monkeypatch):
    # 18 levels of <->: as parsed, 18 Iff nodes over 18 separate copies of
    # Kh(p, q); shared, each level's two sides are one node, so there are
    # 2^18 paths through 18 distinct Iff nodes.  Either way flatten builds
    # each Iff above a modality once, the one definition and its name once,
    # and once the ``false`` that A and E definitions share.
    shared = Kh(P, Q)
    for _ in range(18):
        shared = Iff(shared, shared)
    built = []

    def counting_built(cls, *fields):
        built.append(cls.__name__)
        return normalform_built(cls, *fields)

    monkeypatch.setattr(normalform, "_built", counting_built)
    for f in (_iff_chain(18), shared):
        built.clear()
        result = flatten(f)
        assert result.defs == ((K1, Kh(P, Q)),)
        assert sorted(built) == ["Atom", "Bottom", *["Iff"] * 18, "Kh"]


@pytest.mark.parametrize("suite", [*_SUITES, "M&M&M", "chains"])
def test_numbered_masks_equal_the_evaluator(suite):
    # On the truth table of the vocabulary, or on a grid of 64 random places
    # when it has more than 12 atoms, the masks that one pass over flatten's
    # numbering gives phi0, every side and every name equal eval_core's.
    rng = random.Random(27)
    for f in _inputs(suite):
        result = flatten(f)
        sides = [side for _, leaf in result.defs for side in leaf.children]
        numbered = [result.phi0, *sides, *(k for k, _ in result.defs)]
        assert all(map(is_, [g for g, _ in result.numbering.numbered], numbered)), render(f)
        symbols = result.vocabulary
        if len(symbols) <= 12:
            table = _Table.truth_table(symbols)
        else:
            places = [rng.getrandbits(len(symbols)) for _ in range(64)]
            table = _Table.grid(_bits(symbols), places)
        table.number(result.numbering)
        for g in numbered:
            expected = eval_core(g, table.val, table.every, _no_modality)
            assert table.masks([g]) == [expected], (render(f), render(g))


@pytest.mark.parametrize("suite", [*_SUITES, "M&M&M", "chains"])
def test_every_node_flatten_hands_out_has_its_written_core_form(suite):
    # A node flatten builds above sugar is not marked as its own core form,
    # so the per-query path's CNF reads the same formula as the table.
    # Rendering every node is quadratic in the nesting: chains of 100 levels.
    for f in [_e_chain(100), _iff_chain(100)] if suite == "chains" else _inputs(suite):
        result = flatten(f)
        handed = [result.phi0, *(g for definition in result.defs for g in definition)]
        nodes = {}
        for g in handed:
            fold(g, lambda node, _: nodes.setdefault(id(node), node))
        for g in nodes.values():
            assert g.core == desugar(parse(render(g), allow_reserved=True)), render(g)
