"""Tests for the leaf-normal-form decision procedure."""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import and_

import pytest

from knowhow import formula, khsat, normalform, propsat, semantics
from knowhow.certificate import verify_certificate
from knowhow.formula import And, Atom, Bottom, Formula, Kh, Not, Top, parse, render
from knowhow.khsat import (
    GuessPartition,
    NegativeSpec,
    PositiveSpec,
    Result,
    compatible,
    composition_closure,
    decide,
    global_indices,
    oracle_call_count,
    per_guess_call_bound,
)
from knowhow.normalform import flatten
from knowhow.oracle import SearchBounds, bounded_sat_search, random_formula
from knowhow.propsat import Members, SatOracle, is_sat
from knowhow.semantics import eval_formula, make_lts
from tests.test_propsat import projections_by_dpll, truth_table_sat

P, Q, R, T, S = Atom("p"), Atom("q"), Atom("r"), Atom("t"), Atom("s")


def pos(*pairs) -> PositiveSpec:
    return PositiveSpec(tuple((parse(a), parse(b)) for a, b in pairs))


def neg(*pairs) -> NegativeSpec:
    return NegativeSpec(tuple((parse(a), parse(b)) for a, b in pairs))


# ---------------------------------------------------------------------------
# Context fixpoint


def context_members(p: PositiveSpec, indices) -> list:
    """The context of ``indices``: their negated preconditions, in index order."""
    return [Not(p.pre(k)) for k in sorted(indices)]


def test_global_indices_forced_pair():
    indices = global_indices(PositiveSpec(((P, Bottom()), (Q, P))))
    assert isinstance(indices, frozenset) and indices == frozenset({1, 2})


def test_global_indices_nothing_forced():
    assert global_indices(pos(("p", "q"))) == frozenset()


def test_global_indices_single_bottom():
    assert global_indices(PositiveSpec(((P, Bottom()),))) == frozenset({1})


def test_global_indices_fixpoint_characterization():
    """k is in I exactly when its postcondition is unsatisfiable under the
    final context — an independent restatement of the sweep's fixpoint."""
    rng = random.Random(11)
    shapes = ["p", "q", "~p", "p & q", "p | q", "~q", "false", "p -> q"]
    for _ in range(150):
        n = rng.randint(0, 4)
        p = pos(*((rng.choice(shapes), rng.choice(shapes)) for _ in range(n)))
        indices = global_indices(p)
        members = context_members(p, indices)
        for k in range(1, n + 1):
            in_i = k in indices
            assert truth_table_sat(members + [p.post(k)]) == (not in_i)


def sat_positive(p: PositiveSpec, oracle: SatOracle | None = None) -> bool:
    """Reference: satisfiability of a pure positive conjunction."""
    oracle = oracle or SatOracle()
    every, truth, _ = oracle.truth_sets(context_members(p, global_indices(p, oracle)))
    return oracle.ask(reduce(and_, truth, every))


def sat_negative(q: NegativeSpec, oracle: SatOracle | None = None) -> bool:
    """Reference: satisfiability of a pure negative conjunction.  Every denied
    statement needs a precondition state that escapes the postcondition (else
    the empty plan would witness it)."""
    oracle = oracle or SatOracle()
    _, escapes, _ = oracle.truth_sets([And(pre, Not(post)) for pre, post in q.conjuncts])
    return all(oracle.ask(escape) for escape in escapes)


def test_sat_positive_examples():
    assert sat_positive(PositiveSpec(((P, Bottom()), (Q, P)))) is True
    assert sat_positive(PositiveSpec(((P, Bottom()), (Not(P), Bottom())))) is False
    assert sat_positive(PositiveSpec(())) is True


def test_sat_positive_witness_respects_context():
    p = PositiveSpec(((P, Bottom()), (Q, P)))
    sat, witness = is_sat(context_members(p, global_indices(p)))
    assert sat and witness == {"p": False, "q": False}


def test_sat_negative_examples():
    assert sat_negative(neg(("p", "q"))) is True
    assert sat_negative(neg(("p", "p | q"))) is False
    assert sat_negative(neg(("p", "q"), ("r", "r"))) is False


# ---------------------------------------------------------------------------
# Composition closure


def test_closure_three_conjunct_golden():
    p = pos(("p", "p & q"), ("q", "r"), ("r | s", "t"))
    pairs = composition_closure(p, frozenset())
    assert pairs == frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)})


def test_closure_single_conjunct_reflexive_only():
    assert composition_closure(pos(("p", "q")), frozenset()) == frozenset({(1, 1)})


def test_closure_chain_edge():
    pairs = composition_closure(pos(("p", "q"), ("q", "r")), frozenset())
    assert pairs == frozenset({(1, 1), (2, 2), (1, 2)})


def _closure_by_reachability(p: PositiveSpec, psi) -> set[tuple[int, int]]:
    """Independent closure: truth-table edges plus breadth-first reachability."""
    n = p.n
    edge = {
        (x, y): not truth_table_sat([psi, p.post(x), Not(p.pre(y))])
        for x in range(1, n + 1)
        for y in range(1, n + 1)
    }
    pairs = set()
    for start in range(1, n + 1):
        seen = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in range(1, n + 1):
                if edge[(x, y)] and y not in seen:
                    seen.add(y)
                    queue.append(y)
        pairs.update((start, y) for y in seen)
    return pairs


def test_closure_laws_on_random_specs():
    rng = random.Random(23)
    shapes = ["p", "q", "~p", "p & q", "p | q", "q -> p", "~q"]
    for _ in range(120):
        n = rng.randint(1, 4)
        p = pos(*((rng.choice(shapes), rng.choice(shapes)) for _ in range(n)))
        indices = frozenset(k for k in range(1, n + 1) if rng.random() < 0.5)
        psi = reduce(And, context_members(p, indices), Top())
        pairs = composition_closure(p, indices)
        for x in range(1, n + 1):
            assert (x, x) in pairs
        assert pairs == frozenset(_closure_by_reachability(p, psi))


# ---------------------------------------------------------------------------
# Compatibility


def test_compatible_two_positive_conjuncts():
    p = pos(("p & q", "r & t"), ("p", "r"))
    q = neg(("k1 & k2", "false"))
    assert compatible(p, q) is True


def test_compatible_blocks_direct_contradiction():
    assert compatible(pos(("p", "q")), neg(("p", "q"))) is False


def test_compatible_single_positive_against_two_denials():
    """The pair is satisfiable (see the explicit model below), so a sound
    check must accept it.  Acceptance criterion 5 likewise expects the worked
    example's mixed guess to be compatible; this pair differs from that one
    in its denied precondition, the augmented-shape conjunct ``k1 & ~k2``
    rather than criterion 5's ``_k1 | _k2``."""
    p = pos(("p & q", "r & t"))
    q = neg(("p", "r"), ("k1 & ~k2", "false"))
    assert compatible(p, q) is True


def test_incompatibility_claim_refuted_by_explicit_model():
    """Concrete three-state model satisfying Kh(p&q, r&t), ~Kh(p, r), and
    ~Kh(k1 & ~k2, false) all at once.  It uses the augmented-shape conjunct
    ``k1 & ~k2``; acceptance criterion 5 checks the same model shape against
    its own pair, with ``_k1 | _k2``, and expects compatibility."""
    m = make_lts(
        ["s1", "s2", "s3"],
        {"s1": ["p", "k1"], "s2": ["p", "q", "k1"], "s3": ["r", "t", "k1"]},
        {"a": [("s2", "s3")]},
    )
    whole = parse("Kh(p & q, r & t) & ~Kh(p, r) & ~Kh(k1 & ~k2, false)")
    assert eval_formula(m, whole) == m.all_states


def test_compatible_requires_satisfiable_context():
    p = pos(("p", "false"), ("~p", "false"))
    assert compatible(p, neg(("q", "false"))) is False


def test_compatible_empty_positive_reduces_to_denial_checks():
    assert compatible(PositiveSpec(()), neg(("p", "q"))) is True
    assert compatible(PositiveSpec(()), neg(("p", "p"))) is False


def _reference_global_indices(p: PositiveSpec, oracle: SatOracle) -> frozenset[int]:
    """Reference fixpoint: n + 1 sweeps, whatever they force."""
    every, truth, falsity = oracle.truth_sets([side for c in p.conjuncts for side in c])
    post, not_pre = truth[1::2], falsity[0::2]
    indices: set[int] = set()
    context = every
    for _ in range(p.n + 1):
        newly = [
            k
            for k in range(1, p.n + 1)
            if k not in indices and not oracle.ask(context & post[k - 1])
        ]
        for k in newly:
            indices.add(k)
            context &= not_pre[k - 1]
    return frozenset(indices)


def _reference_closure(p: PositiveSpec, indices, oracle: SatOracle) -> list[tuple[int, int]]:
    """Reference closure: every pair asked, forced conjuncts too."""
    every, truth, falsity = oracle.truth_sets([side for c in p.conjuncts for side in c])
    post, not_pre = truth[1::2], falsity[0::2]
    context = reduce(and_, (not_pre[k - 1] for k in sorted(indices)), every)
    n = p.n
    reach = []
    for x in range(n):
        row = 1 << x
        for y in range(n):
            if not oracle.ask(context & post[x] & not_pre[y]):
                row |= 1 << y
        reach.append(row)
    for mid in range(n):
        for x in range(n):
            if reach[x] >> mid & 1:
                reach[x] |= reach[mid]
    return sorted((x + 1, y + 1) for x in range(n) for y in range(n) if reach[x] >> y & 1)


def _reference_compatible(p: PositiveSpec, q: NegativeSpec, indices, oracle: SatOracle) -> bool:
    """Reference compatibility check: realizability asked for every
    conjunct, and (2b)'s trigger and obligation for every closure pair."""
    sides = [side for c in p.conjuncts + q.conjuncts for side in c]
    every, truth, falsity = oracle.truth_sets(sides)
    split = 2 * p.n
    pre, post, not_pre = truth[0:split:2], truth[1:split:2], falsity[0:split:2]
    denied_pre, denied_escape = truth[split::2], falsity[split + 1 :: 2]
    context = reduce(and_, (not_pre[k - 1] for k in sorted(indices)), every)
    if not oracle.ask(context):
        return False
    for j in range(q.m):
        if not oracle.ask(context & denied_pre[j] & denied_escape[j]):
            return False
    pairs = _reference_closure(p, indices, oracle)
    realizable = [oracle.ask(context & pre[x]) for x in range(p.n)]
    for j in range(q.m):
        in_pre_j = context & denied_pre[j]
        for x, y in pairs:
            if not realizable[x - 1] or oracle.ask(in_pre_j & not_pre[x - 1]):
                continue
            if not oracle.ask(context & post[y - 1] & denied_escape[j]):
                return False
    return True


def _tight_bound(n: int, m: int) -> int:
    """Calls one guess check may ask: sweeps + (1) + (2a) + realizability +
    closure edges + (2b) triggers and obligations, once per conjunct."""
    return n * (n + 1) + 1 + m + n + n * n + 2 * m * n


def _reference_build_pair(
    result, assignment: dict[str, bool], mode: str
) -> tuple[PositiveSpec, NegativeSpec, Formula]:
    """The pair builder that made each guess's conditions anew: fresh pins
    and, in augmented mode, the chain phi0 ∧ literals as the existential
    precondition, which it also returns."""
    partition = khsat._partition(result, assignment)
    p_plus, p_minus = partition.p_plus, partition.p_minus
    sides = [(leaf.pre, leaf.post) for _, leaf in result.defs]
    positives: list[tuple[Formula, Formula]] = [sides[i - 1] for i in p_plus]
    negatives: list[tuple[Formula, Formula]] = [sides[i - 1] for i in p_minus]
    exis_pre: Formula = result.phi0
    if mode == "augmented":
        for i in p_plus:
            positives.append((Not(Atom(result.defs[i - 1][0].name)), Bottom()))
        for i in p_minus:
            positives.append((Atom(result.defs[i - 1][0].name), Bottom()))
        for k, _ in result.defs:
            literal: Formula = Atom(k.name) if assignment[k.name] else Not(Atom(k.name))
            exis_pre = And(exis_pre, literal)
    negatives.append((exis_pre, Bottom()))
    return PositiveSpec(tuple(positives)), NegativeSpec(tuple(negatives)), exis_pre


def _conditions(flattening):
    """The conditions ``decide`` builds once per call for ``_build_pair``."""
    false = Bottom()
    sides = [(leaf.pre, leaf.post) for _, leaf in flattening.defs]
    pins = [((Not(k), false), (k, false)) for k, _ in flattening.defs]
    return sides, pins, (flattening.phi0, false)


def _checked(p: PositiveSpec, q: NegativeSpec, oracle: SatOracle):
    """The indices, answer, witness rows and call count of one guess check."""
    calls = oracle.calls
    with oracle.witnesses() as rows:
        indices = global_indices(p, oracle)
        ok = compatible(p, q, oracle, indices)
    return indices, ok, rows, oracle.calls - calls


@pytest.mark.parametrize(
    "depth, leaves, atoms, seeds",
    [
        (2, 2, ("p", "q"), range(100)),
        (3, 3, ("p", "q", "r"), range(100)),
        (3, 6, ("p", "q", "r", "s"), range(30)),
        (4, 10, ("p", "q", "r", "s", "t", "u"), range(20)),
    ],
    ids=["S", "M", "L", "XL"],
)
def test_check_matches_reference_check_on_every_guess(depth, leaves, atoms, seeds):
    """Every guess of the skeleton, in both modes and on the oracle path
    ``decide`` takes: the same indices, the same answer and the same witness
    rows (so the same certificate) as the check that asks every question,
    from no more calls than it and within the tight bound.  The pair picked
    from prebuilt conditions also gives the same indices, answer, witness
    rows and call count as the pair built anew with the phi0 ∧ literals
    chain."""
    checked = fewer = 0
    for seed in seeds:
        flattening = flatten(random_formula(depth, leaves, atoms, seed))
        vocabulary = flattening.phi0.atoms.union(*(leaf.atoms for _, leaf in flattening.defs))
        sides, pins, exis = _conditions(flattening)
        for mode in ("plain", "augmented"):
            oracle, reference, chained = SatOracle(), SatOracle(), SatOracle()
            with oracle.scope(vocabulary), reference.scope(vocabulary), chained.scope(vocabulary):
                k_atoms = [k for k, _ in flattening.defs]
                for assignment in list(oracle.enumerate_models(flattening.phi0, k_atoms)):
                    values = [assignment[k.name] for k in k_atoms]
                    p, q = khsat._build_pair(sides, pins, exis, values, mode)
                    indices, ok, rows, calls = _checked(p, q, oracle)
                    expected_calls = reference.calls
                    with reference.witnesses() as expected_rows:
                        expected_indices = _reference_global_indices(p, reference)
                        expected = _reference_compatible(p, q, expected_indices, reference)
                    expected_calls = reference.calls - expected_calls
                    assert (indices, ok) == (expected_indices, expected), (seed, mode, assignment)
                    assert set(rows) == set(expected_rows), (seed, mode, assignment)
                    assert calls <= min(expected_calls, _tight_bound(p.n, q.m))
                    old_p, old_q, _ = _reference_build_pair(flattening, assignment, mode)
                    assert (p.n, q.m) == (old_p.n, old_q.m)
                    assert (indices, ok, rows, calls) == _checked(old_p, old_q, chained), (
                        seed, mode, assignment,
                    )
                    checked += 1
                    fewer += calls < expected_calls
    assert fewer > checked // 2  # most guesses ask strictly fewer


def _m_m_m(seed: int) -> Formula:
    """The guess-heavy suite's input: three M inputs conjoined."""
    m = partial(random_formula, 3, 3, ("p", "q", "r"))
    return And(And(m(seed), m(seed + 5000)), m(seed + 9000))


def _suite(name: str) -> list[Formula]:
    if name == "M&M&M":
        return [_m_m_m(seed) for seed in range(40)]
    depth, leaves, atoms, count = {
        "S": (2, 2, ("p", "q"), 300),
        "M": (3, 3, ("p", "q", "r"), 300),
        "L": (3, 6, ("p", "q", "r", "s"), 60),
        "XL": (4, 10, ("p", "q", "r", "s", "t", "u"), 60),
        "XXL": (5, 14, ("p", "q", "r", "s", "t", "u", "v", "w"), 30),
    }[name]
    return [random_formula(depth, leaves, atoms, seed) for seed in range(count)]


@pytest.mark.parametrize("suite", ["S", "M", "XL", "XXL", "M&M&M"])
def test_decide_equals_decide_on_the_reference_pairs(suite, monkeypatch):
    """``decide`` on pairs picked from conditions built once per call gives
    the same trace, counts and certificate as on pairs built anew per guess
    with the phi0 ∧ literals chain, in both modes and on both oracle paths."""
    runs = {}
    for f in _suite(suite):
        for mode in ("plain", "augmented"):
            runs[render(f), mode] = decide(f, mode, trace=True)
    flattened = []
    monkeypatch.setattr(khsat, "flatten", lambda f: flattened.append(flatten(f)) or flattened[-1])
    monkeypatch.setattr(
        khsat,
        "_build_pair",
        lambda sides, pins, exis, values, mode: _reference_build_pair(
            flattened[-1], {k.name: v for (k, _), v in zip(flattened[-1].defs, values)}, mode
        )[:2],
    )
    for (text, mode), verdict in runs.items():
        expected = decide(parse(text), mode, trace=True)
        assert verdict.result is expected.result, (text, mode)
        assert verdict.trace == expected.trace, (text, mode)
        assert verdict.partition == expected.partition, (text, mode)
        assert (verdict.enumeration_calls, verdict.certificate_calls) == (
            expected.enumeration_calls, expected.certificate_calls,
        ), (text, mode)
        dumps = [v.certificate.dump() if v.certificate else None for v in (verdict, expected)]
        assert dumps[0] == dumps[1], (text, mode)


@pytest.mark.parametrize("suite", ["S", "M"])
def test_a_second_decide_reads_the_kept_flattening(suite, monkeypatch):
    """A differential check decides one object in both modes: the second
    ``decide``, in either order, returns the flattening the first kept on
    the input, building and folding nothing, and answers as on a fresh
    parse.  An input with no modality is its own phi0 and keeps nothing."""
    built, folds = [], []
    build, walk = normalform._built, normalform.fold
    monkeypatch.setattr(normalform, "_built", lambda *args: built.append(args) or build(*args))
    monkeypatch.setattr(normalform, "fold", lambda *args: folds.append(args) or walk(*args))
    kept = 0
    for text in map(render, _suite(suite)):
        for first_mode, mode in (("plain", "augmented"), ("augmented", "plain")):
            f = parse(text)
            first = decide(f, first_mode, trace=True)
            modal = first.flattening.phi0 is not f
            built.clear()
            folds.clear()
            verdict = decide(f, mode, trace=True)
            assert (verdict.flattening is first.flattening) == modal, (text, mode)
            if modal:
                assert built == [] and folds == [], (text, mode)
                kept += 1
            expected = decide(parse(text), mode, trace=True)
            assert verdict.result is expected.result, (text, mode)
            assert verdict.trace == expected.trace, (text, mode)
            assert verdict.partition == expected.partition, (text, mode)
            assert (verdict.enumeration_calls, verdict.certificate_calls) == (
                expected.enumeration_calls, expected.certificate_calls,
            ), (text, mode)
            dumps = [v.certificate.dump() if v.certificate else None for v in (verdict, expected)]
            assert dumps[0] == dumps[1], (text, mode)
    assert kept > 400


@pytest.mark.parametrize("suite", ["M", "M&M&M", "XL"])
def test_guess_checks_after_the_first_fill_no_node(suite, monkeypatch):
    """Each condition a pair picks is built once per ``decide`` call, and
    so is, per query, each condition's negation: no guess check after the
    first fills a node, on the table path or per query (XL and M&M&M
    vocabularies of more than ``_TABLE_MAX_SYMBOLS`` atoms)."""
    fills = []
    fill = formula._fill
    monkeypatch.setattr(formula, "_fill", lambda *args: fills.append(1) or fill(*args))
    check = khsat._check_guess
    checks = []

    def counting_check(*args):
        before = len(fills)
        result = check(*args)
        checks.append(len(fills) - before)
        return result

    monkeypatch.setattr(khsat, "_check_guess", counting_check)
    later = tried = per_query = 0
    for f in [_m_m_m(seed) for seed in range(120)] if suite == "M&M&M" else _suite(suite):
        for mode in ("plain", "augmented"):
            checks.clear()
            verdict = decide(f, mode)
            later += sum(checks[1:])
            tried += len(checks) - 1
            per_query += len(verdict.flattening.vocabulary) > propsat._TABLE_MAX_SYMBOLS
    assert tried > 100 and (per_query > 10 or suite == "M")
    assert later == 0


def test_decide_fills_no_node_facts_on_the_input_core(monkeypatch):
    """``decide``'s table path runs on identities: flattening, the oracle's
    truth sets, the pair checks and the certificates read no hash and no
    ``atoms`` of the input's core form, so no fact of its nodes is filled;
    and the conditions ``decide`` builds itself, ``false`` and the pins,
    keep their depth, so no other node's facts are filled either."""
    filled = []
    fill = formula._fill_facts

    def recording_fill(node, children):
        filled.append(id(node))
        return fill(node, children)

    monkeypatch.setattr(formula, "_fill_facts", recording_fill)
    decided = 0
    for f in _suite("M"):
        for mode in ("plain", "augmented"):
            filled.clear()
            verdict = decide(f, mode)
            assert len(verdict.flattening.vocabulary) <= propsat._TABLE_MAX_SYMBOLS
            assert filled == [], (render(f), mode)
            decided += 1
    assert decided == 600


def test_decide_builds_no_formula_on_the_table(monkeypatch):
    """On the table path decide reads every condition by its number in
    flatten's numbering: it builds no node of flatten's
    (``normalform._built``), numbers no formula in the oracle
    (``propsat.number_core``) and runs no fold, in either mode."""
    inputs, calls = _suite("M"), []
    for module, name in [
        (normalform, "_built"), (propsat, "number_core"),
        (formula, "fold"), (normalform, "fold"), (semantics, "fold"),
    ]:
        call = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, call=call: calls.append(call) or call(*args))
    for f in inputs:
        for mode in ("plain", "augmented"):
            verdict = decide(f, mode)
            assert len(verdict.flattening.vocabulary) <= propsat._TABLE_MAX_SYMBOLS
            assert calls == [], (render(f), mode)


@pytest.mark.parametrize("suite", ["S", "M", "L", "XL", "XXL"])
def test_a_flattening_read_after_decide_equals_one_read_at_once(suite):
    # decide leaves phi0 and the definitions unbuilt; read afterwards they
    # equal, sugar and all, those of a flattening read as soon as it is made.
    for f in _suite(suite):
        for mode in ("plain", "augmented"):
            late = decide(parse(render(f)), mode).flattening
            early = flatten(parse(render(f)))
            phi0, defs = early.phi0, early.defs
            assert (late.phi0, late.defs) == (phi0, defs), (render(f), mode)
            assert render(late.phi0) == render(phi0), (render(f), mode)
            assert [(k, render(leaf)) for k, leaf in late.defs] == [
                (k, render(leaf)) for k, leaf in defs
            ], (render(f), mode)


@pytest.mark.parametrize("mode", ["plain", "augmented"])
def test_decide_answers_a_1000_level_iff_chain(mode):
    # As written the chain is a tree of 1000 <-> nodes; its core form shares
    # each side of each <-> twice, 2^1000 paths.
    f = parse("Kh(p, q) <-> " * 1000 + "p")
    verdict = decide(f, mode)
    assert verdict.result is Result.SAT
    assert verify_certificate(verdict.certificate, f)


@pytest.mark.parametrize("mode", ["plain", "augmented"])
def test_decide_answers_iff_chains_over_a_wide_vocabulary(mode):
    # Eleven atoms or more: every query goes per query, and its members are
    # core forms, which share both sides of each <->.  A 100-level chain as
    # the skeleton, and one as a definition's side, whose negation the
    # checks read, are each evaluated one shared node at a time, not along
    # each of 2^100 paths.
    wide = "(a & b & c & d & e & f & g & h & i)"
    for text in ["Kh(p, q) <-> " * 100 + wide, "Kh(" + "p <-> " * 100 + wide + ", q) & x"]:
        f = parse(text)
        verdict = decide(f, mode)
        assert len(verdict.flattening.vocabulary) > propsat._TABLE_MAX_SYMBOLS
        assert verdict.result is Result.SAT
        assert verify_certificate(verdict.certificate, f)


def test_specs_reject_modal_operands():
    with pytest.raises(ValueError):
        PositiveSpec(((Kh(P, Q), Q),))
    with pytest.raises(ValueError):
        NegativeSpec(((P, Kh(P, Q)),))


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        GuessPartition((1,), (1, 2), {"_k1": True, "_k2": False})


# ---------------------------------------------------------------------------
# decide


def test_decide_disjunction_of_modalities():
    f = parse("Kh(p & q, r & t) | Kh(p, r)")
    v = decide(f)
    assert v.result is Result.SAT
    assert v.partition.k_assignment == {"_k1": True, "_k2": True}
    assert v.guesses_tried == 1
    assert v.certificate is not None
    assert verify_certificate(v.certificate, f)
    assert v.certificate.witness_state is not None


def test_decide_reflexive_modality():
    assert decide(parse("Kh(p, p)")).result is Result.SAT


def test_decide_conflicting_quantifiers():
    assert decide(parse("A p & E ~p")).result is Result.UNSAT


def test_decide_propositional_contradiction_skips_guessing():
    v = decide(parse("p & ~p"))
    assert v.result is Result.UNSAT
    assert v.guesses_tried == 0


def test_decide_propositional_formula():
    v = decide(parse("p | q"), trace=True)
    assert v.result is Result.SAT
    assert v.partition == GuessPartition((), (), {})
    assert verify_certificate(v.certificate, parse("p | q"))
    # The guess check runs without definitions too: it asks for the context
    # and for the skeleton in it, and their witness rows are the states.
    assert oracle_call_count(v) == 2
    assert len(v.certificate.model.states) == 2
    assert v.enumeration_calls >= 1


def test_decide_is_deterministic():
    f = parse("Kh(p, q) | ~Kh(q, r & p)")
    a, b = decide(f), decide(f)
    assert a.result == b.result
    assert a.partition == b.partition
    assert a.certificate.dump() == b.certificate.dump()


def test_decide_gates_unverifiable_guess():
    """First guess builds a model that fails verification, so the procedure
    moves on and succeeds with the next one."""
    f = parse("A ~x <-> x")
    v = decide(f, trace=True)
    assert v.result is Result.SAT
    assert [r.certificate_verified for r in v.trace] == [False, True]
    assert v.partition.k_assignment == {"_k1": False}
    assert verify_certificate(v.certificate, f)


def test_decide_guess_order_true_first():
    f = parse("Kh(p, q) | Kh(q, r)")
    v = decide(f, trace=True)
    assert v.trace[0].k_assignment == {"_k1": True, "_k2": True}


def test_decide_augmented_mode_agrees_on_examples():
    for text in ["Kh(p & q, r & t) | Kh(p, r)", "Kh(p, p)", "A p & E ~p", "p & ~p"]:
        f = parse(text)
        assert decide(f).result == decide(f, mode="augmented").result


def test_decide_augmented_pins_definition_atoms():
    f = parse("Kh(p & q, r & t) | Kh(p, r)")
    v = decide(f, mode="augmented")
    assert v.result is Result.SAT
    model = v.certificate.model
    assert model.val.get("_k1", 0) == model.all_states
    assert model.val.get("_k2", 0) == model.all_states
    assert verify_certificate(v.certificate, f)


def test_decide_rejects_unknown_mode():
    with pytest.raises(ValueError):
        decide(parse("p"), mode="fancy")


def test_oracle_call_count_requires_trace():
    v = decide(parse("Kh(p, q)"))
    with pytest.raises(ValueError):
        oracle_call_count(v)


def test_per_guess_calls_match_hand_count_for_single_leaf():
    # One positive leaf, one denial (the existential conjunct):
    # 1 sweep call (it forces nothing), context check, one denial check,
    # one closure edge (the diagonal), one realizability check, one trigger
    # probe (the denial's precondition does not force p) = 6.
    v = decide(parse("Kh(p, q)"), trace=True)
    assert v.result is Result.SAT
    assert oracle_call_count(v) == 6


def test_per_guess_calls_match_hand_count_with_a_forced_conjunct():
    # Augmented mode adds the pin Kh(~_k1, false), which the context forces:
    # 2 calls in the first sweep (it forces the pin), 1 in the second (it
    # forces nothing), context check, one denial check, one closure edge
    # (1 -> 1: the pin is left out of the closure), one realizability check
    # (none for the pin), one trigger probe = 8.
    v = decide(parse("Kh(p, q)"), "augmented", trace=True)
    assert v.result is Result.SAT
    assert [(record.n, record.m, record.oracle_calls) for record in v.trace] == [(2, 1, 8)]


def test_per_guess_calls_within_documented_bound():
    rng = random.Random(77)
    from knowhow.oracle import random_formula

    for seed in range(120):
        f = random_formula(2, 3, ("p", "q"), seed)
        v = decide(f, trace=True)
        for record in v.trace or ():
            bound = per_guess_call_bound(record.n, record.m)
            assert record.oracle_calls <= bound
            assert bound <= 3 * (record.n + record.m + 1) * (record.n + 1) ** 2


@pytest.mark.parametrize(
    "depth, leaves, atoms, seeds",
    [(3, 3, ("p", "q", "r"), range(150)), (4, 10, ("p", "q", "r", "s", "t", "u"), range(30))],
    ids=["M", "XL"],
)
def test_per_guess_calls_within_tight_bound(depth, leaves, atoms, seeds):
    """Each trigger and obligation is asked once per denial and conjunct, so
    a guess check asks at most n(n+1) + 1 + m + n + n² + 2mn questions."""
    for seed in seeds:
        f = random_formula(depth, leaves, atoms, seed)
        for mode in ("plain", "augmented"):
            for record in decide(f, mode, trace=True).trace:
                assert record.oracle_calls <= _tight_bound(record.n, record.m), (seed, mode)


def test_decide_shares_oracle_and_counts_calls():
    oracle = SatOracle()
    decide(parse("Kh(p, q) | Kh(q, r)"), oracle=oracle)
    assert oracle.calls > 0


@dataclass
class _RecordingOracle(SatOracle):
    """Records each question (``ask``), its answer and whether it was a
    mask on a table; with ``scoped`` off, ``scope`` asks per query."""

    scoped: bool = True
    queries: list = field(default_factory=list)

    def ask(self, term):
        answer = super().ask(term)
        self.queries.append((term, answer, not isinstance(term, Members)))
        return answer

    @contextmanager
    def scope(self, atoms, structures=()):
        with super().scope(atoms, structures):
            if not self.scoped:  # the same scope's places, each question per query
                self._scope = self._scope._replace(table=None)
            yield


def _assert_same_questions(table_run, formula_run):
    """Each table answer equals the per-query answer to the same question."""
    assert all(from_table for _, _, from_table in table_run.queries)
    assert not any(from_table for _, _, from_table in formula_run.queries)
    assert len(table_run.queries) == len(formula_run.queries)
    for (_, answer, _), (members, expected, _) in zip(table_run.queries, formula_run.queries):
        assert answer == expected == is_sat(members)[0], [render(f) for f in members]
    assert table_run.calls == formula_run.calls


@pytest.mark.parametrize(
    "depth, leaves, atoms, seeds",
    [(2, 2, ("p", "q"), range(80)), (3, 3, ("p", "q", "r"), range(60))],
)
def test_scoped_sat_matches_per_query_is_sat(depth, leaves, atoms, seeds):
    asked = 0
    for seed in seeds:
        f = random_formula(depth, leaves, atoms, seed)
        for mode in ("plain", "augmented"):
            scoped = _RecordingOracle()
            verdict = decide(f, mode, oracle=scoped, trace=True)
            reference = _RecordingOracle(scoped=False)
            expected = decide(f, mode, oracle=reference, trace=True)
            _assert_same_questions(scoped, reference)
            assert verdict.trace == expected.trace
            assert verdict.result is expected.result
            asked += len(scoped.queries)
    assert asked > 10 * len(seeds)


def test_wide_flattening_builds_no_scope_table():
    # Vocabulary: x0..x{n-1}, p, q and _k1.
    limit = propsat._TABLE_MAX_SYMBOLS
    for n, expect_table in ((limit - 3, True), (limit - 2, False)):
        f = parse(" & ".join(f"x{i}" for i in range(n)) + " & ~Kh(p, q)")
        oracle = _RecordingOracle()
        assert decide(f, oracle=oracle).result is Result.SAT
        assert oracle.queries
        assert all(from_table is expect_table for _, _, from_table in oracle.queries), n


# Inputs of random_formula(4, 10, pqrstu) whose flattenings have 11 or 12
# symbols, above the table cutoff.
_WIDE_SEEDS = (3, 6, 8, 10, 11, 16, 21, 28, 32, 47, 53)


@pytest.mark.parametrize("seed", _WIDE_SEEDS)
def test_wide_vocabularies_answer_alike_on_both_paths(seed, monkeypatch):
    f = random_formula(4, 10, ("p", "q", "r", "s", "t", "u"), seed)
    formula_run = _RecordingOracle()
    expected = decide(f, oracle=formula_run, trace=True)
    monkeypatch.setattr(propsat, "_TABLE_MAX_SYMBOLS", 12)
    table_run = _RecordingOracle()
    verdict = decide(f, oracle=table_run, trace=True)
    assert formula_run.queries
    _assert_same_questions(table_run, formula_run)
    assert verdict.result is expected.result
    assert verdict.trace == expected.trace
    assert (verdict.enumeration_calls, verdict.certificate_calls) == (
        expected.enumeration_calls,
        expected.certificate_calls,
    )
    assert verdict.certificate.dump() == expected.certificate.dump()


_SUITES_S_M = ((2, 2, ("p", "q"), range(150)), (3, 3, ("p", "q", "r"), range(100)))


def test_decide_builds_one_truth_table_per_call(monkeypatch):
    built = []

    def counting_truth_masks(atoms):
        built.append(tuple(atoms))
        return semantics.truth_masks(atoms)

    monkeypatch.setattr(propsat, "truth_masks", counting_truth_masks)
    calls = 0
    for depth, leaves, atoms, seeds in _SUITES_S_M:
        for seed in seeds:
            f = random_formula(depth, leaves, atoms, seed)
            for mode in ("plain", "augmented"):
                built.clear()
                verdict = decide(f, mode)
                phi0, defs = verdict.flattening.phi0, verdict.flattening.defs
                vocabulary = phi0.atoms.union(*(leaf.atoms for _, leaf in defs))
                if len(vocabulary) <= propsat._TABLE_MAX_SYMBOLS:
                    assert built == [tuple(sorted(vocabulary))], (seed, mode)
                    calls += 1
    assert calls == 2 * 250


# Ten definitions over p and q, so _k10 sorts before _k2 by name and the
# vocabulary (12 symbols) is above the table cutoff; it tries four guesses.
_TEN_DEFINITIONS = parse(
    "(Kh(p, q) | Kh(q, p) | Kh(p, ~q) | Kh(~p, q) | Kh(p & q, ~p))"
    " & ~(Kh(q, p | q) & Kh(~q, p) & Kh(p | q, ~q) & Kh(~p, ~q) & Kh(q & ~p, p))"
)


def test_guesses_are_a_prefix_of_the_brute_force_order():
    # Every assignment of the definition atoms in definition order, True
    # first, kept where DPLL finds the skeleton satisfiable with it.
    inputs = [
        random_formula(depth, leaves, atoms, seed)
        for depth, leaves, atoms, seeds in _SUITES_S_M
        for seed in seeds
    ]
    inputs += [_TEN_DEFINITIONS, random_formula(4, 10, ("p", "q", "r", "s", "t", "u"), 21)]
    for f in inputs:
        for mode in ("plain", "augmented"):
            verdict = decide(f, mode, trace=True)
            flattening = verdict.flattening
            proj = [k.name for k, _ in flattening.defs]
            expected = projections_by_dpll(flattening.phi0, proj)[0]
            tried = [record.k_assignment for record in verdict.trace]
            assert tried == expected[: len(tried)], (render(f), mode)
    # The last input, XL seed 21, asks per query (Members), as the ten
    # definitions do.
    vocabulary = flattening.phi0.atoms.union(*(leaf.atoms for _, leaf in flattening.defs))
    assert len(vocabulary) > propsat._TABLE_MAX_SYMBOLS
    assert len(decide(_TEN_DEFINITIONS, trace=True).trace) == 4


_SUITES_S_M_XL = (
    (2, 2, ("p", "q"), range(300)),
    (3, 3, ("p", "q", "r"), range(300)),
    (4, 10, ("p", "q", "r", "s", "t", "u"), range(60)),
)


def test_enumeration_queries_stay_within_two_per_definition_per_guess():
    for depth, leaves, atoms, seeds in _SUITES_S_M_XL:
        for seed in seeds:
            f = random_formula(depth, leaves, atoms, seed)
            for mode in ("plain", "augmented"):
                verdict = decide(f, mode)
                bound = verdict.guesses_tried * (2 * len(verdict.flattening.defs) + 1)
                assert verdict.enumeration_calls <= max(1, bound), (depth, seed, mode)


def test_decide_agrees_with_bounded_search_smoke():
    bounds = SearchBounds(random_trials=40)
    for seed in range(80):
        f = random_formula(2, 2, ("p", "q"), seed)
        v = decide(f)
        if bounded_sat_search(f, bounds) is not None:
            assert v.result is Result.SAT, render(f)
        if v.result is Result.SAT:
            assert verify_certificate(v.certificate, f), render(f)


def test_nested_definitions_rescued_by_atom_pinning_certificate():
    # The inner operator is valid, so after substitution the outer
    # precondition denotes all ~p states; the plain pair's product action
    # only covers _k1 & ~p states, so its certificate fails verification.
    # Rebuilding from the atom-pinning pair forces _k1 true everywhere and
    # the certificate then satisfies the original formula.
    f = parse("Kh(~(Kh(p, p) -> p), q)")
    v = decide(f, trace=True)
    assert v.result is Result.SAT
    assert v.guesses_tried == 1
    record = v.trace[0]
    assert record.compatible
    assert record.certificate_verified
    assert record.rescued
    assert verify_certificate(v.certificate, f)
    assert v.certificate.model.val["_k1"] == (1 << len(v.certificate.model.states)) - 1


def test_decide_leaves_no_reference_cycles():
    # The model checker's self-calling walker is emptied after each call,
    # and flatten keeps its result on no input that is its own phi0, so a
    # differential check (plain, augmented, then the falsifier) leaves
    # nothing for the cycle collector, propositional inputs included.  The
    # falsifier's first call builds its cached witness tables: warm it first.
    bounds = SearchBounds(max_states=2, random_trials=20)
    bounded_sat_search(parse("p & ~p"), bounds)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        # The generator's own closure is emptied too: the inputs are made here.
        texts = [render(random_formula(3, 4, ("p", "q", "r"), seed)) for seed in range(50)]
        texts += [render(random_formula(2, 2, ("p", "q"), seed)) for seed in range(50)]
        texts += [render(random_formula(0, 0, ("p", "q"), seed)) for seed in range(20)]
        for text in texts:
            f = parse(text)
            decide(f)
            decide(f, "augmented")
            bounded_sat_search(f, bounds)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
