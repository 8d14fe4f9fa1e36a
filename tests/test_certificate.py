"""Tests for certificate construction and verification."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import reduce

import pytest

from knowhow import certificate, khsat, propsat
from knowhow.certificate import build_model, verify_certificate
from knowhow.formula import And, Atom, Bottom, Not, Or, Top, parse
from knowhow.khsat import (
    NegativeSpec,
    PositiveSpec,
    Result,
    compatible,
    decide,
    global_indices,
)
from knowhow.oracle import random_formula
from knowhow.propsat import SatOracle
from knowhow.semantics import (
    eval_formula,
    load_model,
    plan_image,
    strongly_executable,
)

from tests.test_khsat import _suite
from tests.test_semantics import truth_table


def pos(*pairs) -> PositiveSpec:
    return PositiveSpec(tuple((parse(a), parse(b)) for a, b in pairs))


def neg(*pairs) -> NegativeSpec:
    return NegativeSpec(tuple((parse(a), parse(b)) for a, b in pairs))


def pair_atoms(p, q, *more):
    """The sorted atoms of the pair's sides and of the formulas ``more``:
    the scope a check of the pair outside ``decide`` opens."""
    sides = [side for conjunct in p.conjuncts + q.conjuncts for side in conjunct]
    return sorted(set().union(*(f.atoms for f in sides + [f for f in more if f is not None])))


@contextmanager
def scoped(p, q, *more):
    """A fresh oracle inside a scope over the pair's atoms."""
    oracle = SatOracle()
    with oracle.scope(pair_atoms(p, q, *more)):
        yield oracle


def check(p, q, oracle):
    """The pair's guess check as ``decide`` runs it, inside ``oracle``'s
    scope: its context indices and the witness places of the queries it
    satisfied."""
    with oracle.witnesses() as rows:
        indices = global_indices(p, oracle)
        compatible(p, q, oracle, indices)
    return indices, rows


def build(p, q, **kwargs):
    with scoped(p, q, kwargs.get("witness_pre")) as oracle:
        return build_model(p, *check(p, q, oracle), oracle=oracle, **kwargs)


def row_valuations(c, atoms):
    """Each state's valuation of ``atoms``, in state order."""
    return [
        {a: bool(c.model.val.get(a, 0) >> i & 1) for a in atoms}
        for i in range(len(c.model.states))
    ]


# ---------------------------------------------------------------------------
# Pinned constructions


def test_two_action_product_model():
    # Both positive conjuncts survive: the model has one state per distinct
    # witness row of the check (6 of the 64 valuations of the six atoms) and
    # each conjunct gets one product-relation action.
    p = pos(("p & q", "r & t"), ("p", "r"))
    q = NegativeSpec(((Or(Atom("_k1"), Atom("_k2")), Bottom()),))
    c = build(p, q)
    assert len(c.model.states) == 6
    assert c.active_actions == ("a1", "a2")
    all_states = (1 << 6) - 1
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
    # With nothing to realize, the model is the check's two witness rows (the
    # context's, all false, and the denial's escape p & ~q) with no
    # relations; the denial holds because the empty plan is the only
    # executable one and p-states are not all q-states.
    q = neg(("p", "q"))
    c = build(PositiveSpec(()), q)
    assert row_valuations(c, "pq") == [{"p": False, "q": False}, {"p": True, "q": False}]
    assert c.model.rel == {}
    assert c.active_actions == ()
    assert eval_formula(c.model, parse("~Kh(p, q)")) == 0b11


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


def test_wide_pairs_build_without_an_atom_cap():
    # 40 atoms, far past any truth table: one state per distinct witness row.
    p = pos(*((f"x{i:02}", f"x{i:02}") for i in range(40)))
    c = build(p, NegativeSpec(()))
    assert len(c.model.states) <= 2 + 2 * p.n + p.n**2
    assert len(c.active_actions) == 40
    assert verify_certificate(c, parse(" & ".join(f"Kh(x{i:02}, x{i:02})" for i in range(40))))


def test_states_follow_the_oracle_enumeration_order():
    # States are the distinct witness rows of the check that lie in the
    # context, in ascending truth-table order (first sorted atom most
    # significant, False first): the order the oracle's lowest-row
    # witnesses and DPLL's first models follow, so state numbering (and
    # every dumped certificate) does not depend on the order of the queries.
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
        ordered_atoms = pair_atoms(p, q)
        table = truth_table(ordered_atoms)
        row_of = {
            frozenset(a for a in ordered_atoms if table.val[a] >> r & 1): r
            for r in range(len(table.states))
        }
        width = len(ordered_atoms)
        with scoped(p, q) as oracle:
            indices, rows = check(p, q, oracle)
            constrained += bool(indices)
            context = reduce(And, [Not(p.pre(k)) for k in sorted(indices)], Top())
            context = eval_formula(table, context)
            # A place's first atom is its most significant bit.
            valuations = [
                frozenset(a for j, a in enumerate(ordered_atoms) if row >> (width - 1 - j) & 1)
                for row in rows
            ]
            kept = sorted({row_of[valuation] for valuation in valuations} & set(_bits(context)))
            expected = [{a: bool(table.val[a] >> r & 1) for a in ordered_atoms} for r in kept]
            if not expected:  # an unsatisfiable context leaves no state to build
                with pytest.raises(ValueError, match="admits no state"):
                    build_model(p, indices, rows, oracle=oracle)
                continue
            c = build_model(p, indices, rows, oracle=oracle)
        assert row_valuations(c, ordered_atoms) == expected, seed
    assert constrained >= 20


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


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
        with scoped(p, q) as oracle:
            indices, rows = check(p, q, oracle)
            try:
                c = build_model(p, indices, rows, oracle=oracle)
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
    # Over its eleven atoms the full context grid had 2048 states, and its
    # dump took about 27 s and 248 MB; the witness rows give 9 states.
    f = random_formula(4, 10, tuple("pqrstu"), 8)
    start = time.perf_counter()
    verdict = decide(f)
    text = verdict.certificate.dump()
    elapsed = time.perf_counter() - start
    assert verdict.result is Result.SAT
    assert len(verdict.certificate.model.states) <= 16
    assert len(text) < 4000
    assert verify_certificate(verdict.certificate, f)
    assert elapsed < 3.0


def test_context_indices_are_inert_in_the_model():
    # For every index forced into the context, the postcondition holds
    # nowhere and the negated precondition holds everywhere.
    p, q = pos(("p", "false"), ("q", "p"), ("r", "r")), NegativeSpec(())
    with scoped(p, q) as oracle:
        indices, rows = check(p, q, oracle)
        c = build_model(p, indices, rows, oracle=oracle)
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


_XL = (4, 10, ("p", "q", "r", "s", "t", "u"), range(60))


def recording_builds(monkeypatch, *, truth=False):
    """Records (p, q, indices, rows, witness_pre, certificate) for every
    certificate ``decide`` builds, ``q`` from the guess check that builds
    it; with ``truth``, also the truth sets of the pair's sides on the rows,
    before the certificate."""
    built, checked = [], []
    original, check_guess = certificate.build_model, khsat._check_guess

    def recording_check(p, q, *args):
        checked.append(q)
        return check_guess(p, q, *args)

    def recording_build(p, indices, rows, **kwargs):
        c = original(p, indices, rows, **kwargs)
        q = checked[-1]
        record = (p, q, indices, rows, kwargs["witness_pre"], c)
        if truth:
            sides = [side for conjunct in p.conjuncts + q.conjuncts for side in conjunct]
            record = (*record[:-1], kwargs["oracle"].row_truth_sets(sides, rows), c)
        built.append(record)
        return c

    monkeypatch.setattr(khsat, "_check_guess", recording_check)
    monkeypatch.setattr(certificate, "build_model", recording_build)
    return built


@pytest.mark.parametrize(
    "depth, leaves, atoms, seeds",
    [(2, 2, ("p", "q"), range(150)), (3, 3, ("p", "q", "r"), range(100)), _XL],
)
def test_decide_certificates_equal_standalone_builds(depth, leaves, atoms, seeds, monkeypatch):
    # Each guess checked inside decide on its table scope (the cutoff is
    # raised to 14 so that every XL vocabulary gets a table), and the same
    # pair checked on a fresh oracle whose scope over the same atoms asks
    # per query (DPLL), collect the same witness places, read the same truth
    # sets of the sides at them and build byte-identical certificates.
    built = recording_builds(monkeypatch, truth=True)
    certified = 0
    for seed in seeds:
        f = random_formula(depth, leaves, atoms, seed)
        for mode in ("plain", "augmented"):
            built.clear()
            with monkeypatch.context() as table_path:
                table_path.setattr(propsat, "_TABLE_MAX_SYMBOLS", 14)
                verdict = decide(f, mode)
            if verdict.certificate is not None:
                assert verdict.certificate is built[-1][-1]
            for p, q, indices, rows, witness_pre, truth, c in built:
                oracle = SatOracle()
                with monkeypatch.context() as per_query:
                    per_query.setattr(propsat, "_TABLE_MAX_SYMBOLS", -1)
                    # decide's pairs hold the numbers of its flattening's structures.
                    flattening = verdict.flattening
                    with oracle.scope(flattening.vocabulary, flattening.numbering.structures):
                        assert oracle._scope.table is None
                        assert check(p, q, oracle) == (indices, rows), (seed, mode)
                        sides = [side for pair in p.conjuncts + q.conjuncts for side in pair]
                        assert oracle.row_truth_sets(sides, rows) == truth, (seed, mode)
                        alone = build_model(p, indices, rows, witness_pre=witness_pre, oracle=oracle)
                assert alone.dump() == c.dump(), (seed, mode)
                certified += 1
    assert certified >= len(seeds)


@pytest.mark.parametrize("suite", ["S", "M", "L", "XL", "XXL", "M&M&M"])
def test_certificates_take_their_atoms_from_the_vocabulary(suite, monkeypatch):
    # decide's scope is the flattening's vocabulary, which is exactly the
    # atoms of phi0 and of the definitions' sides; each pair mentions them
    # all, so a certificate's valuation over the scope's atoms needs no
    # projection onto the pair's.
    built = recording_builds(monkeypatch)
    for f in _suite(suite):
        for mode in ("plain", "augmented"):
            built.clear()
            verdict = decide(f, mode)
            flattening = verdict.flattening
            sides = [side for _, leaf in flattening.defs for side in (leaf.pre, leaf.post)]
            mentioned = set().union(flattening.phi0.atoms, *(side.atoms for side in sides))
            assert set(flattening.vocabulary) == mentioned, (suite, mode)
            assert built or verdict.result is Result.UNSAT
            for *_, c in built:
                assert c.model.val.keys() <= mentioned, (suite, mode)


def test_decide_certificates_read_the_scope_masks(monkeypatch):
    # Inside decide every condition of a certificate is read off the scope's
    # table at the witness rows' places, twice per build (the forced
    # preconditions, then the rest); none is evaluated on a grid of the rows.
    def on_a_grid(atoms, rows):
        pytest.fail(f"evaluated on a grid over {sorted(atoms)}")

    monkeypatch.setattr(propsat._Table, "grid", on_a_grid)
    reads = []
    read = SatOracle.row_truth_sets

    def counting_read(oracle, fs, rows):
        reads.append(len(fs))
        return read(oracle, fs, rows)

    monkeypatch.setattr(SatOracle, "row_truth_sets", counting_read)
    built = recording_builds(monkeypatch)
    for seed in range(100):
        decide(random_formula(3, 3, ("p", "q", "r"), seed))
    assert len(built) >= 100 and len(reads) == 2 * len(built)
    assert sum(reads) > 4 * len(built)


@pytest.mark.parametrize(
    "depth, leaves, atoms, seeds",
    [(2, 2, ("p", "q"), range(300)), (3, 3, ("p", "q", "r"), range(300)), _XL],
)
def test_certificates_are_polynomial_in_the_pair(depth, leaves, atoms, seeds, monkeypatch):
    # At most one state per satisfied query of the check: the context, the
    # existential denial, n postconditions in context, n realizable
    # preconditions, n * n closure non-edges, m denials and 2 * m * n (2b)
    # questions.  The full context grid exceeded this bound up to 8.7 times.
    built = recording_builds(monkeypatch)
    for seed in seeds:
        f = random_formula(depth, leaves, atoms, seed)
        for mode in ("plain", "augmented"):
            built.clear()
            verdict = decide(f, mode, trace=True)
            for p, q, _, _, _, c in built:
                n, m = p.n, q.m
                assert len(c.model.states) <= 2 + 2 * n + n * n + m + 2 * m * n, (seed, mode)
            if mode == "augmented":
                for record in verdict.trace:
                    assert record.certificate_verified is (True if record.compatible else None)
