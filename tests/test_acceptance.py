"""Acceptance suite: one test per criterion, one summary line each.

Each test measures its own wall time against the stated budget and prints a
single PASS/FAIL line through the terminal-summary hook in conftest.
"""

from __future__ import annotations

import itertools
import json
import os
import time

import pytest

from knowhow.certificate import verify_certificate
from knowhow.formula import (
    And,
    Atom,
    Bottom,
    Kh,
    Not,
    Or,
    Univ,
    kh_occurrences,
    modal_depth,
    parse,
)
from knowhow.khsat import (
    NegativeSpec,
    PositiveSpec,
    Result,
    compatible,
    composition_closure,
    decide,
    global_indices,
    per_guess_call_bound,
)
from knowhow.normalform import flatten
from knowhow.oracle import SearchBounds, bounded_sat_search, random_formula, random_lts
from knowhow.propsat import is_sat
from knowhow.semantics import (
    Lts,
    eval_formula,
    has_witness_plan,
    make_lts,
    plan_image,
    strongly_executable,
)
from tests.conftest import report_criterion
from tests.test_propsat import eval_prop

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "artifacts")


def four_state() -> Lts:
    return make_lts(
        ["s", "t", "v", "u"],
        {"s": ["p"], "t": ["r"], "v": ["r"], "u": ["q"]},
        {"a": [("s", "t"), ("s", "v")], "b": [("t", "u")]},
    )


def test_criterion_01_strong_executability_goldens():
    started = time.perf_counter()
    m = four_state()
    every = (1 << 4) - 1
    s_only = m.state_mask(["s"])
    ok = (
        strongly_executable(m, ()) == every
        and strongly_executable(m, ("a",)) == s_only
        and strongly_executable(m, ("a", "b")) == 0
        and plan_image(m, ("a", "b"), s_only) == m.state_mask(["u"])
    )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert report_criterion(
        1, ok, f"strong-executability and image goldens ({elapsed:.3f}s)"
    )


def test_criterion_02_evaluation_and_witness_goldens():
    started = time.perf_counter()
    m = four_state()
    every = (1 << 4) - 1
    truth_pr = eval_formula(m, parse("Kh(p, r)"))
    witness = has_witness_plan(
        m, eval_formula(m, Atom("p")), eval_formula(m, Atom("r"))
    )
    truth_pq = eval_formula(m, parse("Kh(p, q)"))
    ok = truth_pr == every and witness == ("a",) and truth_pq == 0
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert report_criterion(
        2, ok, f"evaluation truth sets and synthesized witness ({elapsed:.3f}s)"
    )


def test_criterion_03_forced_indices_golden():
    started = time.perf_counter()
    p = PositiveSpec(((Atom("p"), Bottom()), (Atom("q"), Atom("p"))))
    indices = global_indices(p)
    found, assignment = is_sat([Not(p.pre(k)) for k in sorted(indices)])
    ok = (
        sorted(indices) == [1, 2]
        and found
        and assignment is not None
        and eval_prop(parse("~p & ~q"), assignment)
    )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert report_criterion(
        3, ok, f"context fixpoint indices and witness assignment ({elapsed:.3f}s)"
    )


def test_criterion_04_composition_closure_golden():
    started = time.perf_counter()
    p = PositiveSpec(
        (
            (parse("p"), parse("p & q")),
            (parse("q"), parse("r")),
            (parse("r | s"), parse("t")),
        )
    )
    closure = composition_closure(p, frozenset())
    expected = {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}
    ok = closure == frozenset(expected)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert report_criterion(4, ok, f"composition closure exact set ({elapsed:.3f}s)")


def test_criterion_05_end_to_end_example():
    started = time.perf_counter()
    f = parse("Kh(p & q, r & t) | Kh(p, r)")
    verdict = decide(f)
    sat_ok = verdict.result is Result.SAT and verdict.partition is not None
    cert_ok = verdict.certificate is not None and verify_certificate(
        verdict.certificate, f
    )

    # The flattened formula is _k1 | _k2.  The mixed guess _k1=T, _k2=F keeps
    # Kh(p&q, r&t) and denies Kh(p, r) and Kh(_k1 | _k2, false).
    phi0 = Or(Atom("_k1"), Atom("_k2"))
    mixed_pair_compatible = compatible(
        PositiveSpec(((parse("p & q"), parse("r & t")),)),
        NegativeSpec(((parse("p"), parse("r")), (phi0, Bottom()))),
    )
    # Witness for the mixed pair: the only p&q state reaches r&t by `a`, the
    # p state s1 is not r and has no successor, and _k1 holds everywhere.
    witness = make_lts(
        ["s1", "s2", "s3"],
        {"s1": ["p", "_k1"], "s2": ["p", "q", "_k1"], "s3": ["r", "t", "_k1"]},
        {"a": [("s2", "s3")]},
    )
    mixed_pair = And(
        And(parse("Kh(p & q, r & t)"), Not(parse("Kh(p, r)"))),
        Not(Kh(phi0, Bottom())),
    )
    witness_ok = eval_formula(witness, mixed_pair) == witness.all_states
    both_positive_compatible = compatible(
        PositiveSpec(((parse("p & q"), parse("r & t")), (parse("p"), parse("r")))),
        NegativeSpec(((phi0, Bottom()),)),
    )
    elapsed = time.perf_counter() - started
    ok = (
        sat_ok
        and mixed_pair_compatible
        and witness_ok
        and both_positive_compatible
        and cert_ok
        and elapsed < 1.0
    )
    detail = (
        f"SAT={sat_ok} mixed-guess-compatible={mixed_pair_compatible} "
        f"witness-model={witness_ok} "
        f"positive-guess-compatible={both_positive_compatible} "
        f"certificate-verifies={cert_ok} ({elapsed:.3f}s)"
    )
    assert report_criterion(5, ok, detail)


@pytest.fixture(scope="module")
def thousand_suite():
    started = time.perf_counter()
    suite = []
    for seed in range(1000):
        f = random_formula(3, 3, ("p", "q", "r"), seed)
        suite.append((f, decide(f, trace=True)))
    return suite, time.perf_counter() - started


def test_criterion_06_per_guess_call_bound(thousand_suite):
    suite, build_elapsed = thousand_suite
    started = time.perf_counter()
    violations = 0
    guesses = 0
    for _, verdict in suite:
        for record in verdict.trace or ():
            guesses += 1
            if record.oracle_calls > per_guess_call_bound(record.n, record.m):
                violations += 1
    elapsed = build_elapsed + (time.perf_counter() - started)
    ok = violations == 0 and elapsed < 120.0
    assert report_criterion(
        6,
        ok,
        f"{guesses} guesses across 1000 formulas, {violations} bound violations "
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_certificate_soundness(thousand_suite):
    suite, build_elapsed = thousand_suite
    started = time.perf_counter()
    sat_count = 0
    failures = 0
    for f, verdict in suite:
        if verdict.result is Result.SAT:
            sat_count += 1
            if verdict.certificate is None or not verify_certificate(
                verdict.certificate, f
            ):
                failures += 1
    elapsed = build_elapsed + (time.perf_counter() - started)
    ok = failures == 0 and sat_count > 0 and elapsed < 300.0
    assert report_criterion(
        7,
        ok,
        f"{sat_count} SAT verdicts, {failures} unverified certificates "
        f"({elapsed:.1f}s)",
    )


def test_criterion_08_oracle_falsification():
    started = time.perf_counter()
    violations = []
    disagreements = []
    for seed in range(500):
        f = random_formula(2, 2, ("p", "q"), seed)
        plain = decide(f)
        augmented = decide(f, mode="augmented")
        if plain.result is not augmented.result:
            disagreements.append(
                {"seed": seed, "plain": plain.result.value,
                 "augmented": augmented.result.value}
            )
        if plain.result is Result.UNSAT:
            model = bounded_sat_search(
                f, SearchBounds(random_trials=200, seed=seed)
            )
            if model is not None:
                violations.append(seed)
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    with open(
        os.path.join(ARTIFACT_DIR, "mode_disagreements.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(disagreements, handle, indent=2)
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 600.0
    assert report_criterion(
        8,
        ok,
        f"500 formulas, {len(violations)} missed-model violations, "
        f"{len(disagreements)} mode disagreements (artifact) ({elapsed:.1f}s)",
    )


def test_criterion_09_semantic_laws():
    started = time.perf_counter()
    atoms = ("p", "q", "r")
    violations = 0
    checks = 0
    for seed in range(1000):
        m = random_lts(
            1 + seed % 5,
            seed % 4,
            atoms[: 1 + seed % 3],
            0.2 + 0.2 * (seed % 3),
            seed,
        )
        every = (1 << len(m.states)) - 1
        for j in range(25):
            base = seed * 1000 + j * 17
            a = random_formula(0, 0, atoms, base)
            b = random_formula(0, 0, atoms, base + 1)
            c = random_formula(0, 0, atoms, base + 2)
            d = random_formula(0, 0, atoms, base + 3)

            # Empty-goal law: with an unachievable goal, the statement holds
            # exactly when the precondition holds nowhere.
            goal = And(a, Not(a))
            lhs = eval_formula(m, Kh(b, goal)) == every
            rhs = eval_formula(m, Not(b)) == every
            checks += 1
            violations += lhs != rhs

            # Universal modality: holds iff the operand holds at every state.
            checks += 1
            au = eval_formula(m, Univ(c))
            violations += au != (every if eval_formula(m, c) == every else 0)

            # Precondition weakening / postcondition strengthening.
            checks += 1
            wide = eval_formula(m, Kh(a, b))
            narrow = eval_formula(m, Kh(And(a, c), Or(b, d)))
            violations += bool(wide & ~narrow)

            # Composition through an intermediate condition.
            checks += 1
            joined = eval_formula(m, Kh(c, a)) & eval_formula(m, Kh(Or(a, b), d))
            violations += bool(joined & ~eval_formula(m, Kh(c, d)))
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 120.0
    assert report_criterion(
        9,
        ok,
        f"{checks} law checks on 1000 models, {violations} violations "
        f"({elapsed:.1f}s)",
    )


def _extend_with_definition_atoms(model: Lts, defs) -> Lts:
    """Label every state with each definition atom per its global truth."""
    current = model
    for k, leaf in defs:
        mask = eval_formula(current, leaf)
        props = {
            s: [name for name, bits in current.val.items() if bits >> i & 1]
            + ([k.name] if mask >> i & 1 else [])
            for i, s in enumerate(current.states)
        }
        rel = {
            action: [(current.states[x], current.states[y]) for x, y in pairs]
            for action, pairs in current.rel.items()
        }
        current = make_lts(list(current.states), props, rel)
    return current


def test_criterion_10_flatten_contract():
    started = time.perf_counter()
    contract_violations = 0
    equisat_violations = 0
    checked_equisat = 0
    for seed in range(1000):
        f = random_formula(3, 3, ("p", "q", "r"), seed)
        result = flatten(f)
        if modal_depth(result.phi0) != 0:
            contract_violations += 1
        if any(modal_depth(leaf) != 1 for _, leaf in result.defs):
            contract_violations += 1
        if len(result.defs) > kh_occurrences(f):
            contract_violations += 1
        if flatten(result.phi0, allow_reserved=True).defs != ():
            contract_violations += 1
        if len(result.defs) <= 2:
            model = bounded_sat_search(f, SearchBounds(random_trials=0, seed=seed))
            if model is not None:
                checked_equisat += 1
                extended = _extend_with_definition_atoms(model, result.defs)
                joined = And(result.phi0, result.definitions())
                if eval_formula(extended, joined) == 0:
                    equisat_violations += 1
    elapsed = time.perf_counter() - started
    ok = contract_violations == 0 and equisat_violations == 0 and elapsed < 180.0
    assert report_criterion(
        10,
        ok,
        f"1000 flattenings, {contract_violations} contract violations; "
        f"{checked_equisat} equisat checks, {equisat_violations} violations "
        f"({elapsed:.1f}s)",
    )


def test_criterion_11_propositional_oracle_equivalence():
    started = time.perf_counter()
    symbols = ["p", "q", "r", "t"]
    mismatches = 0
    for seed in range(5000):
        f = random_formula(0, 0, tuple(symbols), seed)
        expected = any(
            eval_prop(f, dict(zip(symbols, bits)))
            for bits in itertools.product([False, True], repeat=4)
        )
        if is_sat([f])[0] != expected:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    assert report_criterion(
        11,
        ok,
        f"5000 propositional formulas vs 16-row tables, {mismatches} mismatches "
        f"({elapsed:.1f}s)",
    )
