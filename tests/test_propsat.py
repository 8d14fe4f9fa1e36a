"""Propositional oracle tests, anchored on an exhaustive truth-table oracle."""

from __future__ import annotations

import contextlib
import itertools
import random
import stat
import subprocess
import sys
from functools import reduce
from operator import and_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowhow import formula, propsat
from knowhow.cli import EXIT_ERROR, main
from knowhow.formula import (
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    Kh,
    Not,
    Or,
    Top,
    parse,
)
from knowhow.khsat import decide
from knowhow.propsat import (
    Members,
    SatOracle,
    SolverError,
    _cnf_is_sat,
    enumerate_models,
    export_dimacs,
    is_sat,
    to_cnf,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def eval_prop(f, assignment) -> bool:
    """Reference evaluator: truth value of a modality-free formula, by cases
    on the full syntax; absent atoms read as False."""
    if isinstance(f, Atom):
        return bool(assignment.get(f.name, False))
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not eval_prop(f.f, assignment)
    if isinstance(f, Or):
        return eval_prop(f.left, assignment) or eval_prop(f.right, assignment)
    if isinstance(f, And):
        return eval_prop(f.left, assignment) and eval_prop(f.right, assignment)
    if isinstance(f, Implies):
        return (not eval_prop(f.left, assignment)) or eval_prop(f.right, assignment)
    if isinstance(f, Iff):
        return eval_prop(f.left, assignment) == eval_prop(f.right, assignment)
    raise ValueError(f"not a propositional formula: {f!r}")


def truth_table_sat(fs, symbols=None) -> bool:
    """Independent oracle: exhaustive evaluation over all assignments."""
    if symbols is None:
        symbols = sorted(set().union(*(f.atoms for f in fs)) if fs else set())
    for bits in itertools.product([False, True], repeat=len(symbols)):
        assignment = dict(zip(symbols, bits))
        if all(eval_prop(f, assignment) for f in fs):
            return True
    return False


def truth_table_projections(f, proj) -> set[tuple[bool, ...]]:
    symbols = sorted(f.atoms | set(proj))
    found = set()
    for bits in itertools.product([False, True], repeat=len(symbols)):
        assignment = dict(zip(symbols, bits))
        if eval_prop(f, assignment):
            found.add(tuple(assignment[a] for a in sorted(proj)))
    return found


def projections_by_dpll(f, proj) -> tuple[list[dict[str, bool]], int]:
    """Reference enumeration: every assignment of the ``proj`` symbols in the
    order given, True first, kept when DPLL finds ``f`` satisfiable with
    it; and the queries a depth-first descent over them asks, namely the
    root and both branches of every non-empty node above the leaves."""
    kept = [
        values
        for values in itertools.product([True, False], repeat=len(proj))
        if _cnf_is_sat([f, *(Atom(a) if v else Not(Atom(a)) for a, v in zip(proj, values))])[0]
    ]
    prefixes = {values[:i] for values in kept for i in range(len(proj))}
    return [dict(zip(proj, values)) for values in kept], 1 + 2 * len(prefixes)


def random_prop_formula(rng: random.Random, atoms: list[str], depth: int):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return Top()
        if roll < 0.1:
            return Bottom()
        return Atom(rng.choice(atoms))
    op = rng.choice(["not", "or", "and", "implies", "iff"])
    if op == "not":
        return Not(random_prop_formula(rng, atoms, depth - 1))
    left = random_prop_formula(rng, atoms, depth - 1)
    right = random_prop_formula(rng, atoms, depth - 1)
    ctor = {"or": Or, "and": And, "implies": Implies, "iff": Iff}[op]
    return ctor(left, right)


# ---------------------------------------------------------------------------
# to_cnf


def test_to_cnf_single_atom():
    instance = to_cnf([P])
    assert instance.var_count == 1
    assert instance.clauses == ((1,),)
    assert instance.var_map == {"p": 1}


def test_to_cnf_contradicting_units():
    instance = to_cnf([P, Not(P)])
    assert instance.clauses == ((1,), (-1,))
    assert is_sat([P, Not(P)]) == (False, None)


def test_to_cnf_modus_ponens_block_unsat():
    ok, witness = is_sat([parse("p -> q"), P, Not(Q)])
    assert ok is False and witness is None


def test_to_cnf_rejects_modal_operands():
    with pytest.raises(ValueError):
        to_cnf([parse("Kh(p, q)")])


def test_to_cnf_deterministic_variable_numbering():
    instance = to_cnf([parse("q | p"), parse("r & p")])
    assert instance.var_map == {"p": 1, "q": 2, "r": 3}
    again = to_cnf([parse("q | p"), parse("r & p")])
    assert again == instance


def test_to_cnf_takes_any_depth():
    chain = parse(" | ".join(["p", "q"] * 1500))  # 2999 distinct Or nodes
    instance = to_cnf([chain, parse("~" * 5001 + "p")])
    assert instance.var_count == 2 + 2999
    assert len(instance.clauses) == 3 * 2999 + 2
    assert instance.clauses[-1] == (-1,)


# ---------------------------------------------------------------------------
# is_sat


def test_is_sat_negative_units():
    ok, witness = is_sat([Not(P), Not(Q)])
    assert ok is True
    assert witness == {"p": False, "q": False}


def test_is_sat_empty_set_convention():
    assert is_sat([]) == (True, {})


def test_is_sat_conjunction_contradiction():
    assert is_sat([And(P, Q), Not(P)])[0] is False


def test_is_sat_false_first_branching():
    ok, witness = is_sat([Or(P, Q)])
    assert ok is True
    # Lowest variable first, False branch first: p=False forces q=True.
    assert witness == {"p": False, "q": True}


def test_is_sat_constant_members():
    assert is_sat([Top()])[0] is True
    assert is_sat([Bottom()]) == (False, None)
    assert is_sat([parse("p | true"), Not(P)])[0] is True


# Members that are or contain constants; the CNF path encodes them as they
# are, with one Tseitin variable for false.
CONSTANT_QUERIES = [
    ([Top()], {}),
    ([Bottom()], None),
    ([Or(P, Top())], {"p": False}),
    ([And(P, Bottom())], None),
    ([Or(P, Top()), Not(P)], {"p": False}),
    ([Or(P, Bottom()), Not(Q)], {"p": True, "q": False}),
    ([Implies(Bottom(), P), Iff(Top(), Q)], {"p": False, "q": True}),
]


def _constant_verdicts(solver_path=None):
    for fs, witness in CONSTANT_QUERIES:
        assert is_sat(fs, solver_path=solver_path) == (witness is not None, witness), fs
        assert _cnf_is_sat(fs, solver_path) == (witness is not None, witness), fs
    for f, models in [
        (Top(), [{"p": True}, {"p": False}]),
        (Bottom(), []),
        (Or(P, Top()), [{"p": True}, {"p": False}]),
        (And(P, Bottom()), []),
        (Iff(P, Bottom()), [{"p": False}]),
    ]:
        assert enumerate_models(f, ["p"], solver_path=solver_path) == models, f


def test_constant_members_through_the_cnf_path():
    _constant_verdicts()


def test_to_cnf_encodes_false_as_a_unit_variable():
    instance = to_cnf([Or(P, Bottom())])
    assert instance.clauses == ((-2,), (-3, 1, 2), (3, -1), (3, -2), (3,))
    assert to_cnf([Top()]).clauses == ((-1,), (-1,))


def test_is_sat_agrees_with_truth_table_seeded():
    rng = random.Random(20240817)
    atoms = ["p", "q", "r", "s2"]
    for _ in range(400):
        fs = [random_prop_formula(rng, atoms, rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        expected = truth_table_sat(fs)
        got, witness = is_sat(fs)
        assert got == expected
        if got:
            assert all(eval_prop(f, witness) for f in fs)


# ---------------------------------------------------------------------------
# enumerate_models


def test_enumerate_models_disjunction():
    models = enumerate_models(Or(P, Q), ["p", "q"])
    assert models == [
        {"p": True, "q": True},
        {"p": True, "q": False},
        {"p": False, "q": True},
    ]


def test_enumerate_models_unsat():
    assert enumerate_models(And(P, Not(P)), ["p"]) == []


def test_enumerate_models_single():
    assert enumerate_models(P, ["p"]) == [{"p": True}]


def test_enumerate_models_projection_beyond_formula_atoms():
    # 'q' does not occur in the formula: it varies freely in the vocabulary.
    models = enumerate_models(P, ["p", "q"])
    assert models == [{"p": True, "q": True}, {"p": True, "q": False}]


def test_enumerate_models_empty_projection():
    assert enumerate_models(P, []) == [{}]
    assert enumerate_models(And(P, Not(P)), []) == []


def test_enumerate_models_counts_match_truth_table_seeded():
    rng = random.Random(7)
    atoms = ["p", "q", "r"]
    for _ in range(150):
        f = random_prop_formula(rng, atoms, rng.randint(0, 3))
        proj = sorted(rng.sample(atoms, rng.randint(1, 3)))
        expected = truth_table_projections(f, proj)
        got = enumerate_models(f, proj)
        assert len(got) == len(expected)
        assert {tuple(m[a] for a in proj) for m in got} == expected


# ---------------------------------------------------------------------------
# truth-table path against the Tseitin + DPLL reference


def test_table_path_matches_dpll_seeded():
    # Verdicts, witnesses, enumeration order and query counts must equal the
    # reference's, so no count or certificate depends on the path.
    rng = random.Random(5151)
    atoms = ["p", "q", "r", "s2", "t"]
    for _ in range(300):
        fs = [random_prop_formula(rng, atoms, rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
        assert is_sat(fs) == _cnf_is_sat(fs), fs
        f = random_prop_formula(rng, atoms, rng.randint(0, 4))
        proj = sorted(rng.sample(atoms + ["u"], rng.randint(0, 4)))
        got = enumerate_models(f, proj)
        expected, queries = projections_by_dpll(f, proj)
        assert got == expected, (f, proj)
        oracle = SatOracle()
        assert list(oracle.enumerate_models(f, [Atom(a) for a in proj])) == got
        assert oracle.calls == queries, (f, proj)


def test_scoped_enumeration_reads_the_scope_table_seeded(monkeypatch):
    # Inside a scope over a wider vocabulary, the same projections in the
    # order of the symbols given, with the same query count, and no new
    # table; a projection symbol outside the scope falls back to per-query
    # answers.
    rng = random.Random(6262)
    atoms = ["p", "q", "r", "s2", "t"]
    cases = []
    for _ in range(200):
        f = random_prop_formula(rng, atoms, rng.randint(0, 4))
        proj = rng.sample(atoms + ["u"], rng.randint(0, 4))
        cases.append((f, proj, *projections_by_dpll(f, proj)))
    oracle = SatOracle()
    with oracle.scope(atoms + ["u", "v"]):
        monkeypatch.setattr(propsat, "truth_masks", lambda symbols: pytest.fail("a second table"))
        for f, proj, expected, queries in cases:
            before = oracle.calls
            assert list(oracle.enumerate_models(f, [Atom(a) for a in proj])) == expected, (f, proj)
            assert oracle.calls - before == queries
    monkeypatch.undo()
    with oracle.scope(["p", "q"]):
        outside = list(oracle.enumerate_models(Or(P, Q), [P, R]))
    assert outside == enumerate_models(Or(P, Q), ["p", "r"])


def test_enumeration_asks_nothing_beyond_the_projections_taken():
    oracle = SatOracle()
    with oracle.scope(["p", "q", "r"]):
        models = oracle.enumerate_models(Or(P, Q), [P, Q, R])
        assert oracle.calls == 0  # nothing is asked before the first one
        assert next(models) == {"p": True, "q": True, "r": True}
        assert oracle.calls == 4  # the root, then one True branch per symbol
        assert next(models) == {"p": True, "q": True, "r": False}
        assert oracle.calls == 5


def test_queries_above_the_cutoff_take_the_cnf_path(monkeypatch):
    encoded = []
    original = propsat.to_cnf

    def counting_to_cnf(*args, **kwargs):
        encoded.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(propsat, "to_cnf", counting_to_cnf)
    limit = propsat._TABLE_MAX_SYMBOLS
    small = [Or(Atom(f"x{i}"), Atom(f"x{i + 1}")) for i in range(limit - 1)]
    large = small + [Not(Atom(f"x{limit}"))]
    assert is_sat(small)[0] and enumerate_models(small[0], ["x0"]) == [{"x0": True}, {"x0": False}]
    assert encoded == []
    ok, witness = is_sat(large)
    assert ok and len(witness) == limit + 1 and all(eval_prop(f, witness) for f in large)
    assert len(encoded) == 1
    conjunction = large[0]
    for f in large[1:]:
        conjunction = And(conjunction, f)
    assert enumerate_models(conjunction, ["x0"]) == [{"x0": True}, {"x0": False}]
    assert len(encoded) == 1 + 3  # one CNF per query: the root and both branches


def test_table_path_rejects_modal_operands():
    with pytest.raises(ValueError, match="modal depth 1"):
        is_sat([P, Kh(P, Q)])
    with pytest.raises(ValueError, match="modal depth 1"):
        enumerate_models(Kh(P, Q), ["p"])


# ---------------------------------------------------------------------------
# export_dimacs


def test_export_dimacs_single_unit():
    text = export_dimacs(to_cnf([P]))
    assert "p cnf 1 1" in text
    assert text.endswith("1 0\n")
    assert "c var 1 = p" in text


def test_export_dimacs_empty():
    assert "p cnf 0 0" in export_dimacs(to_cnf([]))


def test_export_dimacs_contradiction_units():
    text = export_dimacs(to_cnf([P, Not(P)]))
    lines = [line for line in text.splitlines() if not line.startswith(("c", "p"))]
    assert lines == ["1 0", "-1 0"]


# ---------------------------------------------------------------------------
# external solver contract


@pytest.fixture()
def fake_solver(tmp_path: Path) -> str:
    """A DIMACS solver built on this package's own DPLL, exercising the
    subprocess protocol (argv = [solver, cnf-file], 's'/'v' output lines).
    Each run appends one line to ``solver-runs.log`` in ``tmp_path``."""
    script = tmp_path / "fakesolver.py"
    script.write_text(
        """#!/usr/bin/env python3
import sys
sys.path.insert(0, {src!r})
from knowhow.propsat import CnfInstance, _dpll

with open({log!r}, 'a') as log:
    log.write(sys.argv[1] + '\\n')

clauses, var_count = [], 0
for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith('c'):
        continue
    if line.startswith('p cnf'):
        var_count = int(line.split()[2])
        continue
    lits = [int(tok) for tok in line.split()[:-1]]
    clauses.append(tuple(lits))
model = _dpll(var_count, clauses)
if model is None:
    print('s UNSATISFIABLE')
else:
    print('s SATISFIABLE')
    print('v ' + ' '.join(str(v if model[v - 1] else -v) for v in range(1, var_count + 1)) + ' 0')
""".format(
            src=str(Path(__file__).resolve().parent.parent / "src"),
            log=str(tmp_path / "solver-runs.log"),
        )
    )
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    wrapper = tmp_path / "fakesolver"
    wrapper.write_text(f"#!/bin/sh\nexec {sys.executable} {script} \"$@\"\n")
    wrapper.chmod(wrapper.stat().st_mode | stat.S_IEXEC)
    return str(wrapper)


def _canned_solver(tmp_path: Path, name: str, output: str) -> str:
    """A solver executable that prints ``output`` whatever the instance."""
    script = tmp_path / name
    script.write_text(f"#!/bin/sh\ncat <<'EOF'\n{output}EOF\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


@pytest.fixture()
def falsifying_solver(tmp_path: Path) -> str:
    """Claims SAT with every variable false, which falsifies ``p``."""
    return _canned_solver(tmp_path, "falsifying", "s SATISFIABLE\nv -1 0\n")


@pytest.fixture()
def verdictless_solver(tmp_path: Path) -> str:
    """Prints a comment and no 's' verdict line."""
    return _canned_solver(tmp_path, "verdictless", "c giving up\n")


def test_external_solver_round_trip(fake_solver):
    ok, witness = is_sat([Or(P, Q), Not(P)], solver_path=fake_solver)
    assert ok is True
    assert eval_prop(Or(P, Q), witness)
    assert is_sat([P, Not(P)], solver_path=fake_solver) == (False, None)


def test_external_solver_enumeration(fake_solver):
    models = enumerate_models(Or(P, Q), ["p", "q"], solver_path=fake_solver)
    assert len(models) == 3


def test_external_solver_answers_every_decide_query(fake_solver, tmp_path):
    # Small queries must not be answered from the truth table when a solver
    # is set: every counted oracle query reaches the executable.
    f = parse("Kh(p, q) & ~Kh(q, false)")
    oracle = SatOracle(solver_path=fake_solver)
    verdict = decide(f, oracle=oracle)
    assert verdict.result == decide(f).result
    runs = (tmp_path / "solver-runs.log").read_text().splitlines()
    assert oracle.calls > 0
    assert len(runs) == oracle.calls


def test_external_solver_constant_members(fake_solver):
    _constant_verdicts(fake_solver)


def test_external_solver_falsifying_model_is_an_error(falsifying_solver):
    with pytest.raises(SolverError, match="falsifies"):
        is_sat([P], solver_path=falsifying_solver)
    # The same model does satisfy ~p, so it is accepted there.
    assert is_sat([Not(P)], solver_path=falsifying_solver) == (True, {"p": False})


def test_external_solver_without_verdict_is_an_error(verdictless_solver):
    with pytest.raises(SolverError, match="verdict"):
        is_sat([P], solver_path=verdictless_solver)


def test_external_solver_timeout_is_an_error(monkeypatch):
    def expire(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", expire)
    with pytest.raises(SolverError, match="timed out"):
        is_sat([P], solver_path="/any/solver")


def test_check_reports_bad_solver_answers_as_errors(falsifying_solver, verdictless_solver, capsys):
    for solver in (falsifying_solver, verdictless_solver):
        assert main(["check", "p", "--solver", solver]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: external solver")
        assert "result:" not in captured.out


# ---------------------------------------------------------------------------
# counting facade


def ask_conjunction(oracle: SatOracle, fs) -> bool:
    """Whether the conjunction of ``fs`` is satisfiable, asked as ``decide``
    asks: the members' truth sets intersected, one query."""
    every, truth, _ = oracle.truth_sets(fs)
    return oracle.ask(reduce(and_, truth, every))


def test_oracle_counts_calls():
    oracle = SatOracle()
    ask_conjunction(oracle, [P])
    ask_conjunction(oracle, [Not(P)])
    assert oracle.calls == 2
    assert len(list(oracle.enumerate_models(Or(P, Q), [P, Q]))) == 3
    assert oracle.calls == 2 + 7  # the root, then both branches below it and below p, ~p


def test_scope_answers_from_cached_member_masks(monkeypatch):
    # The cache is keyed by identity: each formula object is evaluated once,
    # and an equal formula built anew is evaluated again.
    evaluated = []
    original = propsat.eval_core

    def counting_eval(f, *args):
        evaluated.append(f)
        return original(f, *args)

    monkeypatch.setattr(propsat, "eval_core", counting_eval)
    either, not_p, not_q = Or(P, Q), Not(P), Not(Q)
    oracle = SatOracle()
    with oracle.scope(["p", "q"]):
        assert ask_conjunction(oracle, [either, not_p]) is True
        assert ask_conjunction(oracle, [either, not_p, not_q]) is False
        assert ask_conjunction(oracle, []) is True
        assert ask_conjunction(oracle, [Or(P, Q), not_q]) is True
    assert oracle.calls == 4
    assert [id(f) for f in evaluated[:3]] == [id(either), id(not_p), id(not_q)]
    assert evaluated[3] == either and evaluated[3] is not either and len(evaluated) == 4


def test_scope_tables_read_no_node_facts(monkeypatch):
    # Evaluating a member fills neither its hash nor its atoms: a modal
    # member is rejected when the evaluation meets the modality, and an atom
    # outside the table when the evaluation reads it.
    fills = []
    fill = formula._fill
    monkeypatch.setattr(formula, "_fill", lambda *args: fills.append(args[0]) or fill(*args))
    oracle = SatOracle()
    with oracle.scope(["p", "q"]):
        members = [Or(P, Not(Q)), Iff(P, Top()), Implies(Q, Bottom())]
        every, truth, falsity = oracle.truth_sets(members)
        assert truth == [0b1101, 0b1100, 0b0101] and every == 0b1111
        assert oracle.row_valuation([0b10, 0b01]) == {"p": 0b01, "q": 0b10}
        assert fills == []
        assert oracle.truth_sets([Or(P, R)])[1] == [Members((Or(P, R),))]  # r: per query
        fills.clear()  # the per-query member and its negation, checked modality-free
        with pytest.raises(ValueError, match="modal depth 1 operand"):
            oracle.truth_sets([Or(P, Kh(P, Q))])
    assert [type(node) for node in fills] == [Or]  # the message's depth, after the evaluation


def test_row_truth_sets_read_the_table_or_evaluate_on_the_rows_seeded(monkeypatch):
    # Rows are places over the scope's atoms.  On the scope's truth table
    # each bit is read at the row's place; on a scope that asks per query
    # the formulas are evaluated on a grid of the rows.  Both give each
    # formula's value on each row.  An atom outside the scope has no value
    # on the rows.
    rng = random.Random(1919)
    atoms, scope = ["p", "q", "r", "s2"], ["p", "q", "r", "s2", "t"]
    bits = {a: 1 << (len(scope) - 1 - j) for j, a in enumerate(scope)}
    grid_calls = []
    grid = propsat._Table.grid
    monkeypatch.setattr(
        propsat._Table, "grid", lambda bits, rows: grid_calls.append(1) or grid(bits, rows)
    )
    for cutoff, on_grid in ((len(scope), False), (len(scope) - 1, True)):
        monkeypatch.setattr(propsat, "_TABLE_MAX_SYMBOLS", cutoff)
        oracle = SatOracle()
        with oracle.scope(scope):
            for _ in range(60):
                fs = [random_prop_formula(rng, atoms, rng.randint(0, 4)) for _ in range(3)]
                rows = [rng.randrange(1 << len(scope)) for _ in range(5)]
                grid_calls.clear()
                masks = oracle.row_truth_sets(fs, rows)
                assert grid_calls == ([1] if on_grid else [])
                for f, mask in zip(fs, masks):
                    valuations = [{a: bool(row & bit) for a, bit in bits.items()} for row in rows]
                    expected = [eval_prop(f, valuation) for valuation in valuations]
                    assert [bool(mask >> i & 1) for i in range(len(rows))] == expected, f
            with pytest.raises(ValueError, match="outside the scope"):
                oracle.row_truth_sets([Or(P, Atom("u"))], rows)
        assert oracle.calls == 0


def test_scope_rejects_modal_members():
    oracle = SatOracle()
    with oracle.scope(["p", "q"]):
        for _ in range(2):  # a failed member is not cached
            with pytest.raises(ValueError, match="modal depth 1 operand"):
                ask_conjunction(oracle, [P, Kh(P, Q)])
    assert oracle.calls == 0  # reading the truth sets failed; nothing was asked


def test_scope_sends_foreign_atoms_down_the_per_query_path():
    # q is outside the table; reading it as false everywhere would make
    # the first and third queries unsatisfiable.
    oracle = SatOracle()
    with oracle.scope(["p"]):
        assert ask_conjunction(oracle, [Q]) is True
        assert ask_conjunction(oracle, [Q, Not(Q)]) is False
        assert ask_conjunction(oracle, [P, Implies(P, Q)]) is True
        assert ask_conjunction(oracle, [P, Not(P)]) is False
    assert oracle.calls == 4


def test_scope_is_restored_on_exit_and_on_error():
    oracle = SatOracle()
    with oracle.scope(["p"]):
        outer = oracle._scope
        with pytest.raises(ValueError):
            with oracle.scope(["p", "q"]):
                assert oracle._scope is not outer
                ask_conjunction(oracle, [Kh(P, Q)])
        assert oracle._scope is outer
    assert oracle._scope is None


def test_truth_sets_are_masks_in_a_table_scope():
    oracle = SatOracle()
    with oracle.scope(["p", "q"]):
        every, truth, falsity = oracle.truth_sets([P, Or(P, Q)])
        assert every == 0b1111
        assert truth == [0b1100, 0b1110]  # row 3 is p & q, row 0 is ~p & ~q
        assert falsity == [0b0011, 0b0001]
        assert oracle.ask(truth[1] & falsity[0]) is True
        assert oracle.ask(truth[0] & falsity[0]) is False
    assert oracle.calls == 2  # reading truth sets asks nothing


def test_truth_sets_are_members_outside_a_table_scope(fake_solver, tmp_path):
    # No scope; a solver's scope, which builds no table; q outside the scope.
    for oracle, atoms in ((SatOracle(), None), (SatOracle(fake_solver), ["p", "q"]), (SatOracle(), ["p"])):
        with oracle.scope(atoms) if atoms else contextlib.nullcontext():
            every, truth, falsity = oracle.truth_sets([P, Or(P, Q)])
            assert every == Members() and isinstance(every, Members)
            assert truth == [Members((P,)), Members((Or(P, Q),))]
            assert falsity == [Members((Not(P),)), Members((Not(Or(P, Q)),))]
            question = every & truth[1] & falsity[0]
            assert question == Members((Or(P, Q), Not(P)))
            assert oracle.ask(question) is True
            assert oracle.ask(truth[0] & falsity[0]) is False
        assert oracle.calls == 2
    runs = (tmp_path / "solver-runs.log").read_text().splitlines()
    assert len(runs) == 2  # the solver saw both of its questions


def test_witnesses_are_the_lowest_row_on_both_paths(monkeypatch):
    # A witness is a place over the scope's atoms (p the most significant
    # bit): on the table the lowest row of the mask; per query is_sat's
    # witness, atoms outside the query false.  Satisfied queries inside
    # witnesses() leave one, each distinct witness once; nothing else does.
    found = []
    for cutoff in (3, 2):  # the scope's table, then a scope that asks per query
        monkeypatch.setattr(propsat, "_TABLE_MAX_SYMBOLS", cutoff)
        oracle = SatOracle()
        with oracle.scope(["p", "q", "r"]):
            every, truth, falsity = oracle.truth_sets([P, Q, R])
            assert oracle.ask(truth[2])  # not collected
            with oracle.witnesses() as rows:
                p_not_q, p_not_p = truth[0] & falsity[1], truth[0] & falsity[0]
                terms = (every, p_not_q, p_not_p, truth[1] & falsity[0], every)
                assert [oracle.ask(t) for t in terms] == [True, True, False, True, True]
            assert oracle.ask(every)  # not collected either
        assert oracle.calls == 7
        found.append(rows)
    assert found[0] == found[1] == [0b000, 0b100, 0b010]
    with pytest.raises(ValueError, match="open a scope"):
        with SatOracle().witnesses():
            pass


# ---------------------------------------------------------------------------
# property tests


@st.composite
def _prop_formulas(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_prop_formula(rng, ["p", "q", "r", "s2"], rng.randint(0, 4))


@settings(max_examples=200, deadline=None)
@given(_prop_formulas())
def test_sat_matches_truth_table(f):
    assert is_sat([f])[0] == truth_table_sat([f])


@settings(max_examples=100, deadline=None)
@given(_prop_formulas(), _prop_formulas())
def test_witness_satisfies_conjunction(f, g):
    ok, witness = is_sat([f, g])
    if ok:
        assert eval_prop(f, witness) and eval_prop(g, witness)
