"""Propositional oracle tests, anchored on an exhaustive truth-table oracle."""

from __future__ import annotations

import itertools
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knowhow import propsat
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
    atoms_of,
    parse,
)
from knowhow.khsat import decide
from knowhow.propsat import (
    SatOracle,
    SolverError,
    _cnf_enumerate_models,
    _cnf_is_sat,
    enumerate_models,
    eval_prop,
    export_dimacs,
    is_sat,
    to_cnf,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def truth_table_sat(fs, symbols=None) -> bool:
    """Independent oracle: exhaustive evaluation over all assignments."""
    if symbols is None:
        symbols = sorted(set().union(*(atoms_of(f) for f in fs)) if fs else set())
    for bits in itertools.product([False, True], repeat=len(symbols)):
        assignment = dict(zip(symbols, bits))
        if all(eval_prop(f, assignment) for f in fs):
            return True
    return False


def truth_table_projections(f, proj) -> set[tuple[bool, ...]]:
    symbols = sorted(atoms_of(f) | set(proj))
    found = set()
    for bits in itertools.product([False, True], repeat=len(symbols)):
        assignment = dict(zip(symbols, bits))
        if eval_prop(f, assignment):
            found.add(tuple(assignment[a] for a in sorted(proj)))
    return found


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
        {"p": False, "q": True},
        {"p": True, "q": False},
        {"p": True, "q": True},
    ]


def test_enumerate_models_unsat():
    assert enumerate_models(And(P, Not(P)), ["p"]) == []


def test_enumerate_models_single():
    assert enumerate_models(P, ["p"]) == [{"p": True}]


def test_enumerate_models_projection_beyond_formula_atoms():
    # 'q' does not occur in the formula: it varies freely in the vocabulary.
    models = enumerate_models(P, ["p", "q"])
    assert models == [{"p": True, "q": False}, {"p": True, "q": True}]


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
    # Verdicts, witnesses, enumeration order and per-solve counts must equal
    # the reference solver's, so no count or certificate depends on the path.
    rng = random.Random(5151)
    atoms = ["p", "q", "r", "s2", "t"]
    for _ in range(300):
        fs = [random_prop_formula(rng, atoms, rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
        assert is_sat(fs) == _cnf_is_sat(fs), fs
        f = random_prop_formula(rng, atoms, rng.randint(0, 4))
        proj = sorted(rng.sample(atoms + ["u"], rng.randint(0, 4)))
        table_solves, cnf_solves = [], []
        got = enumerate_models(f, proj, _on_solve=lambda: table_solves.append(1))
        expected = _cnf_enumerate_models(f, proj, on_solve=lambda: cnf_solves.append(1))
        assert got == expected, (f, proj)
        assert len(table_solves) == len(cnf_solves)


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
    assert is_sat(small)[0] and enumerate_models(small[0], ["x0"]) == [{"x0": False}, {"x0": True}]
    assert encoded == []
    ok, witness = is_sat(large)
    assert ok and len(witness) == limit + 1 and all(eval_prop(f, witness) for f in large)
    assert len(encoded) == 1
    conjunction = large[0]
    for f in large[1:]:
        conjunction = And(conjunction, f)
    assert enumerate_models(conjunction, ["x0"]) == [{"x0": False}, {"x0": True}]
    assert len(encoded) == 2


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


def test_oracle_counts_calls():
    oracle = SatOracle()
    oracle.is_sat([P])
    oracle.is_sat([Not(P)])
    assert oracle.calls == 2
    oracle.enumerate_models(Or(P, Q), ["p", "q"])
    assert oracle.calls == 2 + 4  # three models plus the final UNSAT round


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
