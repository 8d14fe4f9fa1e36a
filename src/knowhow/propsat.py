"""Propositional satisfiability oracle for modality-free formulas.

Every algorithm in the decision procedure bottoms out in ``is_sat`` calls over
sets of modal-depth-0 formulas.  A query over at most ``_TABLE_MAX_SYMBOLS``
symbols is answered from one evaluation of each member on the truth table of
the sorted symbols (``semantics.truth_table`` and ``eval_formula``, the model
checker's evaluator); no CNF is built.  Larger queries go to a deterministic
DPLL over a structural (Tseitin) CNF encoding: lowest-index variable first,
False branch first, unit propagation, chronological backtracking.  Both
paths return the same verdicts, witnesses and model enumerations: the
lowest satisfying row, first symbol most significant, is the model DPLL
finds first.  Identical inputs always produce identical answers.

An external DIMACS solver can be substituted per call; it then receives
every query, whatever its size.  The built-in DPLL remains the reference
implementation.  An external solver's answer is checked: a missing verdict,
a model that falsifies a clause, or a timeout raises ``SolverError``.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .formula import (
    And,
    Atom,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    atoms_of,
    modal_depth,
    render,
)
from .semantics import eval_formula, truth_table

Assignment = dict[str, bool]


@dataclass(frozen=True)
class CnfInstance:
    """CNF clause set with the symbol-to-variable map used to build it.

    Variables are numbered from 1; clause literals are signed variable
    indices.  ``var_map`` covers the proposition symbols only — variables
    above those are Tseitin definition variables.
    """

    var_count: int
    clauses: tuple[tuple[int, ...], ...]
    var_map: dict[str, int]


_TRUE = Top()
_FALSE = Bottom()

# Queries over at most this many symbols are answered from a truth table when
# no external solver is set.  On queries taken from decide runs, the table
# costs 0.13 ms at 4 symbols against 0.29 ms for Tseitin CNF and DPLL, and
# 0.59 against 0.83 ms at 10; at 11 the two tie, and the table doubles per
# symbol while DPLL grows slowly.
_TABLE_MAX_SYMBOLS = 10


def _symbols(fs: Sequence[Formula], extra_atoms: Iterable[str] = ()) -> list[str]:
    """Sorted vocabulary of the members and ``extra_atoms``; a modal member
    raises ``ValueError``."""
    for f in fs:
        depth = modal_depth(f)
        if depth != 0:
            raise ValueError(f"modal depth {depth} operand for the oracle: {render(f)}")
    return sorted(set(extra_atoms).union(*(atoms_of(f) for f in fs)))


def _row_assignment(symbols: Sequence[str], row: int) -> Assignment:
    """The valuation of truth-table row ``row`` (first symbol most significant)."""
    n = len(symbols)
    return {name: bool(row >> (n - 1 - j) & 1) for j, name in enumerate(symbols)}


def _fold(f: Formula) -> Formula:
    """Propagate true/false so only a whole-formula constant can survive."""
    if isinstance(f, (Atom, Top, Bottom)):
        return f
    if isinstance(f, Not):
        inner = _fold(f.f)
        if isinstance(inner, Top):
            return _FALSE
        if isinstance(inner, Bottom):
            return _TRUE
        return Not(inner)
    if isinstance(f, Or):
        left, right = _fold(f.left), _fold(f.right)
        if isinstance(left, Top) or isinstance(right, Top):
            return _TRUE
        if isinstance(left, Bottom):
            return right
        if isinstance(right, Bottom):
            return left
        return Or(left, right)
    if isinstance(f, And):
        left, right = _fold(f.left), _fold(f.right)
        if isinstance(left, Bottom) or isinstance(right, Bottom):
            return _FALSE
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        return And(left, right)
    if isinstance(f, Implies):
        return _fold(Or(Not(f.left), f.right))
    if isinstance(f, Iff):
        left, right = _fold(f.left), _fold(f.right)
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        if isinstance(left, Bottom):
            return _fold(Not(right))
        if isinstance(right, Bottom):
            return _fold(Not(left))
        return Iff(left, right)
    raise ValueError(f"not a propositional formula: {render(f)}")


def to_cnf(fs: Sequence[Formula], *, extra_atoms: Iterable[str] = ()) -> CnfInstance:
    """Equisatisfiable CNF for the conjunction of ``fs``.

    Tseitin definition clauses are emitted in both directions, so the CNF's
    models project bijectively onto assignments of the proposition symbols
    that satisfy the conjunction — enumeration counts stay exact.

    ``extra_atoms`` widens the vocabulary with symbols that must receive
    variables (and hence values) even if no formula mentions them.
    """
    fs = list(fs)
    symbols = _symbols(fs, extra_atoms)
    var_map = {name: i + 1 for i, name in enumerate(symbols)}
    next_var = len(symbols) + 1
    clauses: list[tuple[int, ...]] = []
    defs: dict[Formula, int] = {}

    def literal(g: Formula) -> int:
        nonlocal next_var
        if isinstance(g, Atom):
            return var_map[g.name]
        if isinstance(g, Not):
            return -literal(g.f)
        cached = defs.get(g)
        if cached is not None:
            return cached
        if isinstance(g, Or):
            a, b = literal(g.left), literal(g.right)
            e = next_var
            next_var += 1
            defs[g] = e
            clauses.append((-e, a, b))
            clauses.append((e, -a))
            clauses.append((e, -b))
            return e
        if isinstance(g, And):
            a, b = literal(g.left), literal(g.right)
            e = next_var
            next_var += 1
            defs[g] = e
            clauses.append((-e, a))
            clauses.append((-e, b))
            clauses.append((e, -a, -b))
            return e
        if isinstance(g, Iff):
            a, b = literal(g.left), literal(g.right)
            e = next_var
            next_var += 1
            defs[g] = e
            clauses.append((-e, -a, b))
            clauses.append((-e, a, -b))
            clauses.append((e, a, b))
            clauses.append((e, -a, -b))
            return e
        raise ValueError(f"not a propositional formula: {render(g)}")

    contradiction = False
    for f in fs:
        folded = _fold(f)
        if isinstance(folded, Top):
            continue
        if isinstance(folded, Bottom):
            contradiction = True
            continue
        clauses.append((literal(folded),))

    if contradiction:
        # A member folded to false: force an unsatisfiable instance without
        # breaking the nonempty-clause invariant.
        v = next_var
        next_var += 1
        clauses.append((v,))
        clauses.append((-v,))

    return CnfInstance(next_var - 1, tuple(clauses), var_map)


def _dpll(var_count: int, clauses: Sequence[tuple[int, ...]]) -> list[bool] | None:
    """Deterministic DPLL; returns a total assignment indexed by variable."""
    assign: dict[int, bool] = {}
    trail: list[tuple[int, bool]] = []  # (var, was_decision)

    def value(lit: int) -> bool | None:
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def set_lit(lit: int, decision: bool) -> None:
        assign[abs(lit)] = lit > 0
        trail.append((abs(lit), decision))

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                count = 0
                for lit in clause:
                    v = value(lit)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        unassigned = lit
                        count += 1
                if satisfied:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    set_lit(unassigned, False)
                    changed = True
        return True

    def backtrack() -> int | None:
        """Undo to the most recent False decision; return its variable."""
        while trail:
            var, was_decision = trail.pop()
            flipped = assign.pop(var)
            if was_decision and flipped is False:
                return var
        return None

    while True:
        if propagate():
            if len(assign) == var_count:
                return [assign[v] for v in range(1, var_count + 1)]
            branch = next(v for v in range(1, var_count + 1) if v not in assign)
            set_lit(-branch, True)  # try False first
            continue
        var = backtrack()
        if var is None:
            return None
        set_lit(var, False)  # the flip to True is forced, not a decision


class SolverError(RuntimeError):
    """An external solver gave no verdict line, a model that falsifies a
    clause, or no answer in time."""


def _parse_solver_output(text: str) -> tuple[bool, dict[int, bool]]:
    verdict: bool | None = None
    values: dict[int, bool] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("s "):
            token = line[2:].strip()
            if token == "SATISFIABLE":
                verdict = True
            elif token == "UNSATISFIABLE":
                verdict = False
        elif line.startswith("v "):
            for word in line[2:].split():
                lit = int(word)
                if lit != 0:
                    values[abs(lit)] = lit > 0
    if verdict is None:
        raise SolverError("no 's' verdict line")
    return verdict, values


def _solve(instance: CnfInstance, solver_path: str | None) -> list[bool] | None:
    if solver_path is None:
        return _dpll(instance.var_count, instance.clauses)
    with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as handle:
        handle.write(export_dimacs(instance))
        path = handle.name
    try:
        proc = subprocess.run(
            [solver_path, path], capture_output=True, text=True, timeout=300, check=False
        )
        verdict, values = _parse_solver_output(proc.stdout)
        if not verdict:
            return None
        # Unreported variables default to False (common solver behavior for
        # don't-care variables).
        model = [values.get(v, False) for v in range(1, instance.var_count + 1)]
        for clause in instance.clauses:
            if not any(model[abs(lit) - 1] == (lit > 0) for lit in clause):
                raise SolverError(f"reported model falsifies clause {clause}")
        return model
    except (SolverError, subprocess.TimeoutExpired) as exc:
        raise SolverError(f"external solver {solver_path!r}: {exc}") from None
    finally:
        os.unlink(path)


def is_sat(
    fs: Sequence[Formula], *, solver_path: str | None = None
) -> tuple[bool, Assignment | None]:
    """Satisfiability of the conjunction of modality-free formulas.

    Returns ``(True, witness)`` with a total assignment over the occurring
    symbols, or ``(False, None)``.  The empty set is satisfiable by
    convention.  The witness is the first model in False-first order over
    the sorted symbols, which is the model the built-in DPLL finds first.
    """
    fs = list(fs)
    symbols = _symbols(fs)
    if solver_path is not None or len(symbols) > _TABLE_MAX_SYMBOLS:
        return _cnf_is_sat(fs, solver_path)
    table = truth_table(symbols)
    rows = table.all_states
    for f in fs:
        rows &= eval_formula(table, f)
    if not rows:
        return False, None
    return True, _row_assignment(symbols, (rows & -rows).bit_length() - 1)


def _cnf_is_sat(
    fs: Sequence[Formula], solver_path: str | None = None
) -> tuple[bool, Assignment | None]:
    """``is_sat`` through Tseitin CNF and DPLL (or the external solver)."""
    instance = to_cnf(fs)
    model = _solve(instance, solver_path)
    if model is None:
        return False, None
    return True, {name: model[var - 1] for name, var in instance.var_map.items()}


def enumerate_models(
    f: Formula,
    proj: Iterable[str],
    *,
    solver_path: str | None = None,
    _on_solve: Callable[[], None] | None = None,
) -> list[Assignment]:
    """All distinct projections of models of ``f`` onto the ``proj`` symbols.

    The vocabulary is atoms(f) ∪ proj, so projection symbols foreign to ``f``
    vary freely.  Projections come in the order they first appear over the
    truth table's ascending rows (first sorted symbol most significant, False
    first), which is the order DPLL with blocking clauses finds them in.
    ``_on_solve`` runs once per round of the blocking-clause loop: once per
    projection found, plus a closing round that finds none, skipped once all
    2^|proj| projections are found.
    """
    proj_list = sorted(set(proj))
    symbols = _symbols([f], proj_list)
    if solver_path is not None or len(symbols) > _TABLE_MAX_SYMBOLS:
        return _cnf_enumerate_models(f, proj_list, solver_path, _on_solve)
    table = truth_table(symbols)
    rows = eval_formula(table, f)
    results: list[Assignment] = []
    while len(results) < 1 << len(proj_list):
        if _on_solve is not None:
            _on_solve()
        if not rows:
            break
        model = _row_assignment(symbols, (rows & -rows).bit_length() - 1)
        projected = {name: model[name] for name in proj_list}
        results.append(projected)
        # Drop every row with this projection, as a blocking clause would.
        same = table.all_states
        for name in proj_list:
            same &= table.val[name] if projected[name] else ~table.val[name]
        rows &= ~same
    return results


def _cnf_enumerate_models(
    f: Formula,
    proj_list: list[str],
    solver_path: str | None = None,
    on_solve: Callable[[], None] | None = None,
) -> list[Assignment]:
    """``enumerate_models`` through Tseitin CNF and DPLL (or the external
    solver), one solve per model plus blocking clauses; ``proj_list`` is
    sorted and duplicate-free."""
    instance = to_cnf([f], extra_atoms=proj_list)
    clauses = list(instance.clauses)
    results: list[Assignment] = []
    while len(results) < 1 << len(proj_list):
        working = CnfInstance(instance.var_count, tuple(clauses), instance.var_map)
        model = _solve(working, solver_path)
        if on_solve is not None:
            on_solve()
        if model is None:
            break
        projected = {name: model[instance.var_map[name] - 1] for name in proj_list}
        results.append(projected)
        # Block this projection; projections are deduplicated by construction.
        clauses.append(
            tuple(
                -instance.var_map[name] if projected[name] else instance.var_map[name]
                for name in proj_list
            )
        )
    return results


def export_dimacs(instance: CnfInstance) -> str:
    """Standard DIMACS CNF text with the symbol map in comment lines."""
    lines = [f"c knowhow CNF export, {len(instance.var_map)} mapped symbols"]
    for name in sorted(instance.var_map):
        lines.append(f"c var {instance.var_map[name]} = {name}")
    lines.append(f"p cnf {instance.var_count} {len(instance.clauses)}")
    for clause in instance.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def eval_prop(f: Formula, assignment: Mapping[str, bool]) -> bool:
    """Truth value of a modality-free formula; absent atoms read as False."""
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
    raise ValueError(f"not a propositional formula: {render(f)}")


@dataclass
class SatOracle:
    """Counting facade over the oracle; one count per query.

    An ``is_sat`` query counts once.  An enumeration counts once per model
    found, plus once for the closing round that finds none (skipped when
    every projection was found), whichever path answers it.
    """

    solver_path: str | None = None
    calls: int = 0

    def is_sat(self, fs: Sequence[Formula]) -> tuple[bool, Assignment | None]:
        self.calls += 1
        return is_sat(fs, solver_path=self.solver_path)

    def sat(self, fs: Sequence[Formula]) -> bool:
        return self.is_sat(fs)[0]

    def enumerate_models(self, f: Formula, proj: Iterable[str]) -> list[Assignment]:
        def bump() -> None:
            self.calls += 1

        return enumerate_models(f, proj, solver_path=self.solver_path, _on_solve=bump)
