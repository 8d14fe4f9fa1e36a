"""Propositional satisfiability oracle for modality-free formulas.

Every algorithm in the decision procedure bottoms out in satisfiability
queries over sets of modal-depth-0 formulas.  A query over at most
``_TABLE_MAX_SYMBOLS`` symbols is answered from one evaluation of each
member on the truth table of the sorted symbols (``semantics.truth_masks``
and ``eval_core``, the model checker's evaluator, which reads each member
as written); neither a CNF nor a core form is built.
Larger queries go to a deterministic DPLL over a structural (Tseitin) CNF
encoding of the members' core forms (``Formula.core``): lowest-index
variable first, False branch first, unit propagation, chronological
backtracking.  Both paths return the same verdicts and witnesses: the
lowest satisfying row, first symbol most significant, is the model DPLL
finds first.  Identical inputs always produce identical answers.

The decision procedure asks ``SatOracle`` about truth sets: it reads the
truth sets of its conditions and their negations once, intersects them and
asks whether the result is empty; even its guesses come from such queries,
a descent over the definition atoms (``SatOracle.enumerate_models``).
``decide`` opens a ``SatOracle.scope`` over its flattening's vocabulary: up
to the same cutoff, a truth set is then an int mask on one truth table per
call, cached by identity, with no node fact (hash, atoms, depth) read.  The
skeleton's, the sides' and the names' masks come from one pass over
``flatten``'s numbering (``_Table.number``), any other formula's from one
evaluation.  Otherwise a truth set is the list of its
member formulas, each query to ``is_sat``, and each formula's negation is
built once per scope.  Either way a guess check can keep the witness of
each query it satisfies (``SatOracle.witnesses``) as a place: the number of
its row in the truth table of the scope's sorted atoms, first atom most
significant.  Its certificate is built from those places, reading its
conditions' bits at them (``SatOracle.row_truth_sets``: off the table where
there is one, otherwise evaluated on a grid of the places) and the scope's
atoms' (``SatOracle.row_valuation``); no other module reads a place.  The
per-query table, the scope's table and that grid are one type, ``_Table``.

An external DIMACS solver can be substituted per call; it then receives
every query, whatever its size.  The built-in DPLL remains the reference
implementation.  An external solver's answer is checked: a missing verdict,
a model that falsifies a clause, or a timeout raises ``SolverError``.  The
modules that run it (``os``, ``subprocess``, ``tempfile``) are imported only
when a solver is set, on its first query.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

from .formula import Atom, Formula, Not, Or, _core_node, fold, render
from .normalform import Numbering
from .semantics import eval_core, truth_masks

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


# Queries over at most this many symbols are answered from a truth table when
# no external solver is set.  On per-query calls recorded from plain decide
# runs on random_formula(3, 8, p..w) inputs (each query's best of 5, averaged
# over up to 200 queries per size; shared 2-CPU Linux machine, Python 3.11),
# the table costs 0.017 ms at 8 symbols against 0.120 ms for Tseitin CNF and
# DPLL, 0.028 against 0.174 ms at 10, 0.026 against 0.123 ms at 11 and 0.043
# against 0.208 ms at 12.  The table doubles per symbol, so the two cross
# further up; this cutoff is below that point, not at it.
_TABLE_MAX_SYMBOLS = 10


def _symbols(fs: Sequence[Formula]) -> list[str]:
    """Sorted vocabulary of the members; a modal member raises ``ValueError``."""
    for f in fs:
        if f.depth != 0:
            raise ValueError(f"modal depth {f.depth} operand for the oracle: {render(f)}")
    return sorted(set().union(*(f.atoms for f in fs)))


def to_cnf(fs: Sequence[Formula]) -> CnfInstance:
    """Equisatisfiable CNF for the conjunction of ``fs``.

    Each member's core form is encoded with one Tseitin variable per
    distinct ``Or`` node and one for ``Bottom``, fixed false by a unit
    clause.  Definition clauses are emitted in both directions, so the CNF's
    models project bijectively onto assignments of the proposition symbols
    that satisfy the conjunction.
    """
    fs = list(fs)
    symbols = _symbols(fs)
    var_map = {name: i + 1 for i, name in enumerate(symbols)}
    next_var = len(symbols) + 1
    clauses: list[tuple[int, ...]] = []
    defs: dict[Formula, int] = {}

    def known(g: Formula) -> int | None:  # an atom's or an encoded node's literal
        return var_map[g.name] if isinstance(g, Atom) else defs.get(g)

    def literal(g: Formula, children: list[int]) -> int:
        nonlocal next_var
        if isinstance(g, Not):
            return -children[0]
        if isinstance(g, Or):
            a, b = children
            clauses.extend(((-next_var, a, b), (next_var, -a), (next_var, -b)))
        else:  # Bottom
            clauses.append((-next_var,))
        defs[g] = next_var
        next_var += 1
        return next_var - 1

    for f in fs:
        clauses.append((fold(f.core, literal, known),))
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
    import os
    import subprocess
    import tempfile

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
    table = _Table.truth_table(symbols)
    rows = table.every
    for mask in table.masks(fs):
        rows &= mask
    if not rows:
        return False, None
    lowest = rows & -rows
    return True, {name: bool(table.val[name] & lowest) for name in symbols}


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
    f: Formula, proj: Iterable[str], *, solver_path: str | None = None
) -> list[Assignment]:
    """All distinct projections of models of ``f`` onto the ``proj`` symbols,
    over the sorted symbols with True first: ``SatOracle.enumerate_models``
    in a scope over atoms(f) ∪ proj, so projection symbols foreign to ``f``
    vary freely."""
    proj = sorted(set(proj))
    oracle = SatOracle(solver_path)
    with oracle.scope(f.atoms | set(proj)):
        return list(oracle.enumerate_models(f, [Atom(name) for name in proj]))


def export_dimacs(instance: CnfInstance) -> str:
    """Standard DIMACS CNF text with the symbol map in comment lines."""
    lines = [f"c knowhow CNF export, {len(instance.var_map)} mapped symbols"]
    for name in sorted(instance.var_map):
        lines.append(f"c var {instance.var_map[name]} = {name}")
    lines.append(f"p cnf {instance.var_count} {len(instance.clauses)}")
    for clause in instance.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _bits(symbols: Sequence[str]) -> dict[str, int]:
    """Each of the sorted ``symbols`` with its bit in a place, the number of
    a truth-table row: the first symbol is the most significant bit."""
    return {a: 1 << (len(symbols) - 1 - j) for j, a in enumerate(symbols)}


class _ModalOperand(Exception):
    """A modality met while evaluating a member for the oracle."""


def _no_modality(pre: int, post: int) -> int:
    raise _ModalOperand


class _Reader:
    """A table's atom masks as ``eval_core`` reads them, through ``get``:
    it notes in ``outside`` whether an atom lies outside the table (read as
    false)."""

    __slots__ = ("val", "outside")

    def __init__(self, val: dict[str, int]):
        self.val, self.outside = val, False

    def get(self, name: str, default: int) -> int:
        mask = self.val.get(name)
        if mask is None:
            self.outside = True
            return default
        return mask


def _on_rows(bits: dict[str, int], rows: Sequence[int]) -> dict[str, int]:
    """Each atom of ``bits`` with its truth set on the places ``rows``."""
    return {a: sum(1 << i for i, row in enumerate(rows) if row & bit) for a, bit in bits.items()}


class _Table(NamedTuple):
    """Truth sets on a grid of valuations, one bit per row: each atom's
    mask, every row, and per formula evaluated so far, by id: the formula
    (kept alive, so its id is not reused) and its mask (None: it reads an
    atom outside the table)."""

    val: dict[str, int]
    every: int
    cache: dict[int, tuple[Formula, int | None]]

    @classmethod
    def truth_table(cls, symbols: Sequence[str]) -> _Table:
        """The truth table of the sorted ``symbols``: row r is place r."""
        return cls(truth_masks(symbols), (1 << (1 << len(symbols))) - 1, {})

    @classmethod
    def grid(cls, bits: dict[str, int], rows: Sequence[int]) -> _Table:
        """One row per place in ``rows``, over the atoms of ``bits``."""
        return cls(_on_rows(bits, rows), (1 << len(rows)) - 1, {})

    def number(self, numbering: Numbering) -> None:
        """Cache the masks of the formulas ``numbering`` numbers, from one
        pass over its structures: an atom or a modality's name reads its
        mask, ``~`` complements, ``|`` ORs and ``false`` is 0."""
        every, val, masks = self.every, self.val, []
        for s in numbering.structures:  # a loop, not a comprehension: this runs once per structure
            if type(s) is str:
                masks.append(val[s])
            elif s[0] is Not:
                masks.append(every ^ masks[s[1]])
            else:  # (Or, i, j), or (Bottom,)
                masks.append(masks[s[1]] | masks[s[2]] if len(s) > 1 else 0)
        self.cache.update((id(f), (f, masks[n])) for f, n in numbering.numbered)

    def masks(self, fs: Sequence[Formula]) -> list[int] | None:
        """The masks of ``fs``, each evaluated on first use (``eval_core``;
        no node fact is read), or None when a member reads an atom outside
        the table; a modal member raises ``ValueError`` and is not cached."""
        masks = []
        for f in fs:  # a loop, not a comprehension: this runs on every question batch
            entry = self.cache.get(id(f))
            if entry is None:
                reader = _Reader(self.val)
                try:
                    mask = eval_core(f, reader, self.every, _no_modality)
                except _ModalOperand:
                    message = f"modal depth {f.depth} operand for the oracle: {render(f)}"
                    raise ValueError(message) from None
                entry = self.cache[id(f)] = (f, None if reader.outside else mask)
            if entry[1] is None:
                return None
            masks.append(entry[1])
        return masks


class Members(tuple):
    """A truth set kept as the formulas whose conjunction it is: the
    per-query path's truth-set term.  ``a & b`` lists ``a``'s members then
    ``b``'s, as ``&`` intersects two masks on the table path."""

    __slots__ = ()

    def __and__(self, other: Members) -> Members:
        return Members(tuple.__add__(self, other))


TruthSet = int | Members


class _Scope(NamedTuple):
    """An oracle's state inside ``scope``: each of the scope's sorted atoms
    with its bit in a place; the truth table over them, or None when queries
    go to ``is_sat``; and per query, each formula's truth set and its
    negation's, by id."""

    bits: dict[str, int]
    table: _Table | None
    members: dict[int, tuple[Members, Members]]


@dataclass
class SatOracle:
    """Counting facade over the oracle; one count per query.

    Callers ask about truth sets (``TruthSet``): ``truth_sets`` supplies
    those of given formulas and of their negations, callers intersect them
    with ``&``, and ``ask`` counts one query and says whether a set is
    non-empty.  An enumeration is a descent of such queries, so it counts
    one per branch it tries, whichever path answers it.

    Inside ``scope(atoms)``, with no external solver and at most
    ``_TABLE_MAX_SYMBOLS`` atoms, a truth set is an int mask on one truth
    table over those atoms: each formula's mask is evaluated once, cached
    by identity, a negation is the complement ``every ^ mask`` and a query
    is an AND of masks.  Otherwise, and for a batch with an atom outside
    the scope, a truth set is its ``Members`` and ``ask`` hands them to
    ``is_sat``, so DPLL or the external solver sees every query; inside a
    scope each formula's negation is built once.  Inside ``witnesses()``,
    ``ask`` also keeps each satisfied query's witness as a place over the
    scope's atoms.
    """

    solver_path: str | None = None
    calls: int = 0
    _scope: _Scope | None = field(default=None, init=False, repr=False, compare=False)
    _witnesses: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def truth_sets(
        self, fs: Sequence[Formula]
    ) -> tuple[TruthSet, list[TruthSet], list[TruthSet]]:
        """The set of all valuations, the truth sets of ``fs`` and those of
        their negations; no query is counted."""
        scope = self._scope
        masks = scope.table.masks(fs) if scope is not None and scope.table is not None else None
        if masks is not None:
            every = scope.table.every
            return every, masks, [every ^ mask for mask in masks]
        members = {} if scope is None else scope.members
        sets = [self._members(f, members) for f in fs]
        return Members(), [truth for truth, _ in sets], [falsity for _, falsity in sets]

    def prepare(self, fs: Sequence[Formula], numbering: Numbering | None = None) -> None:
        """Per query, build each formula's negation now, once per scope and
        with the node facts ``is_sat`` reads, so no later question about
        ``fs`` builds or fills a node.  On the table, the masks of the
        formulas a given ``numbering`` numbers are taken from one pass over it
        (``_Table.number``); any other mask is evaluated on first use."""
        scope = self._scope
        if scope is not None and scope.table is None:
            for f in fs:
                self._members(f, scope.members)
        elif scope is not None and numbering is not None:
            scope.table.number(numbering)

    @staticmethod
    def _members(
        f: Formula, members: dict[int, tuple[Members, Members]]
    ) -> tuple[Members, Members]:
        """``f``'s truth set and its negation's per query, built once into
        ``members``: the negation in core form, both checked modality-free
        (``_symbols``), which fills the node facts ``is_sat`` and ``to_cnf``
        read."""
        entry = members.get(id(f))
        if entry is None:
            negation = _core_node(Not, f.core)
            _symbols([f, negation])
            entry = members[id(f)] = Members((f,)), Members((negation,))
        return entry

    def ask(self, term: TruthSet) -> bool:
        """Whether a truth set is non-empty; one query.  Inside ``witnesses``
        a non-empty set's witness is kept."""
        self.calls += 1
        if isinstance(term, Members):
            sat, witness = is_sat(term, solver_path=self.solver_path)
            if sat and self._witnesses is not None:
                bits = self._scope.bits
                if not witness.keys() <= bits.keys():
                    raise ValueError("a witness has atoms outside the scope")
                self._witnesses.append(sum(bits[a] for a, value in witness.items() if value))
            return sat
        if term and self._witnesses is not None:
            self._witnesses.append((term & -term).bit_length() - 1)  # the lowest row's place
        return term != 0

    @contextmanager
    def witnesses(self) -> Iterator[list[int]]:
        """Collect the distinct witnesses of the queries satisfied until
        exit, in the order first found, each as its place over the scope's
        atoms: on the table the lowest row of the mask, per query
        ``is_sat``'s witness with atoms outside the query false (the same
        valuation, except from an external solver).  Nothing is asked; the
        list is filled in on exit, and the previous collection restored.
        Places need a scope: outside one this raises ``ValueError``."""
        if self._scope is None:
            raise ValueError("witnesses are places over a scope's atoms; open a scope first")
        saved, self._witnesses = self._witnesses, []
        rows: list[int] = []
        try:
            yield rows
        finally:
            found, self._witnesses = self._witnesses, saved
            rows += dict.fromkeys(found)

    def row_truth_sets(self, fs: Sequence[Formula], rows: Sequence[int]) -> list[int]:
        """The truth sets of modality-free ``fs`` on ``rows``, places over
        the scope's atoms: bit i of a mask is ``rows[i]``.  No query is
        counted.  On the scope's truth table each bit is read off the
        formula's mask at the place; otherwise the formulas are evaluated on
        a grid of the rows.  A formula with an atom outside the scope raises
        ``ValueError``."""
        scope = self._scope
        masks = scope.table.masks(fs) if scope.table is not None else None
        if masks is None:
            masks = _Table.grid(scope.bits, rows).masks(fs)
            if masks is None:
                raise ValueError("a formula has atoms outside the scope of its rows")
            return masks
        return [sum(1 << i for i, place in enumerate(rows) if mask >> place & 1) for mask in masks]

    def row_valuation(self, rows: Sequence[int]) -> dict[str, int]:
        """Each of the scope's sorted atoms with its truth set on ``rows``,
        places over them: bit i of a mask is ``rows[i]``."""
        return _on_rows(self._scope.bits, rows)

    @contextmanager
    def scope(self, atoms: Iterable[str]) -> Iterator[None]:
        """Answer from one truth table over ``atoms`` until exit, or per
        query when they are too many or a solver is set; the previous scope
        is restored on exit, also on an exception."""
        saved = self._scope
        symbols = sorted(set(atoms))
        table = None
        if self.solver_path is None and len(symbols) <= _TABLE_MAX_SYMBOLS:
            table = _Table.truth_table(symbols)
        self._scope = _Scope(_bits(symbols), table, {})
        try:
            yield
        finally:
            self._scope = saved

    def enumerate_models(self, f: Formula, atoms: Sequence[Atom]) -> Iterator[Assignment]:
        """The distinct projections of ``f``'s models onto ``atoms``, lazily.

        A depth-first descent over the truth sets of ``f`` and of ``atoms``,
        in the order given, True branch first, that asks once for each
        branch before it enters it (the root included).  The first g
        projections cost at most 1 + 2·g·len(atoms) queries, and nothing is
        asked past the last one taken."""
        every, truth, falsity = self.truth_sets([f, *atoms])
        stack: list[tuple[TruthSet, tuple[bool, ...]]] = [(every & truth[0], ())]
        while stack:
            term, values = stack.pop()
            if not self.ask(term):
                continue
            i = len(values) + 1  # the next atom's place among the truth sets
            if i > len(atoms):
                yield {atom.name: value for atom, value in zip(atoms, values)}
            else:  # the False branch waits under the True branch
                stack.append((term & falsity[i], (*values, False)))
                stack.append((term & truth[i], (*values, True)))
