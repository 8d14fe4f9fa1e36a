"""Propositional satisfiability oracle for modality-free formulas.

Every algorithm in the decision procedure bottoms out in satisfiability
queries over sets of modal-depth-0 formulas.  A query over at most
``_TABLE_MAX_SYMBOLS`` symbols is answered from one evaluation of each
member on the truth table of the sorted symbols (``semantics.truth_masks``
and ``eval_core``, the model checker's evaluator, which reads each member
as written; a member in core form, whose nodes may be shared, by
``_core_mask``, each shared node once); neither a CNF nor a core form is
built.
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
``decide`` opens a ``SatOracle.scope`` over its flattening's vocabulary and
names each condition by its number in ``flatten``'s numbering, whose
structures it hands to ``SatOracle.prepare``.  Up to the same cutoff, a
truth set is then an int mask on one truth table per call, a number's from
a list filled by one pass over the structures (``_Table.number``), a
formula's evaluated once and cached by identity.  Otherwise a truth set is
the list of its member formulas, each query to ``is_sat``; a number stands
for one core node per structure, and each condition's negation is built,
once per scope.  Either way a guess check can keep the witness of
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
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .formula import Atom, Bottom, Formula, Not, Or, _core_node, fold, render
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

    def number(self, structures: Sequence[str | tuple]) -> list[int]:
        """The masks of a numbering's ``structures`` by number, from one pass
        over them: an atom or a modality's name reads its mask, ``~``
        complements, ``|`` ORs and ``false`` is 0."""
        return _interpret(structures, self.val.__getitem__, self.every.__xor__, int.__or__, 0)

    def masks(self, fs: Sequence[Formula | int], numbered: Sequence[int] = ()) -> list[int] | None:
        """The masks of ``fs``, a number's read off ``numbered`` (by
        ``number``), a formula's evaluated on first use (no node fact is
        read), or None when a member reads an atom outside the table; a
        modal member raises ``ValueError`` and is not cached."""
        masks = []
        for f in fs:  # a loop, not a comprehension: this runs on every question batch
            if type(f) is int:
                masks.append(numbered[f])
                continue
            entry = self.cache.get(id(f))
            if entry is None:
                reader = _Reader(self.val)
                try:
                    if getattr(f, "_core", False) is None:  # its own core form: maybe shared
                        mask = _core_mask(f, reader, self.every)
                    else:
                        mask = eval_core(f, reader, self.every, _no_modality)
                except _ModalOperand:
                    message = f"modal depth {f.depth} operand for the oracle: {render(f)}"
                    raise ValueError(message) from None
                entry = self.cache[id(f)] = (f, None if reader.outside else mask)
            if entry[1] is None:
                return None
            masks.append(entry[1])
        return masks


def _core_mask(f: Formula, val: _Reader, every: int) -> int:
    """The mask of a formula in core form, each node shared by reference
    evaluated once: a core form holds both sides of each ``<->`` twice, and
    ``eval_core``'s walk would follow every path.  The walk recurses once
    per nesting level; past the recursion limit ``fold`` evaluates it again
    in one frame."""
    masks: dict[int, int] = {}  # id of an evaluated node -> its mask

    def walk(g: Formula, children: object = None) -> int:
        mask = masks.get(id(g))
        if mask is None:
            cls = type(g)
            if cls is Or:
                mask = walk(g.left) | walk(g.right)
            elif cls is Not:
                mask = every ^ walk(g.f)
            elif cls is Atom:
                mask = val.get(g.name, 0)
            elif cls is Bottom:
                mask = 0
            else:
                raise _ModalOperand
            masks[id(g)] = mask
        return mask

    try:
        return walk(f)
    except RecursionError:  # each node once its children are
        return fold(f, walk, lambda g: masks.get(id(g)))
    finally:
        del walk  # empties the closure's own cell: no cycle for the collector


def _interpret(structures: Sequence[str | tuple], atom, neg, disj, false) -> list:
    """The value of each of a numbering's ``structures`` by number, over
    the values of earlier ones: ``atom(name)`` for an atom's or a name's
    name, ``neg``, ``disj`` and ``false`` for ``(Not, i)``, ``(Or, i, j)``
    and ``(Bottom,)``."""
    values = []
    for s in structures:  # a loop, not a comprehension: this runs once per structure
        if type(s) is str:
            values.append(atom(s))
        elif s[0] is Not:
            values.append(neg(values[s[1]]))
        elif len(s) > 1:
            values.append(disj(values[s[1]], values[s[2]]))
        else:
            values.append(false)
    return values


def _core_nodes(structures: Sequence[str | tuple]) -> list[Formula]:
    """One node per structure of a numbering, by number, each its own core
    form: an atom's or a name's name is an ``Atom``."""
    return _interpret(structures, partial(_core_node, Atom), partial(_core_node, Not),
                      partial(_core_node, Or), _core_node(Bottom))


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
    go to ``is_sat``; the structures of a numbering whose numbers stand for
    conditions, and by number each one's mask on the table, or per query
    its core node; and per query, each formula's truth set and its
    negation's, by id."""

    bits: dict[str, int]
    table: _Table | None
    structures: Sequence[str | tuple]
    numbered: list
    members: dict[int, tuple[Members, Members]]


@dataclass
class SatOracle:
    """Counting facade over the oracle; one count per query.

    Callers ask about truth sets (``TruthSet``): ``truth_sets`` supplies
    those of given conditions and of their negations, callers intersect
    them with ``&``, and ``ask`` counts one query and says whether a set is
    non-empty.  An enumeration is a descent of such queries, so it counts
    one per branch it tries, whichever path answers it.

    A condition is a modality-free formula or, once ``prepare`` has taken
    a numbering's structures, the number of one.  Inside ``scope(atoms)``,
    with no external solver and at most ``_TABLE_MAX_SYMBOLS`` atoms, a
    truth set is an int mask on one truth table over those atoms: a
    number's from one pass over the structures, a formula's evaluated
    once, cached by identity; a negation is the complement ``every ^
    mask`` and a query is an AND of masks.  Otherwise, and for a batch with
    an atom outside the scope, a truth set is its ``Members`` and ``ask``
    hands them to ``is_sat``, so DPLL or the external solver sees every
    query; a number then stands for its structure's core node, and inside
    a scope each condition's negation is built once.  Inside
    ``witnesses()``, ``ask`` also keeps each satisfied query's witness as a
    place over the scope's atoms.
    """

    solver_path: str | None = None
    calls: int = 0
    _scope: _Scope | None = field(default=None, init=False, repr=False, compare=False)
    _witnesses: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def truth_sets(
        self, fs: Sequence[Formula | int]
    ) -> tuple[TruthSet, list[TruthSet], list[TruthSet]]:
        """The set of all valuations, the truth sets of the conditions
        ``fs`` and those of their negations; no query is counted."""
        scope = self._scope
        table = scope.table if scope is not None else None
        masks = table.masks(fs, scope.numbered) if table is not None else None
        if masks is not None:
            every = table.every
            return every, masks, [every ^ mask for mask in masks]
        sets = [self._members(f) for f in fs]
        return Members(), [truth for truth, _ in sets], [falsity for _, falsity in sets]

    def prepare(
        self, fs: Sequence[Formula | int], structures: Sequence[str | tuple] | None = None
    ) -> None:
        """Inside a scope, take the numbers of a numbering's ``structures``,
        when given, for conditions: on the table their masks come from one
        pass over them (``_Table.number``), per query their core nodes are
        built now.  Per query, also build each condition's negation now,
        once per scope and with the node facts ``is_sat`` reads, so no later
        question about ``fs`` builds or fills a node."""
        scope = self._scope
        if scope is None:
            return
        if structures is not None:
            table = scope.table
            numbered = table.number(structures) if table is not None else _core_nodes(structures)
            scope = self._scope = scope._replace(structures=structures, numbered=numbered)
        if scope.table is None:
            for f in fs:
                self._members(f)

    def _members(self, f: Formula | int) -> tuple[Members, Members]:
        """A condition's truth set and its negation's per query, built once
        per scope: a number stands for its structure's core node; the
        negation is in core form, and both are checked modality-free
        (``_symbols``), which fills the node facts ``is_sat`` and ``to_cnf``
        read."""
        scope = self._scope
        if type(f) is int:
            f = scope.numbered[f]
        members = scope.members if scope is not None else {}
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

    def row_truth_sets(self, fs: Sequence[Formula | int], rows: Sequence[int]) -> list[int]:
        """The truth sets of the conditions ``fs`` on ``rows``, places over
        the scope's atoms: bit i of a mask is ``rows[i]``.  No query is
        counted.  On the scope's truth table each bit is read off the
        condition's mask at the place; otherwise the conditions are
        evaluated on a grid of the rows, the numbers by one pass over the
        structures.  A formula with an atom outside the scope raises
        ``ValueError``."""
        scope = self._scope
        masks = scope.table.masks(fs, scope.numbered) if scope.table is not None else None
        if masks is None:
            grid = _Table.grid(scope.bits, rows)
            masks = grid.masks(fs, grid.number(scope.structures))
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
        self._scope = _Scope(_bits(symbols), table, (), [], {})
        try:
            yield
        finally:
            self._scope = saved

    def enumerate_models(
        self, f: Formula | int, atoms: Sequence[Atom | int], names: Sequence[str] | None = None
    ) -> Iterator[Assignment]:
        """The distinct projections of ``f``'s models onto ``atoms``, lazily,
        each keyed by the atoms' ``names`` (by default read off ``atoms``;
        given when they are numbers).

        A depth-first descent over the truth sets of ``f`` and of ``atoms``,
        in the order given, True branch first, that asks once for each
        branch before it enters it (the root included).  The first g
        projections cost at most 1 + 2·g·len(atoms) queries, and nothing is
        asked past the last one taken."""
        names = [atom.name for atom in atoms] if names is None else names
        every, truth, falsity = self.truth_sets([f, *atoms])
        stack: list[tuple[TruthSet, tuple[bool, ...]]] = [(every & truth[0], ())]
        while stack:
            term, values = stack.pop()
            if not self.ask(term):
                continue
            i = len(values) + 1  # the next atom's place among the truth sets
            if i > len(atoms):
                yield dict(zip(names, values))
            else:  # the False branch waits under the True branch
                stack.append((term & falsity[i], (*values, False)))
                stack.append((term & truth[i], (*values, True)))
