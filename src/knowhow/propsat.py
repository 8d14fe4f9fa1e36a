"""Propositional satisfiability oracle for modality-free formulas.

Every algorithm in the decision procedure bottoms out in satisfiability
queries over sets of modal-depth-0 formulas.  A query's members are read
through one numbering of their core structures (``normalform.number_core``):
a formula member is numbered, and a member may also be the signed number of
a structure of a numbering it comes with (i, or ~i for its negation).  The
query's symbols are the atoms reachable from its members.  A query over at
most ``_TABLE_MAX_SYMBOLS`` symbols is answered from one pass over the
reachable structures on the truth table of the sorted symbols
(``_interpret``); neither a CNF nor a formula is built.  Larger queries go
to a deterministic DPLL over a structural (Tseitin) CNF encoding of the
numbering (``to_cnf``): lowest-index variable first, False branch first,
unit propagation, chronological backtracking.  Both paths return the same
verdicts and witnesses: the lowest satisfying row, first symbol most
significant, is the model DPLL finds first.  Identical inputs always
produce identical answers.

The decision procedure asks ``SatOracle`` about truth sets: it reads the
truth sets of its conditions and their negations once, intersects them and
asks whether the result is empty; even its guesses come from such queries,
a descent over the definition atoms (``SatOracle.enumerate_models``).
``decide`` opens a ``SatOracle.scope`` over its flattening's vocabulary and
numbering, and names each condition by its number in that numbering.  Up
to the same cutoff, a truth set is then an int mask on one truth table per
call, a number's from a list filled by one pass over the structures
(``_Table.number``); a batch with a formula is numbered after them and its
new structures read by one more pass.  Otherwise a truth set is the list
of its members (``Members``), each query to ``is_sat``: a number's negation
is ``~i`` and a formula's is ``Not(f)``, so nothing is built per scope.
Either way a guess check can keep the witness of each query it satisfies
(``SatOracle.witnesses``) as a place: the number of its row in the truth
table of the scope's sorted atoms, first atom most significant.  Its
certificate is built from those places, reading its
conditions' bits at them (``SatOracle.row_truth_sets``: off the table where
there is one, otherwise read on a grid of the places) and the scope's
atoms' (``SatOracle.row_valuation``); no other module reads a place.  The
scope's table, the per-query table and that grid are one type, ``_Table``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

from .formula import Atom, Formula, Not, render
from .normalform import number_core
from .semantics import truth_masks

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


# Queries over at most this many symbols are answered from a truth table, the
# others through Tseitin CNF and DPLL.  On per-query calls recorded from plain
# decide runs on random_formula(3, 8, p..w) inputs (each query's best of 5,
# averaged over up to 200 queries per size; shared 2-CPU Linux machine, Python
# 3.11), the table costs 0.017 ms at 8 symbols against 0.120 ms for Tseitin
# CNF and DPLL, 0.028 against 0.174 ms at 10, 0.026 against 0.123 ms at 11 and
# 0.043 against 0.208 ms at 12.  The table doubles per symbol, so the two
# cross further up; this cutoff is below that point, not at it.
_TABLE_MAX_SYMBOLS = 10


def _numbered(fs: Iterable[Formula | int], structures: Sequence[str | tuple] = ()) -> tuple:
    """The members ``fs`` as signed numbers, and the structures they number:
    a number is kept, and the formulas are numbered after ``structures``
    (``number_core``); a modal formula raises ``ValueError``."""
    fs = list(fs)
    formulas = [f for f in fs if type(f) is not int]
    if not formulas:
        return fs, structures
    tops, structures, depths, *_ = number_core(formulas, structures)
    for f, top in zip(formulas, tops):
        if depths[top]:
            raise ValueError(f"modal depth {depths[top]} operand for the oracle: {render(f)}")
    tops = iter(tops)
    return [f if type(f) is int else next(tops) for f in fs], structures


def _reachable(structures: Sequence[str | tuple], roots: Iterable[int], done=()) -> list[int]:
    """The numbers of the structures reachable from the signed numbers
    ``roots`` and not in ``done``, which holds each of its numbers'
    children, ascending."""
    found: set[int] = set()
    todo = [root if root >= 0 else ~root for root in roots]
    while todo:
        sid = todo.pop()
        if sid not in found and sid not in done:
            found.add(sid)
            s = structures[sid]
            if type(s) is tuple:
                todo += s[1:]
    return sorted(found)


def _atoms_of(structures: Sequence[str | tuple], numbers: Iterable[int]) -> list[str]:
    """The sorted atoms among the structures ``numbers``."""
    return sorted({s for s in map(structures.__getitem__, numbers) if type(s) is str})


def to_cnf(fs: Sequence[Formula | int], structures: Sequence[str | tuple] = ()) -> CnfInstance:
    """Equisatisfiable CNF for the conjunction of ``fs``: modality-free
    formulas, or signed numbers of the numbering's ``structures``.

    Formulas are numbered first (``number_core``).  The atoms reachable
    from the members get variables 1..n in sorted order.  Member by member,
    each newly reached ``(Or, i, j)`` and ``(Bottom,)`` gets one Tseitin
    variable, in number order, ``Bottom``'s fixed false by a unit clause,
    and ``(Not, i)`` is the negated literal of i; then the member adds its
    unit clause.  Definition clauses are emitted in both directions, so the
    CNF's models project bijectively onto assignments of the proposition
    symbols that satisfy the conjunction.
    """
    roots, structures = _numbered(fs, structures)
    symbols = _atoms_of(structures, _reachable(structures, roots))
    var_map = {name: i + 1 for i, name in enumerate(symbols)}
    next_var = len(symbols) + 1
    clauses: list[tuple[int, ...]] = []
    literals: dict[int, int] = {}  # number of an encoded structure -> its literal
    for root in roots:
        for sid in _reachable(structures, (root,), literals):
            s = structures[sid]
            if type(s) is str:
                literals[sid] = var_map[s]
            elif s[0] is Not:
                literals[sid] = -literals[s[1]]
            else:
                if len(s) > 1:  # (Or, i, j)
                    a, b = literals[s[1]], literals[s[2]]
                    clauses.extend(((-next_var, a, b), (next_var, -a), (next_var, -b)))
                else:  # (Bottom,)
                    clauses.append((-next_var,))
                literals[sid] = next_var
                next_var += 1
        clauses.append((literals[root] if root >= 0 else -literals[~root],))
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


def is_sat(fs: Sequence[Formula | int]) -> tuple[bool, Assignment | None]:
    """Satisfiability of the conjunction of modality-free formulas, or of a
    ``Members`` term, whose numbers read its ``structures``.

    Returns ``(True, witness)`` with a total assignment over the symbols
    reachable from the members, or ``(False, None)``.  The empty set is
    satisfiable by convention.  With at most ``_TABLE_MAX_SYMBOLS``
    symbols, the query is answered on their truth table; otherwise through
    ``to_cnf`` and DPLL.  The witness is the first model in False-first
    order over the sorted symbols, which is the model DPLL finds first.
    """
    roots, structures = _numbered(fs, getattr(fs, "structures", ()))
    numbers = _reachable(structures, roots)
    symbols = _atoms_of(structures, numbers)
    if len(symbols) > _TABLE_MAX_SYMBOLS:
        return _cnf_is_sat(roots, structures)
    table = _Table.truth_table(symbols)
    every = table.every
    values = _interpret(structures, table.val.__getitem__, every.__xor__, int.__or__, 0, numbers)
    rows = every
    for root in roots:
        rows &= values[root] if root >= 0 else every ^ values[~root]
    if not rows:
        return False, None
    lowest = rows & -rows
    return True, {name: bool(table.val[name] & lowest) for name in symbols}


def _cnf_is_sat(
    fs: Sequence[Formula | int], structures: Sequence[str | tuple] = ()
) -> tuple[bool, Assignment | None]:
    """``is_sat`` through Tseitin CNF and DPLL."""
    instance = to_cnf(fs, structures)
    model = _dpll(instance.var_count, instance.clauses)
    if model is None:
        return False, None
    return True, {name: model[var - 1] for name, var in instance.var_map.items()}


def enumerate_models(f: Formula, proj: Iterable[str]) -> list[Assignment]:
    """All distinct projections of models of ``f`` onto the ``proj`` symbols,
    over the sorted symbols with True first: ``SatOracle.enumerate_models``
    in a scope over atoms(f) ∪ proj, so projection symbols foreign to ``f``
    vary freely."""
    proj = sorted(set(proj))
    oracle = SatOracle()
    with oracle.scope(f.atoms | set(proj)):
        return list(oracle.enumerate_models(f, [Atom(name) for name in proj]))


def _bits(symbols: Sequence[str]) -> dict[str, int]:
    """Each of the sorted ``symbols`` with its bit in a place, the number of
    a truth-table row: the first symbol is the most significant bit."""
    return {a: 1 << (len(symbols) - 1 - j) for j, a in enumerate(symbols)}


def _on_rows(bits: dict[str, int], rows: Sequence[int]) -> dict[str, int]:
    """Each atom of ``bits`` with its truth set on the places ``rows``."""
    return {a: sum(1 << i for i, row in enumerate(rows) if row & bit) for a, bit in bits.items()}


class _Table(NamedTuple):
    """Truth sets on a grid of valuations, one bit per row: each atom's
    mask and every row."""

    val: dict[str, int]
    every: int

    @classmethod
    def truth_table(cls, symbols: Sequence[str]) -> _Table:
        """The truth table of the sorted ``symbols``: row r is place r."""
        return cls(truth_masks(symbols), (1 << (1 << len(symbols))) - 1)

    @classmethod
    def grid(cls, bits: dict[str, int], rows: Sequence[int]) -> _Table:
        """One row per place in ``rows``, over the atoms of ``bits``."""
        return cls(_on_rows(bits, rows), (1 << len(rows)) - 1)

    def number(self, structures: Sequence[str | tuple], known: Sequence[int] = ()) -> list[int]:
        """The masks of a numbering's ``structures`` by number, from one pass
        over them after the ``known`` masks of the first ones: an atom or a
        modality's name reads its mask, ``~`` complements, ``|`` ORs and
        ``false`` is 0."""
        val, every = self.val, self.every
        return _interpret(structures, val.__getitem__, every.__xor__, int.__or__, 0, known=known)

    def masks(
        self, fs: Sequence[Formula | int], structures: Sequence[str | tuple], numbered: list[int]
    ) -> list[int] | None:
        """The masks of ``fs``, a number's read off ``numbered``, the masks
        of ``structures`` (by ``number``).  A batch with a formula is
        numbered after ``structures`` (``_numbered``: a modal member raises
        ``ValueError``), and the new structures' masks come from one pass
        over them alone; None when it meets an atom outside the table.  No
        node fact is read."""
        masks = []
        for f in fs:  # a loop, not a comprehension: this runs on every question batch
            if type(f) is not int:
                break
            masks.append(numbered[f])
        else:
            return masks
        roots, structures = _numbered(fs, structures)
        try:
            values = self.number(structures, numbered)
        except KeyError:  # an atom outside the table
            return None
        return [values[root] for root in roots]


def _interpret(
    structures: Sequence[str | tuple], atom, neg, disj, false, numbers=None, known=()
) -> list:
    """The value of each of a numbering's ``structures`` by number, over
    the values of earlier ones: ``atom(name)`` for an atom's or a name's
    name, ``neg``, ``disj`` and ``false`` for ``(Not, i)``, ``(Or, i, j)``
    and ``(Bottom,)``; with ``numbers``, ascending and holding each of
    their children, of those alone (the others read None), and with
    ``known``, the values of the first ones, of the others alone."""
    values = [None] * len(structures)
    values[: len(known)] = known
    for sid in range(len(known), len(structures)) if numbers is None else numbers:
        s = structures[sid]  # a loop, not a comprehension: this runs once per structure
        if type(s) is str:
            values[sid] = atom(s)
        elif s[0] is Not:
            values[sid] = neg(values[s[1]])
        elif len(s) > 1:
            values[sid] = disj(values[s[1]], values[s[2]])
        else:
            values[sid] = false
    return values


class Members(tuple):
    """A truth set kept as the members whose conjunction it is, the
    per-query path's truth-set term: formulas, or signed numbers of a
    numbering's ``structures`` (i, or ~i for its negation).  ``a & b``
    lists ``a``'s members then ``b``'s, as ``&`` intersects two masks on the
    table path."""

    structures: Sequence[str | tuple] = ()

    def __new__(cls, members: Iterable[Formula | int] = (), structures: Sequence[str | tuple] = ()):
        term = tuple.__new__(cls, members)
        if structures:
            term.structures = structures
        return term

    def __and__(self, other: Members) -> Members:
        return Members(tuple.__add__(self, other), self.structures or other.structures)


TruthSet = int | Members


class _Scope(NamedTuple):
    """An oracle's state inside ``scope``: each of the scope's sorted atoms
    with its bit in a place; the truth table over them, or None when queries
    go to ``is_sat``; the structures of a numbering whose numbers stand for
    conditions, and on the table each one's mask, by number."""

    bits: dict[str, int]
    table: _Table | None
    structures: Sequence[str | tuple]
    numbered: list[int] | None


@dataclass
class SatOracle:
    """Counting facade over the oracle; one count per query.

    Callers ask about truth sets (``TruthSet``): ``truth_sets`` supplies
    those of given conditions and of their negations, callers intersect
    them with ``&``, and ``ask`` counts one query and says whether a set is
    non-empty.  An enumeration is a descent of such queries, so it counts
    one per branch it tries, whichever path answers it.

    A condition is a modality-free formula or, inside a scope given a
    numbering's structures, the number of one.  Inside ``scope(atoms,
    structures)`` with at most ``_TABLE_MAX_SYMBOLS`` atoms, a truth set is
    an int mask on one truth table over those atoms: a number's from one
    pass over the structures, and a batch with a formula is numbered after
    them and its new structures read by one more pass; a negation is the
    complement ``every ^ mask`` and a query is an AND of masks.
    Otherwise, and for a batch with an atom outside the scope, a truth set
    is its ``Members`` and ``ask`` hands them to ``is_sat``; a number's
    negation is then ``~i`` and a formula's ``Not(f)``.  Inside
    ``witnesses()``, ``ask`` also keeps each satisfied query's witness as a
    place over the scope's atoms.
    """

    calls: int = 0
    _scope: _Scope | None = field(default=None, init=False, repr=False, compare=False)
    _witnesses: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def truth_sets(
        self, fs: Sequence[Formula | int]
    ) -> tuple[TruthSet, list[TruthSet], list[TruthSet]]:
        """The set of all valuations, the truth sets of the conditions
        ``fs`` and those of their negations; no query is counted."""
        scope = self._scope
        structures = scope.structures if scope is not None else ()
        table = scope.table if scope is not None else None
        masks = table.masks(fs, structures, scope.numbered) if table is not None else None
        if masks is not None:
            every = table.every
            return every, masks, [every ^ mask for mask in masks]
        truth = [Members((f,), structures) for f in fs]
        falsity = [Members((~f if type(f) is int else Not(f),), structures) for f in fs]
        return Members((), structures), truth, falsity

    def ask(self, term: TruthSet) -> bool:
        """Whether a truth set is non-empty; one query.  Inside ``witnesses``
        a non-empty set's witness is kept."""
        self.calls += 1
        if isinstance(term, Members):
            sat, witness = is_sat(term)
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
        valuation).  Nothing is asked; the list is filled in on exit, and
        the previous collection restored.  Places need a scope: outside one
        this raises ``ValueError``."""
        self._places()
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
        condition's mask at the place; otherwise the conditions are read on
        a grid of the rows, as on the table.  A formula with an atom outside
        the scope raises ``ValueError``, and so does a call outside a
        scope."""
        scope = self._places()
        structures, table = scope.structures, scope.table
        masks = table.masks(fs, structures, scope.numbered) if table is not None else None
        if masks is None:
            grid = _Table.grid(scope.bits, rows)
            masks = grid.masks(fs, structures, grid.number(structures))
            if masks is None:
                raise ValueError("a formula has atoms outside the scope of its rows")
            return masks
        return [sum(1 << i for i, place in enumerate(rows) if mask >> place & 1) for mask in masks]

    def row_valuation(self, rows: Sequence[int]) -> dict[str, int]:
        """Each of the scope's sorted atoms with its truth set on ``rows``,
        places over them: bit i of a mask is ``rows[i]``.  Outside a scope
        this raises ``ValueError``."""
        return _on_rows(self._places().bits, rows)

    def _places(self) -> _Scope:
        """The open scope, whose atoms places are over; outside one this
        raises ``ValueError``."""
        if self._scope is None:
            raise ValueError("places are over a scope's atoms; open a scope first")
        return self._scope

    @contextmanager
    def scope(
        self, atoms: Iterable[str], structures: Sequence[str | tuple] = ()
    ) -> Iterator[None]:
        """Answer from one truth table over ``atoms`` until exit, or per
        query when they are too many.  Meanwhile the numbers of a
        numbering's ``structures``, whose atoms lie among ``atoms``, stand
        for conditions: on the table their masks come from one pass over
        them (``_Table.number``).  The previous scope is restored on exit,
        also on an exception."""
        saved = self._scope
        symbols = sorted(set(atoms))
        table = numbered = None
        if len(symbols) <= _TABLE_MAX_SYMBOLS:
            table = _Table.truth_table(symbols)
            numbered = table.number(structures)
        self._scope = _Scope(_bits(symbols), table, structures, numbered)
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
