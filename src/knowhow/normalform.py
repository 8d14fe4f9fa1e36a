"""Leaf normal form: eliminate nested modalities by naming them.

``flatten`` rewrites a formula into a modality-free skeleton ``phi0`` plus an
ordered list of definitions ``_ki := Kh(pre, post)`` whose sides are
modality-free.  Every distinct modality gets one fresh ``_ki`` atom: those
of modal depth 1 first, then those of depth 2, and so on, each depth in
left-to-right order of first occurrence.  ``A g`` is named as its core form
``Kh(~g, false)``, and ``E g`` becomes ``~`` of a name for ``Kh(~~g,
false)``.  A definition's sides are the modality's own sides, sugar kept,
with every modality inside replaced by its name, so they mention only
earlier names.  The conjunction of ``phi0`` with the definition
biconditionals ``A _ki <-> Kh(pre, post)`` is satisfiable exactly when the
input is.

``flatten`` numbers the core structures first (``number_core``) and builds
``phi0`` and the definitions only when one of them is read: ``decide``
reads its conditions by their numbers (``Numbering``) and builds no formula
for them.  The numbering is the only core form there is: the oracle
numbers its own members with ``number_core`` too, and a Tseitin encoding
(``propsat.to_cnf``) reads the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import count, islice
from typing import NamedTuple, Sequence

from .formula import And, Atom, Bottom, Exis, Formula, Iff, Implies, Kh, Not, Or, Top, Univ
from .formula import RESERVED_PREFIX, _DESUGAR, _MODAL, _keep, fold


class Numbering(NamedTuple):
    """The distinct core structures of an input in post-order, each an atom's
    or a name's name, ``(Not, i)``, ``(Or, i, j)`` or ``(Bottom,)`` over
    earlier numbers, and the numbers of the conditions ``decide`` reads:
    ``phi0``'s, ``false``'s and, per definition in order, its name's, its
    sides' and its pin's ``~_ki``."""

    structures: list[str | tuple]
    phi0: int
    false: int
    names: tuple[str, ...]  # the definitions' names, in order
    atoms: tuple[int, ...]  # the number of each name
    sides: tuple[tuple[int, int], ...]  # the numbers of each definition's pre and post
    pins: tuple[int, ...]  # the number of each ~_ki


@dataclass(frozen=True)
class FlattenResult:
    """Modality-free skeleton plus ordered fresh-atom definitions, the
    sorted atoms of both, which ``decide`` scopes its oracle over, and their
    numbering, which ``decide`` evaluates on the scope's table.

    A result of ``flatten`` builds ``phi0`` and ``defs`` on the first read
    of either, and then lets go of the input's nodes it kept for that."""

    phi0: Formula
    defs: tuple[tuple[Atom, Kh], ...]
    vocabulary: tuple[str, ...] = field(compare=False, repr=False)
    numbering: Numbering | None = field(compare=False, repr=False)

    def __getattr__(self, name: str) -> object:  # only for what the instance lacks
        rename = self.__dict__.get("_rename") if name in ("phi0", "defs") else None
        if rename is None:
            raise AttributeError(name)
        phi0, defs = rename()
        _keep(self, "phi0", phi0)
        _keep(self, "defs", defs)
        object.__delattr__(self, "_rename")
        return getattr(self, name)

    def __getstate__(self) -> dict[str, object]:
        # Pickle the fields only: the pending fold reads nodes by identity.
        return {name: getattr(self, name) for name in ("phi0", "defs", "vocabulary", "numbering")}

    def definitions(self) -> Formula:
        """The definition conjunct: A _ki <-> leaf_i for every definition."""
        parts = [Iff(Univ(k), leaf) for k, leaf in self.defs]
        return reduce(And, parts) if parts else Top()


def _built(cls: type, *fields: object) -> Formula:
    """A new node, kept at the modal depth it has when every modality below
    it is named (1 for a definition, else 0)."""
    node = cls(*fields)
    _keep(node, "depth", int(cls is Kh))
    return node


def number_core(fs: Sequence[Formula], base: Sequence[str | tuple] = ()) -> tuple:
    """Number the core structures of the formulas ``fs`` into one table,
    after the structures of ``base`` (each at modal depth 0): a walk over
    each formula as written, visiting a shared node once, gives every node
    the number of its core structure, equal for nodes with equal core
    forms; the structures inside a sugar node's core form are numbered too,
    each at its own modal depth.  Numbers follow the post-order of the
    walk, so a structure's children have lower numbers.  The walk recurses
    once per nesting level; past the recursion limit ``fold`` finishes it
    in one frame.

    Returns each formula's number, the structures by number, as
    ``Numbering`` holds them, each one's modal depth, the number of each
    visited node by id, the atoms met, and ``number(structure, depth)``,
    which numbers one more structure."""
    keys = {s: sid for sid, s in enumerate(base)}  # a structure -> its number
    structures, depths = list(base), [0] * len(base)
    ids: dict[int, int] = {}  # id of a visited node -> the number of its core structure
    atoms: set[str] = set()

    def number(structure: object, depth: int) -> int:
        sid = keys.get(structure)
        if sid is None:  # the first of its structure
            sid = keys[structure] = len(structures)
            structures.append(structure)
            depths.append(depth)
        return sid

    def neg(child: int) -> int:
        return number((Not, child), depths[child])

    def disj(left: int, right: int) -> int:
        return number((Or, left, right), max(depths[left], depths[right]))

    def desugar(cls: type, *sids: int) -> int:
        """The number of a sugar node's core form over its children's, by
        the rules of ``formula._DESUGAR``, each structure inside it at its
        own modal depth."""
        if cls is And:
            return neg(disj(neg(sids[0]), neg(sids[1])))
        if cls is Implies:
            return disj(neg(sids[0]), sids[1])
        if cls is Iff:
            left, right = sids
            return neg(disj(neg(disj(neg(left), right)), neg(disj(neg(right), left))))
        false = number((Bottom,), 0)
        if cls is Top:
            return neg(false)
        pre = neg(sids[0]) if cls is Univ else neg(neg(sids[0]))  # Kh(~g, false) or ~Kh(~~g, false)
        kh = number((Kh, pre, false), depths[pre] + 1)
        return kh if cls is Univ else neg(kh)

    def visit(node: Formula) -> int:
        """Number ``node`` after the children not numbered yet; loops, not
        comprehensions, since this runs once per node."""
        cls = type(node)
        if cls is Atom:
            atoms.add(node.name)
            sid = number(node.name, 0)
        else:
            structure, depth = [cls], 0
            for child in node.children:
                sid = ids.get(id(child))
                if sid is None:
                    sid = visit(child)
                structure.append(sid)
                if depths[sid] > depth:
                    depth = depths[sid]
            sid = desugar(*structure) if cls in _DESUGAR else number(tuple(structure), depth + (cls is Kh))
        ids[id(node)] = sid
        return sid

    tops = []
    try:
        for f in fs:
            try:
                tops.append(visit(f))
            except RecursionError:  # the same post-order in one frame, each node once its children are
                tops.append(fold(f, lambda node, _: visit(node), lambda node: ids.get(id(node))))
    finally:
        del visit  # empties the closure's own cell: no cycle for the collector
    return tops, structures, depths, ids, atoms, number


def flatten(f: Formula, *, allow_reserved: bool = False) -> FlattenResult:
    """Flatten to leaf normal form: ``number_core`` numbers the core
    structures of ``f`` and collects its atoms, and ``false`` and each
    name's negation, the pins that ``decide`` reads, are numbered after
    them.  Renaming is injective, so two modalities share a name exactly
    when their core forms are equal.

    ``phi0`` and ``defs`` are built on first read, by one fold over ``f``
    that replaces each modality by its name (``_rename``).  No node fact is
    read or filled: the depth-0 nodes the fold reuses, and the nodes it
    builds, keep their modal depth, which is what the pair specs check.

    The result is kept on ``f``, so flattening the same object again walks
    nothing and returns the same result: ``decide``'s second mode in a
    differential check reads it.  Nothing is kept when ``f`` has no
    modality (it is its own ``phi0``; keeping it would make a reference
    cycle) or when ``allow_reserved`` is set, so a result is kept only once
    the reserved-atom check has passed.  A kept result folds over a copy of
    ``f``'s root, not over ``f``, which it would otherwise refer back to.

    Inputs containing reserved ``_k…`` atoms are rejected unless
    ``allow_reserved`` is set (useful for re-flattening an already flattened
    skeleton); the names are then the first of ``_k1, _k2, …`` that are not
    among the input's atoms, so a name never stands for an input atom.
    """
    kept = getattr(f, "_flattening", None)
    if kept is not None:
        return kept
    (top,), shapes, depths, ids, atoms, number = number_core([f])
    if not allow_reserved:
        reserved = sorted(a for a in atoms if a.startswith(RESERVED_PREFIX))
        if reserved:
            raise ValueError(
                f"input uses reserved atom(s) {', '.join(reserved)}; "
                f"the {RESERVED_PREFIX!r} prefix is for generated definitions"
            )
    # Equal depths never nest, so post-order keeps pre-order's order of first
    # occurrence within a depth; the sort is stable: depth 1 first, then 2, ...
    kh = [sid for sid, s in enumerate(shapes) if s[0] is Kh]  # an atom's name: no class
    ordered = sorted(kh, key=depths.__getitem__)
    false, pins = number((Bottom,), 0), tuple([number((Not, sid), depths[sid]) for sid in ordered])
    sides = tuple([shapes[sid][1:] for sid in ordered])
    fresh = (name for name in map(f"{RESERVED_PREFIX}{{}}".format, count(1)) if name not in atoms)
    names = tuple(islice(fresh, len(ordered)))
    for sid, name in zip(ordered, names):
        shapes[sid] = name  # a modality reads its name
    numbering = Numbering(shapes, top, false, names, tuple(ordered), sides, pins)
    keep = bool(ordered) and not allow_reserved
    root = type(f)(*f.children) if keep else f  # a result kept on ``f`` must not refer to ``f``
    ids[id(root)] = ids.pop(id(f))
    result = object.__new__(FlattenResult)
    _keep(result, "vocabulary", tuple(sorted(atoms.union(names))))
    _keep(result, "numbering", numbering)
    _keep(result, "_rename", partial(_rename, root, ids, depths, numbering))
    if keep:
        _keep(f, "_flattening", result)
    return result


def _rename(
    f: Formula, ids: dict[int, int], depths: list[int], numbering: Numbering
) -> tuple[Formula, tuple[tuple[Atom, Kh], ...]]:
    """``phi0`` and the definitions of ``flatten``'s walk over ``f``: one
    fold that replaces each modality by its name, builds each definition
    once, over its sides' folds, and reuses every node without a modality."""
    shapes = numbering.structures
    names = {sid: _built(Atom, name) for sid, name in zip(numbering.atoms, numbering.names)}
    false = _built(Bottom)
    definitions: dict[int, Kh] = {}

    def combine(node: Formula, children: list[Formula]) -> Formula:
        cls = type(node)
        if cls not in _MODAL:
            return _built(cls, *children)
        sid = ids[id(node)]
        if cls is Exis:  # ~ of the name of Kh(~~g, false)
            sid = shapes[sid][1]
        if sid not in definitions:
            if cls is Kh:
                definitions[sid] = _built(Kh, *children)
            else:  # A g names Kh(~g, false), E g names Kh(~~g, false)
                pre = _built(Not, children[0])
                definitions[sid] = _built(Kh, pre if cls is Univ else _built(Not, pre), false)
        return _built(Not, names[sid]) if cls is Exis else names[sid]

    def reuse(node: Formula) -> Formula | None:
        if depths[ids[id(node)]]:
            return None
        _keep(node, "depth", 0)
        return node

    phi0 = fold(f, combine, reuse)
    return phi0, tuple((names[sid], definitions[sid]) for sid in numbering.atoms)
