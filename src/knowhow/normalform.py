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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

from .formula import And, Atom, Bottom, Exis, Formula, Iff, Implies, Kh, Not, Or, Top, Univ
from .formula import RESERVED_PREFIX, _DESUGAR, _MODAL, _keep, fold


class Numbering(NamedTuple):
    """The distinct core structures of an input in post-order, each an atom's
    or a name's name, ``(Not, i)``, ``(Or, i, j)`` or ``(Bottom,)`` over earlier
    numbers; ``phi0``, the definitions' pres and posts and the names by number."""

    structures: list[str | tuple]
    numbered: list[tuple[Formula, int]]


@dataclass(frozen=True)
class FlattenResult:
    """Modality-free skeleton plus ordered fresh-atom definitions, the
    sorted atoms of both, which ``decide`` scopes its oracle over, and their
    numbering, which ``decide`` evaluates on the scope's table."""

    phi0: Formula
    defs: tuple[tuple[Atom, Kh], ...]
    vocabulary: tuple[str, ...] = field(compare=False, repr=False)
    numbering: Numbering = field(compare=False, repr=False)

    def definitions(self) -> Formula:
        """The definition conjunct: A _ki <-> leaf_i for every definition."""
        parts = [Iff(Univ(k), leaf) for k, leaf in self.defs]
        return reduce(And, parts) if parts else Top()


def _built(cls: type, *fields: object) -> Formula:
    """A new node, kept at the modal depth it has when every modality below
    it is named (1 for a definition, else 0); as there may be sugar below
    it, it is not marked as its own core form."""
    node = cls(*fields)
    _keep(node, "depth", int(cls is Kh))
    return node


def flatten(f: Formula, *, allow_reserved: bool = False) -> FlattenResult:
    """Flatten to leaf normal form in two passes over ``f`` as written, each
    visiting a shared node once.  A walk numbers every node's core
    structure, equal for nodes with equal core forms, and collects the
    atoms; the structures inside a sugar node's core form are numbered too,
    each at its own modal depth.  One fold then replaces each modality by
    its name.  Renaming is injective, so two modalities share a name exactly
    when their core forms are equal.  No node fact is read or filled: the
    depth-0 nodes the fold reuses, and the nodes it builds, keep their modal
    depth, which is what the pair specs check.

    Inputs containing reserved ``_k…`` atoms are rejected unless
    ``allow_reserved`` is set (useful for re-flattening an already flattened
    skeleton, which introduces no fresh atoms and hence cannot collide).
    """
    ids: dict[int, int] = {}  # id of a visited node of ``f`` -> the number of its core structure
    structures: dict[object, int] = {}  # an atom's name, or a core class and child numbers
    depths: list[int] = []  # modal depth by number
    atoms: set[str] = set()

    def number(structure: object, depth: int) -> int:
        sid = structures.get(structure)
        if sid is None:  # the first of its structure
            sid = structures[structure] = len(depths)
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

    try:
        visit(f)
    except RecursionError:  # the same post-order in one frame, each node once its children are
        fold(f, lambda node, _: visit(node), lambda node: ids.get(id(node)))
    finally:
        del visit  # empties the closure's own cell: no cycle for the collector
    if not allow_reserved:
        reserved = sorted(a for a in atoms if a.startswith(RESERVED_PREFIX))
        if reserved:
            raise ValueError(
                f"input uses reserved atom(s) {', '.join(reserved)}; "
                f"the {RESERVED_PREFIX!r} prefix is for generated definitions"
            )
    shapes = list(structures)  # by number; an atom's name is a str, whose first item is no class
    # Equal depths never nest, so post-order keeps pre-order's order of first
    # occurrence within a depth; the sort is stable: depth 1 first, then 2, ...
    ordered = sorted((sid for sid, s in enumerate(shapes) if s[0] is Kh), key=depths.__getitem__)
    names = {sid: _built(Atom, f"{RESERVED_PREFIX}{i}") for i, sid in enumerate(ordered, 1)}
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
    numbered = [(phi0, ids[id(f)])]
    for sid in ordered:
        numbered += zip(definitions[sid].children, shapes[sid][1:])
    for sid, name in names.items():
        numbered.append((name, sid))
        shapes[sid] = name.name  # a modality reads its name
    vocabulary = tuple(sorted(atoms.union(name.name for name in names.values())))
    defs = tuple((names[sid], definitions[sid]) for sid in ordered)
    return FlattenResult(phi0, defs, vocabulary, Numbering(shapes, numbered))
