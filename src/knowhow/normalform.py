"""Leaf normal form: eliminate nested modalities by naming them.

``flatten`` rewrites a formula into a modality-free skeleton ``phi0`` plus an
ordered list of definitions ``_ki := Kh(pre, post)`` whose sides are
modality-free.  Every distinct modality gets one fresh ``_ki`` atom: those of
modal depth 1 first, then those of depth 2, and so on, each depth in
left-to-right order of first occurrence.  A definition's sides are the
modality's own sides with every modality inside replaced by its name, so
they mention only earlier names.  The conjunction of ``phi0`` with the
definition biconditionals ``A _ki <-> Kh(pre, post)`` is satisfiable exactly
when the input is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .formula import (
    And,
    Atom,
    Formula,
    Iff,
    Kh,
    RESERVED_PREFIX,
    Top,
    Univ,
    _core_node,
    _keep,
    fold,
)


@dataclass(frozen=True)
class FlattenResult:
    """Modality-free skeleton plus ordered fresh-atom definitions, and the
    sorted atoms of both, which ``decide`` scopes its oracle over."""

    phi0: Formula
    defs: tuple[tuple[Atom, Kh], ...]
    vocabulary: tuple[str, ...] = field(compare=False, repr=False)

    def definitions(self) -> Formula:
        """The definition conjunct: A _ki <-> leaf_i for every definition."""
        parts = [Iff(Univ(k), leaf) for k, leaf in self.defs]
        return reduce(And, parts) if parts else Top()


def _built(cls: type, *fields: object) -> Formula:
    """A new node of the core fragment, kept at the modal depth it has when
    every modality below it is named: 1 for a definition, else 0."""
    node = _core_node(cls, *fields)
    _keep(node, "depth", int(cls is Kh))
    return node


def flatten(f: Formula, *, allow_reserved: bool = False) -> FlattenResult:
    """Flatten to leaf normal form in two passes over the core form, each
    visiting a shared node once: a walk gives every node its modal depth and
    a structural id, equal for equal nodes, and collects the atoms and the
    distinct modalities; one fold replaces each modality by its name.
    Renaming is injective, so two modalities share a name exactly when they
    are equal.  No node fact is read or filled: the depth-0 nodes the fold
    reuses, and the nodes it builds, keep their modal depth, which is what
    the pair specs check.

    Inputs containing reserved ``_k…`` atoms are rejected unless
    ``allow_reserved`` is set (useful for re-flattening an already flattened
    skeleton, which introduces no fresh atoms and hence cannot collide).
    """
    core = f.core  # the same atoms as ``f``, and the tree every later layer reads
    ids: dict[int, int] = {}  # id of a visited node -> its structural id
    structures: dict[object, int] = {}  # an atom's name, or a class and child ids -> structural id
    depths: list[int] = []  # modal depth by structural id
    atoms: set[str] = set()
    found: dict[int, Kh] = {}  # structural id of each distinct modality -> its first node

    def visit(node: Formula) -> int:
        """Number ``node`` after the children not numbered yet; loops, not
        comprehensions, since this runs once per node."""
        cls = type(node)
        if cls is Atom:
            structure, depth = node.name, 0
            atoms.add(node.name)
        else:
            structure, depth = [cls], 0
            for child in node.children:
                sid = ids.get(id(child))
                if sid is None:
                    sid = visit(child)
                structure.append(sid)
                if depths[sid] > depth:
                    depth = depths[sid]
            structure, depth = tuple(structure), depth + (cls is Kh)
        sid = structures.get(structure)
        if sid is None:  # the first node of its structure
            sid = structures[structure] = len(depths)
            depths.append(depth)
            if cls is Kh:
                found[sid] = node
        ids[id(node)] = sid
        return sid

    try:
        visit(core)
    except RecursionError:  # the same post-order on a stack, visiting a node once its children are
        stack = [core]
        while stack:
            pending = [child for child in stack[-1].children if id(child) not in ids]
            if pending:
                stack += reversed(pending)
            elif id(node := stack.pop()) not in ids:
                visit(node)
    finally:
        del visit  # empties the closure's own cell: no cycle for the collector
    if not allow_reserved:
        reserved = sorted(a for a in atoms if a.startswith(RESERVED_PREFIX))
        if reserved:
            raise ValueError(
                f"input uses reserved atom(s) {', '.join(reserved)}; "
                f"the {RESERVED_PREFIX!r} prefix is for generated definitions"
            )
    # Equal depths never nest, so post-order keeps pre-order's order of first
    # occurrence within a depth; the sort is stable: depth 1 first, then 2, ...
    ordered = sorted(found, key=depths.__getitem__)
    names = {sid: _built(Atom, f"{RESERVED_PREFIX}{i}") for i, sid in enumerate(ordered, 1)}

    definitions: dict[int, Kh] = {}

    def combine(node: Formula, children: list[Formula]) -> Formula:
        value = _built(type(node), *children)
        if type(node) is Kh:
            sid = ids[id(node)]
            definitions.setdefault(sid, value)
            value = names[sid]
        return value

    def reuse(node: Formula) -> Formula | None:
        if depths[ids[id(node)]]:
            return None
        _keep(node, "depth", 0)
        return node

    phi0 = fold(core, combine, reuse)
    vocabulary = tuple(sorted(atoms.union(name.name for name in names.values())))
    return FlattenResult(phi0, tuple((names[sid], definitions[sid]) for sid in ordered), vocabulary)
