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

from dataclasses import dataclass
from functools import reduce
from operator import attrgetter

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
    fold,
)


@dataclass(frozen=True)
class FlattenResult:
    """Modality-free skeleton plus ordered fresh-atom definitions."""

    phi0: Formula
    defs: tuple[tuple[Atom, Kh], ...]

    def definitions(self) -> Formula:
        """The definition conjunct: A _ki <-> leaf_i for every definition."""
        parts = [Iff(Univ(k), leaf) for k, leaf in self.defs]
        return reduce(And, parts) if parts else Top()


def flatten(f: Formula, *, allow_reserved: bool = False) -> FlattenResult:
    """Flatten to leaf normal form in two passes over the core form, each
    visiting a shared node once: a walk collects the distinct modalities,
    and one fold replaces each by its name.  Renaming is injective, so two
    modalities share a name exactly when they are equal.

    Inputs containing reserved ``_k…`` atoms are rejected unless
    ``allow_reserved`` is set (useful for re-flattening an already flattened
    skeleton, which introduces no fresh atoms and hence cannot collide).
    """
    core = f.core  # the same atoms as ``f``, and the tree every later layer reads
    if not allow_reserved:
        reserved = sorted(a for a in core.atoms if a.startswith(RESERVED_PREFIX))
        if reserved:
            raise ValueError(
                f"input uses reserved atom(s) {', '.join(reserved)}; "
                f"the {RESERVED_PREFIX!r} prefix is for generated definitions"
            )
    found: dict[Formula, None] = {}  # the distinct modalities, by first occurrence
    seen, stack = set(), [core]  # ``seen``: ids of the visited nodes
    while stack:  # pre-order, left to right, below depth-0 nodes no further
        node = stack.pop()
        if node.depth and id(node) not in seen:
            seen.add(id(node))
            if type(node) is Kh:
                found.setdefault(node)
            stack += reversed(node.children)
    ordered = sorted(found, key=attrgetter("depth"))  # stable: depth 1 first, then 2, ...
    names = {kh: _core_node(Atom, f"{RESERVED_PREFIX}{i}") for i, kh in enumerate(ordered, 1)}

    definitions: dict[Atom, Kh] = {}

    def combine(node: Formula, children: list[Formula]) -> Formula:
        value = _core_node(type(node), *children)
        if type(node) is Kh:
            definitions.setdefault(names[node], value)
            value = names[node]
        return value

    phi0 = fold(core, combine, lambda node: node if node.depth == 0 else None)
    return FlattenResult(phi0, tuple((k, definitions[k]) for k in names.values()))
