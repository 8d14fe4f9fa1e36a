"""Leaf normal form: eliminate nested modalities by naming them.

``flatten`` rewrites a formula into a modality-free skeleton ``phi0`` plus an
ordered list of definitions ``_ki := Kh(pre, post)`` whose sides are
modality-free.  Each pass collects the current innermost modalities
(modal depth exactly 1) left to right, replaces every occurrence of each with
a fresh ``_ki`` atom, and repeats until no modality remains.  The conjunction
of ``phi0`` with the definition biconditionals ``A _ki <-> Kh(pre, post)`` is
satisfiable exactly when the input is.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _name_leaves(f: Formula, names: dict[Kh, Atom], first: int) -> Formula:
    """Replace every depth-1 modality of the core formula ``f`` by its name,
    assigning fresh names ``_k{first}``, ``_k{first+1}``, ... in
    left-to-right first-occurrence order.  The nodes it rebuilds are core
    nodes, and are marked so."""

    def leaf(g: Formula) -> Formula | None:
        if g.depth == 0:
            return g
        if isinstance(g, Kh) and g.depth == 1:
            if g not in names:
                names[g] = _core_node(Atom, f"{RESERVED_PREFIX}{first + len(names)}")
            return names[g]
        return None

    return fold(f, lambda g, children: _core_node(type(g), *children), leaf)


def flatten(f: Formula, *, allow_reserved: bool = False) -> FlattenResult:
    """Flatten to leaf normal form.

    Inputs containing reserved ``_k…`` atoms are rejected unless
    ``allow_reserved`` is set (useful for re-flattening an already flattened
    skeleton, which introduces no fresh atoms and hence cannot collide).
    """
    phi0 = f.core  # the same atoms as ``f``, and the tree every later layer reads
    if not allow_reserved:
        reserved = sorted(a for a in phi0.atoms if a.startswith(RESERVED_PREFIX))
        if reserved:
            raise ValueError(
                f"input uses reserved atom(s) {', '.join(reserved)}; "
                f"the {RESERVED_PREFIX!r} prefix is for generated definitions"
            )
    defs: list[tuple[Atom, Kh]] = []
    while phi0.depth != 0:
        names: dict[Kh, Atom] = {}
        phi0 = _name_leaves(phi0, names, len(defs) + 1)
        defs.extend((atom, leaf) for leaf, atom in names.items())
    return FlattenResult(phi0, tuple(defs))
