"""Explicit model certificates for SAT verdicts.

A certificate is a concrete labelled transition system built from a
compatible guess: its states are exactly the context-satisfying valuations
over the pair's atoms, read off a truth table without oracle queries, and
each surviving positive conjunct contributes one action whose relation is
the full product of its precondition states and its postcondition states,
stored directly as the postcondition mask on every precondition state.
Conjuncts whose postcondition is forced false in context (the context
indices) or whose precondition never holds get no action — their
statements are witnessed by no plan needing them, or vacuously by the empty
plan.

Verification is exact: the original formula is evaluated on the certificate
model and must hold somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Formula
from .semantics import Lts, dump_model, eval_formula, truth_table

MAX_ATOMS = 12


class CapacityError(Exception):
    """Raised when a certificate would need more atoms than ``MAX_ATOMS``."""


@dataclass(frozen=True)
class Certificate:
    model: Lts
    witness_state: str | None
    active_actions: tuple[str, ...]

    def dump(self) -> str:
        extra: dict[str, object] = {"active_actions": list(self.active_actions)}
        if self.witness_state is not None:
            extra["witness_state"] = self.witness_state
        return dump_model(self.model, extra=extra)


def build_model(p, q, ctx, *, witness_pre: Formula | None = None) -> Certificate:
    """Build the explicit model for a positive/negative pair and its context.

    ``witness_pre`` designates the propositional condition whose satisfying
    state (lowest-numbered) is recorded as the certificate's witness state.
    States are the context-satisfying valuations over the pair's atoms, in
    truth-table order (first sorted atom most significant, False first),
    found by one evaluation of ``ctx.psi`` on that table, not by oracle
    queries.  Their count is exponential in the atom count; ``MAX_ATOMS``
    caps it; a context that admits no valuation raises ``ValueError``.
    Pre- and postconditions are read on that state grid with the
    model checker's evaluator; soundness still rests on
    ``verify_certificate`` checking the original formula exactly.
    """
    atoms: set[str] = set()
    for pre, post in p.conjuncts + q.conjuncts:
        atoms |= pre.atoms | post.atoms
    if witness_pre is not None:
        atoms |= witness_pre.atoms
    ordered_atoms = sorted(atoms)
    n = len(ordered_atoms)
    if n > MAX_ATOMS:
        raise CapacityError(f"certificate needs {n} atoms; cap is {MAX_ATOMS}")

    admitted = eval_formula(truth_table(ordered_atoms), ctx.psi)
    if not admitted:
        raise ValueError("the context admits no state over the pair's atoms")
    rows = [row for row in range(1 << n) if admitted >> row & 1]
    state_ids = tuple(f"s{i}" for i in range(len(rows)))
    val: dict[str, int] = {}
    for j, atom in enumerate(ordered_atoms):
        bit = n - 1 - j
        mask = sum(1 << i for i, row in enumerate(rows) if row >> bit & 1)
        if mask:
            val[atom] = mask
    grid = Lts(state_ids, (), {}, val)

    # Context indices and conjuncts whose precondition never holds get no
    # action; an active action runs from each precondition state to every
    # postcondition state.
    succ: dict[str, tuple[int, ...]] = {}
    for k in range(1, p.n + 1):
        pre_mask = 0 if k in ctx.indices else eval_formula(grid, p.pre(k))
        if pre_mask:
            post_mask = eval_formula(grid, p.post(k))
            succ[f"a{k}"] = tuple(
                post_mask if pre_mask >> i & 1 else 0 for i in range(len(rows))
            )

    witnesses = eval_formula(grid, witness_pre) if witness_pre is not None else 0
    witness_state = grid.state_ids(witnesses)[0] if witnesses else None
    return Certificate(Lts(state_ids, tuple(succ), succ, val), witness_state, tuple(succ))


def verify_certificate(certificate: Certificate, original: Formula) -> bool:
    """Exact check: the original formula holds at some certificate state."""
    return eval_formula(certificate.model, original) != 0
