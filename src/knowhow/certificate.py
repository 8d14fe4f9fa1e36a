"""Explicit model certificates for SAT verdicts.

A certificate is a concrete labelled transition system built from a
compatible guess: its states are exactly the context-satisfying valuations
over the pair's atoms, read off a truth table without oracle queries, and
each surviving positive conjunct contributes one action whose relation is
the full product of its precondition states and its postcondition states.
Conjuncts whose postcondition is forced false in context (the context
indices) or whose precondition never holds get no action — their
statements are witnessed by no plan needing them, or vacuously by the empty
plan.

Verification is exact: the original formula is evaluated on the certificate
model and must hold somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import Formula, atoms_of
from .semantics import Lts, dump_model, eval_formula, make_lts, truth_table

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
        atoms |= atoms_of(pre) | atoms_of(post)
    if witness_pre is not None:
        atoms |= atoms_of(witness_pre)
    ordered_atoms = sorted(atoms)
    n = len(ordered_atoms)
    if n > MAX_ATOMS:
        raise CapacityError(f"certificate needs {n} atoms; cap is {MAX_ATOMS}")

    admitted = eval_formula(truth_table(ordered_atoms), ctx.psi)
    if not admitted:
        raise ValueError("the context admits no state over the pair's atoms")
    rows = [row for row in range(1 << n) if admitted >> row & 1]
    state_ids = [f"s{i}" for i in range(len(rows))]
    props = {
        sid: [a for j, a in enumerate(ordered_atoms) if row >> (n - 1 - j) & 1]
        for sid, row in zip(state_ids, rows)
    }
    grid = make_lts(state_ids, props, {})

    def holding(f: Formula) -> list[str]:
        return grid.state_ids(eval_formula(grid, f))

    # Context indices and conjuncts whose precondition never holds get no action.
    rel: dict[str, list[tuple[str, str]]] = {}
    for k in range(1, p.n + 1):
        pre_states = [] if k in ctx.indices else holding(p.pre(k))
        if pre_states:
            post_states = holding(p.post(k))
            rel[f"a{k}"] = [(s, t) for s in pre_states for t in post_states]

    witnesses = holding(witness_pre) if witness_pre is not None else []
    witness_state = witnesses[0] if witnesses else None
    return Certificate(make_lts(state_ids, props, rel), witness_state, tuple(rel))


def verify_certificate(certificate: Certificate, original: Formula) -> bool:
    """Exact check: the original formula holds at some certificate state."""
    return eval_formula(certificate.model, original) != 0
