"""Explicit model certificates for SAT verdicts.

A certificate is a concrete labelled transition system built from a
compatible guess and the witnesses of the queries its check satisfied
(``SatOracle.witnesses``).  Its states are the distinct witness valuations
where no forced precondition holds.  Each surviving positive conjunct
contributes one action, the full product of its precondition states and its
postcondition states, stored as the postcondition mask on every
precondition state.  Conjuncts forced into the context, or whose
precondition never holds, get no action: the empty plan witnesses them.

Why the witness rows suffice: each question of the check asks whether the
context meets some intersection of sides and complements.  One answered yes
has its witness among the rows; one answered no stays no on any subset of
the context.  So the check answers alike over the rows and over the whole
context, and the product construction it justifies there is justified on
the rows, at most one state per satisfied query whatever the atom count.
Verification is exact, and SAT rests on it: the original formula is
evaluated on the certificate model and must hold somewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .formula import Formula
from .semantics import Lts, dump_model, eval_formula


class CapacityError(Exception):
    """Never raised: certificates have no atom cap.  Kept importable because
    the benchmark harness (``perfbench/run.py``) still catches it."""


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


def build_model(
    p, q, indices, rows: Iterable[frozenset[str]], *, witness_pre: Formula | None = None
) -> Certificate:
    """The explicit model for a positive/negative pair, the context indices
    of ``p`` (``khsat.global_indices``) and the witness ``rows`` of the
    pair's check, each the set of atoms it makes true.

    States are the distinct rows over the pair's atoms where no
    precondition of ``indices`` holds, in truth-table order (first sorted
    atom most significant, False first); none left raises ``ValueError``.
    Conditions are evaluated on them with the model checker's evaluator.
    The witness state is the lowest-numbered one where ``witness_pre`` holds.
    """
    atoms = set().union(*(pre.atoms | post.atoms for pre, post in p.conjuncts + q.conjuncts))
    if witness_pre is not None:
        atoms |= witness_pre.atoms
    ordered = sorted(atoms)
    valuations = sorted({row & atoms for row in rows}, key=lambda row: [a in row for a in ordered])
    grid = _grid(valuations, ordered)
    forced = 0
    for k in indices:
        forced |= eval_formula(grid, p.pre(k))
    if forced:
        grid = _grid([row for i, row in enumerate(valuations) if not forced >> i & 1], ordered)

    succ: dict[str, tuple[int, ...]] = {}
    states = range(len(grid.states))
    for k in range(1, p.n + 1):
        pre_mask = 0 if k in indices else eval_formula(grid, p.pre(k))
        if pre_mask:
            post_mask = eval_formula(grid, p.post(k))
            succ[f"a{k}"] = tuple(post_mask if pre_mask >> i & 1 else 0 for i in states)

    witnesses = eval_formula(grid, witness_pre) if witness_pre is not None else 0
    witness_state = grid.states[(witnesses & -witnesses).bit_length() - 1] if witnesses else None
    return Certificate(Lts(grid.states, tuple(succ), succ, grid.val), witness_state, tuple(succ))


def _grid(valuations: Sequence[frozenset[str]], atoms: Sequence[str]) -> Lts:
    """One state per valuation, in order, over ``atoms``; no actions."""
    if not valuations:
        raise ValueError("the context admits no state among the witness rows")
    masks = {a: sum(1 << i for i, row in enumerate(valuations) if a in row) for a in atoms}
    val = {a: mask for a, mask in masks.items() if mask}
    return Lts(tuple(map("s{}".format, range(len(valuations)))), (), {}, val)


def verify_certificate(certificate: Certificate, original: Formula) -> bool:
    """Exact check: the original formula holds at some certificate state."""
    return eval_formula(certificate.model, original) != 0
