"""Explicit model certificates for SAT verdicts.

A certificate is a concrete labelled transition system built from a
compatible guess and the witnesses of the queries its check satisfied
(``SatOracle.witnesses``), each a place over the atoms of the oracle's
scope.  Its states are the distinct witness places where no forced
precondition holds, and its valuation is the scope's atoms on them.
Inside ``decide`` the scope is the flattening's vocabulary, the atoms of
``phi0`` and of the definitions' sides, and every pair mentions them all
(``phi0`` in the existential conjunct).  Each surviving positive conjunct
contributes one action, the full product of its precondition states and
its postcondition states, stored as the postcondition mask on every
precondition state.  Conjuncts forced into the context, or whose
precondition never holds, get no action: the empty plan witnesses them.
The oracle reads the sides' truth sets on the states
(``SatOracle.row_truth_sets``; inside ``decide`` bit by bit off the masks
its truth table already holds, otherwise evaluated on the states with the
model checker's evaluator) and the atoms' (``SatOracle.row_valuation``):
nothing is evaluated twice on the table path and no atom set is built.

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
from typing import Iterable

from .formula import Formula
from .propsat import SatOracle
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
    p, indices, rows: Iterable[int], *, witness_pre: Formula | int | None = None, oracle: SatOracle,
) -> Certificate:
    """The explicit model for a positive conjunction ``p`` of a checked
    pair, the context indices of ``p`` (``khsat.global_indices``) and the
    witness ``rows`` of the pair's check, places over the atoms of
    ``oracle``'s scope (``SatOracle.witnesses``), which must still be open.

    States are the distinct rows where no precondition of ``indices``
    holds, in truth-table order (first sorted atom most significant, False
    first): ascending places.  None left raises ``ValueError``.  The
    conditions' and the atoms' truth sets on them are read at those places
    (``oracle.row_truth_sets``, ``oracle.row_valuation``).  The witness
    state is the lowest-numbered one where ``witness_pre`` holds.  The
    pair's negative conjunction enters through the rows alone.
    """
    valuations = sorted(set(rows))
    forced = 0
    for mask in oracle.row_truth_sets([p.pre(k) for k in sorted(indices)], valuations):
        forced |= mask
    valuations = [row for i, row in enumerate(valuations) if not forced >> i & 1]
    if not valuations:
        raise ValueError("the context admits no state among the witness rows")

    live = [k for k in range(1, p.n + 1) if k not in indices]
    conditions = [side for k in live for side in (p.pre(k), p.post(k))]
    if witness_pre is not None:
        conditions.append(witness_pre)
    masks = oracle.row_truth_sets(conditions, valuations)
    states = tuple(map("s{}".format, range(len(valuations))))
    succ: dict[str, tuple[int, ...]] = {}
    for k, pre_mask, post_mask in zip(live, masks[0::2], masks[1::2]):
        if pre_mask:
            succ[f"a{k}"] = tuple(post_mask if pre_mask >> i & 1 else 0 for i in range(len(states)))

    witnesses = masks[-1] if witness_pre is not None else 0
    witness_state = states[(witnesses & -witnesses).bit_length() - 1] if witnesses else None
    val = {a: mask for a, mask in oracle.row_valuation(valuations).items() if mask}
    return Certificate(Lts(states, tuple(succ), succ, val), witness_state, tuple(succ))


def verify_certificate(certificate: Certificate, original: Formula) -> bool:
    """Exact check: the original formula holds at some certificate state."""
    return eval_formula(certificate.model, original) != 0
