"""Explicit model certificates for SAT verdicts.

A certificate is a concrete labelled transition system built from a
compatible guess: its states are exactly the context-satisfying valuations
over the pair's atoms, read off a truth table without oracle queries
(inside ``decide``, the truth table its guess checks already use), and
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
from itertools import compress
from typing import Callable

from .formula import Formula
from .propsat import SatOracle
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


def build_model(
    p, q, indices, *, witness_pre: Formula | None = None, oracle: SatOracle | None = None
) -> Certificate:
    """Build the explicit model for a positive/negative pair and the context
    indices of ``p`` (``khsat.global_indices``).

    ``witness_pre`` designates the propositional condition whose satisfying
    state (lowest-numbered) is recorded as the certificate's witness state.
    States are the context-satisfying valuations over the pair's atoms, in
    truth-table order (first sorted atom most significant, False first):
    the rows of the truth table of those atoms where no precondition of
    ``indices`` holds, not oracle queries.  Their count is exponential in
    the atom count; ``MAX_ATOMS`` caps it; a context that admits no
    valuation raises ``ValueError``.  The atom valuations and the pre-,
    post- and witness condition masks are the table's masks restricted to
    those rows.

    When ``oracle`` is in a table scope over exactly the pair's atoms, as
    inside ``decide``, the table and its cached masks are the scope's, so
    nothing is evaluated again; otherwise the table is built here and each
    condition evaluated on it with the model checker's evaluator.
    Soundness still rests on ``verify_certificate`` checking the original
    formula exactly.
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

    conditions = [side for conjunct in p.conjuncts for side in conjunct]
    if witness_pre is not None:
        conditions.append(witness_pre)
    shared = oracle.table_truth_sets(ordered_atoms, conditions) if oracle is not None else None
    if shared is None:
        table = truth_table(ordered_atoms)
        shared = table, [eval_formula(table, f) for f in conditions]
    table, masks = shared
    admitted = table.all_states
    for k in indices:
        admitted &= ~masks[2 * k - 2]
    if not admitted:
        raise ValueError("the context admits no state over the pair's atoms")
    restrict = _restriction(admitted, table.all_states)
    size = admitted.bit_count()
    state_ids = tuple(map("s{}".format, range(size)))
    val: dict[str, int] = {}
    for atom in ordered_atoms:
        mask = restrict(table.val[atom])
        if mask:
            val[atom] = mask

    # Context indices and conjuncts whose precondition never holds get no
    # action; an active action runs from each precondition state to every
    # postcondition state.
    succ: dict[str, tuple[int, ...]] = {}
    for k in range(1, p.n + 1):
        pre_mask = 0 if k in indices else restrict(masks[2 * k - 2])
        if pre_mask:
            post_of = {"0": 0, "1": restrict(masks[2 * k - 1])}
            succ[f"a{k}"] = tuple(map(post_of.__getitem__, f"{pre_mask:0{size}b}"[::-1]))

    witnesses = restrict(masks[-1]) if witness_pre is not None else 0
    witness_state = state_ids[(witnesses & -witnesses).bit_length() - 1] if witnesses else None
    return Certificate(Lts(state_ids, tuple(succ), succ, val), witness_state, tuple(succ))


def _restriction(admitted: int, every: int) -> Callable[[int], int]:
    """Maps a mask over the table's rows to one over the ``admitted`` rows,
    the i-th lowest admitted row becoming bit i."""
    if admitted == every:
        return lambda mask: mask
    width = every.bit_length()
    keep = [bit == "1" for bit in f"{admitted:0{width}b}"[::-1]]

    def restrict(mask: int) -> int:
        # Row bits lowest first, the admitted ones picked out, read back.
        return int("".join(compress(f"{mask:0{width}b}"[::-1], keep))[::-1], 2)

    return restrict


def verify_certificate(certificate: Certificate, original: Formula) -> bool:
    """Exact check: the original formula holds at some certificate state."""
    return eval_formula(certificate.model, original) != 0
