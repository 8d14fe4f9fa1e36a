"""The satisfiability decision procedure for leaf-normal-form inputs.

Pipeline (all satisfiability questions are propositional oracle calls):

1. Flatten the input into a skeleton ``phi0`` and definitions
   ``_ki := Kh(pre_i, post_i)``.
2. Guess lazily: a depth-first descent over the definition atoms, in
   definition order and True first, asks the oracle which partial
   valuations ``phi0`` admits; each full one partitions the definitions into
   asserted (``P+``) and denied (``P-``) sets and yields a candidate pair
   (positive conjunction, negative conjunction).
3. Check the pair for compatibility: a context fixpoint, swept until a sweep
   forces nothing, forces some asserted postconditions to be globally false;
   a composition closure over the conjuncts left live tracks which witness
   plans chain; every denied conjunct must stay deniable against all of
   that.  Each check reads every side's truth set and its complement once
   (``SatOracle.truth_sets``) and asks each question it cannot already
   answer once, as their intersection (``SatOracle.ask``): bitmasks inside
   ``decide``'s table scope, otherwise members for ``is_sat``, in the same
   order and with the same count.
4. The first compatible guess (descending lexicographic order, all-true
   first, ``_k1`` most significant) whose built certificate verifies against
   the original formula yields SAT, and the descent stops there; exhausting
   all guesses yields UNSAT.

``plain`` mode builds the pair exactly as stated above.  ``augmented`` mode
additionally pins every definition atom's value globally (asserted atoms true
everywhere, denied atoms false everywhere) — closing a soundness gap that
``plain`` mode instead handles by certificate gating (see ``decide``).  A pin's
postcondition is false, so the first context sweep forces every pin and the
context lies inside the guess; nothing is conjoined to the existential
conjunct (phi0, false).  ``decide`` names every condition by its
structure's number in ``flatten``'s numbering (``Numbering``: phi0, false,
each definition's sides, name and pin ``~_ki``) and builds no formula for
it; the pair specs and the checks take formulas too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import certificate
from .formula import Formula, render
from .normalform import FlattenResult, flatten
from .propsat import SatOracle, TruthSet

# ---------------------------------------------------------------------------
# Domain types


Condition = Formula | int  # a modality-free formula, or a structure's number in flatten's numbering


def _require_flat(conjuncts: tuple[tuple[Condition, Condition], ...], statement: str) -> None:
    """Reject a conjunct with a modal side, naming it as ``statement``
    followed by its sides; a number names a modality-free structure."""
    for conjunct in conjuncts:
        for side in conjunct:
            if type(side) is not int and side.depth != 0:
                raise ValueError(f"{statement}({', '.join(map(render, conjunct))}) is not flat")


@dataclass(frozen=True)
class PositiveSpec:
    """Ordered conjunction of asserted know-how statements Kh(pre, post)."""

    conjuncts: tuple[tuple[Condition, Condition], ...]

    def __post_init__(self) -> None:
        _require_flat(self.conjuncts, "positive conjunct Kh")

    @property
    def n(self) -> int:
        return len(self.conjuncts)

    def pre(self, i: int) -> Condition:
        return self.conjuncts[i - 1][0]

    def post(self, i: int) -> Condition:
        return self.conjuncts[i - 1][1]


@dataclass(frozen=True)
class NegativeSpec:
    """Ordered conjunction of denied know-how statements ~Kh(pre, post)."""

    conjuncts: tuple[tuple[Condition, Condition], ...]

    def __post_init__(self) -> None:
        _require_flat(self.conjuncts, "negative conjunct ~Kh")

    @property
    def m(self) -> int:
        return len(self.conjuncts)


@dataclass(frozen=True)
class GuessPartition:
    """A guessed valuation of the definition atoms."""

    p_plus: tuple[int, ...]
    p_minus: tuple[int, ...]
    k_assignment: dict[str, bool] = field(hash=False)

    def __post_init__(self) -> None:
        overlap = set(self.p_plus) & set(self.p_minus)
        if overlap:
            raise ValueError(f"partition overlap: {sorted(overlap)}")


class Result(enum.Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"


@dataclass(frozen=True)
class GuessRecord:
    """One tried guess; the verdict keeps them when decide runs with tracing."""

    k_assignment: dict[str, bool] = field(hash=False)
    n: int
    m: int
    compatible: bool
    certificate_verified: bool | None
    oracle_calls: int
    rescued: bool = False


@dataclass(frozen=True)
class Verdict:
    result: Result
    mode: str
    guesses_tried: int
    partition: "GuessPartition | None" = None
    certificate: "object | None" = None  # certificate.Certificate on SAT
    flattening: FlattenResult | None = None
    enumeration_calls: int = 0
    certificate_calls: int = 0
    trace: tuple[GuessRecord, ...] | None = None


# ---------------------------------------------------------------------------
# Context fixpoint, composition closure and compatibility


def _sides(spec: PositiveSpec | NegativeSpec) -> list[Condition]:
    """The conjuncts' sides in order: pre 1, post 1, pre 2, post 2, ..."""
    return [side for conjunct in spec.conjuncts for side in conjunct]


def _context(every: TruthSet, not_pre: list[TruthSet], indices: frozenset[int]) -> TruthSet:
    """The context's truth set: the negated preconditions of ``indices``, in
    index order, intersected with ``every``."""
    context = every
    for k in sorted(indices):
        context &= not_pre[k - 1]
    return context


def global_indices(p: PositiveSpec, oracle: SatOracle | None = None) -> frozenset[int]:
    """Indices whose postconditions are unsatisfiable in context.

    Each sweep tests every remaining index against the context assembled so
    far, then folds the newly forced ones in; the sweeps stop at one that
    forces nothing, which asked ``context ∧ post_x`` for every unforced x.
    The indices are the whole context: its truth set is ``_context`` of them.
    """
    oracle = oracle or SatOracle()
    every, truth, falsity = oracle.truth_sets(_sides(p))
    post, not_pre = truth[1::2], falsity[0::2]
    indices: set[int] = set()
    context = every
    while newly := [
        k for k in range(1, p.n + 1) if k not in indices and not oracle.ask(context & post[k - 1])
    ]:
        for k in newly:
            indices.add(k)
            context &= not_pre[k - 1]
    return frozenset(indices)


def _reach(oracle: SatOracle, context: TruthSet, post: list, not_pre: list, live) -> list[int]:
    """Closure rows over the 0-indexed conjuncts ``live``, each asked against
    each, the diagonal too: bit y of row x says conjunct x + 1's plans chain
    to conjunct y + 1's.  Rows outside ``live`` stay 0."""
    reach = [0] * len(post)
    for x in live:
        reach[x] = 1 << x
        for y in live:
            if not oracle.ask(context & post[x] & not_pre[y]):
                reach[x] |= 1 << y
    for mid in live:
        for x in live:
            if reach[x] >> mid & 1:
                reach[x] |= reach[mid]
    return reach


def composition_closure(
    p: PositiveSpec, indices: frozenset[int], oracle: SatOracle | None = None
) -> frozenset[tuple[int, int]]:
    """Reflexive-transitive closure of the plan-chaining edge relation over
    all conjuncts, as 1-indexed pairs (x, y).

    There is an edge x → y when, under the context of ``indices``, every
    state reached by conjunct x's plans satisfies conjunct y's precondition
    — so y's plan can always run after x's."""
    oracle = oracle or SatOracle()
    every, truth, falsity = oracle.truth_sets(_sides(p))
    post, not_pre = truth[1::2], falsity[0::2]
    reach = _reach(oracle, _context(every, not_pre, indices), post, not_pre, range(p.n))
    return frozenset((x + 1, y + 1) for x in range(p.n) for y in range(p.n) if reach[x] >> y & 1)


def compatible(
    p: PositiveSpec,
    q: NegativeSpec,
    oracle: SatOracle | None = None,
    indices: frozenset[int] | None = None,
) -> bool:
    """Joint satisfiability of a positive and a negative conjunction.

    Checks, in order: (1) the context itself is satisfiable; (2a) each denied
    conjunct has a precondition state escaping its postcondition, in context;
    (2b) for every denied conjunct j and every closure pair (x, y) where x is
    realizable in context and j's precondition forces x's, some state
    reachable through y's postcondition must still escape j's — otherwise the
    chained plan would witness the denied statement.  (2b) asks j's trigger
    once per x and its obligation once per y.

    The context is that of ``indices`` (``global_indices`` when None): the
    negated preconditions of those conjuncts, in index order.  The closure
    ranges over the live conjuncts, those outside ``indices``: a forced
    conjunct is never realizable, and a live one never chains to it, since
    that question is ``context ∧ post_x``, which the last sweep answered.
    """
    oracle = oracle or SatOracle()
    if indices is None:
        indices = global_indices(p, oracle)
    every, truth, falsity = oracle.truth_sets(_sides(p) + _sides(q))
    split = 2 * p.n  # where q's sides begin
    pre, post, not_pre = truth[0:split:2], truth[1:split:2], falsity[0:split:2]
    denied_pre, denied_escape = truth[split::2], falsity[split + 1 :: 2]
    context = _context(every, not_pre, indices)
    if not oracle.ask(context):
        return False
    for j in range(q.m):
        if not oracle.ask(context & denied_pre[j] & denied_escape[j]):
            return False
    live = [x for x in range(p.n) if x + 1 not in indices]
    reach = _reach(oracle, context, post, not_pre, live)
    realizable = [x for x in live if oracle.ask(context & pre[x])]
    for j in range(q.m):
        in_pre_j, escaped = context & denied_pre[j], 0  # bit y: y's obligation asked
        for x in realizable:
            if oracle.ask(in_pre_j & not_pre[x]):
                continue  # j's precondition does not force x's
            todo, escaped = reach[x] & ~escaped, escaped | reach[x]
            for y in live:
                if todo >> y & 1 and not oracle.ask(context & post[y] & denied_escape[j]):
                    return False
    return True


def per_guess_call_bound(n: int, m: int) -> int:
    """Documented closed-form ceiling on oracle calls per guess: context
    sweeps + (1) + (2a) + realizability + closure edges + (2b) triggers and
    obligations per closure pair (the check asks at most 2mn of those)."""
    return n * (n + 1) + 1 + m + n + n * n + 2 * m * n * n


# ---------------------------------------------------------------------------
# Top-level decision procedure


def _partition(result: FlattenResult, assignment: dict[str, bool]) -> GuessPartition:
    numbered = list(enumerate(result.numbering.names, start=1))
    return GuessPartition(
        p_plus=tuple(i for i, k in numbered if assignment[k]),
        p_minus=tuple(i for i, k in numbered if not assignment[k]),
        k_assignment=dict(assignment),
    )


def _build_pair(
    sides: list[tuple[Condition, Condition]],
    pins: list[tuple[tuple[Condition, Condition], tuple[Condition, Condition]]],
    exis: tuple[Condition, Condition],
    values: list[bool],
    mode: str,
) -> tuple[PositiveSpec, NegativeSpec]:
    """The candidate pair for the guess giving the definitions ``values``,
    picked from ``decide``'s conditions: each definition's (pre, post) in
    ``sides``, its pins ((~_ki, false), (_ki, false)) in ``pins``, and the
    existential conjunct (phi0, false)."""
    asserted = [i for i, value in enumerate(values) if value]
    denied = [i for i, value in enumerate(values) if not value]
    positives = [sides[i] for i in asserted]
    if mode == "augmented":
        positives += [pins[i][0] for i in asserted] + [pins[i][1] for i in denied]
    return PositiveSpec(tuple(positives)), NegativeSpec(tuple([sides[i] for i in denied] + [exis]))


def _check_guess(
    p: PositiveSpec, q: NegativeSpec, original: Formula, oracle: SatOracle
) -> tuple[bool, certificate.Certificate | None]:
    """One guess's pair through the check: whether it is compatible, and its
    certificate if that verifies against the original formula.

    The certificate's states are the witnesses of this check's satisfied
    queries alone, and its witness state is one where the existential
    conjunct's precondition holds; building and verifying it asks the
    oracle nothing.
    """
    with oracle.witnesses() as rows:
        indices = global_indices(p, oracle)
        ok = compatible(p, q, oracle, indices)
    if not ok:
        return False, None
    exis_pre = q.conjuncts[-1][0]
    candidate = certificate.build_model(p, indices, rows, witness_pre=exis_pre, oracle=oracle)
    return True, candidate if certificate.verify_certificate(candidate, original) else None


def decide(
    f: Formula,
    mode: str = "plain",
    *,
    oracle: SatOracle | None = None,
    trace: bool = False,
) -> Verdict:
    """Decide satisfiability; SAT verdicts carry a verified certificate.

    A compatible guess is accepted only if a certificate built for it
    verifies against the original formula.  In ``plain`` mode the candidate
    pair does not pin the definition atoms' global values, so the first
    certificate attempt can fail on alternation-deep inputs; the same guess
    is then checked again on its atom-pinning (``augmented``) pair.  A guess
    whose certificates all fail is recorded in the trace and skipped.
    """
    if mode not in ("plain", "augmented"):
        raise ValueError(f"unknown mode {mode!r}")
    oracle = oracle or SatOracle()
    flattening = flatten(f)
    # Every condition a pair picks is the number of its structure in the
    # flattening's numbering; no formula is built for it.
    numbering = flattening.numbering
    false = numbering.false
    sides = numbering.sides
    pins = [((pin, false), (k, false)) for k, pin in zip(numbering.atoms, numbering.pins)]
    exis = (numbering.phi0, false)
    records: list[GuessRecord] = []
    certificate_calls = 0
    cert = None
    start = oracle.calls
    # Every query of the call, the guess enumeration's too, draws its atoms
    # from the flattening's vocabulary, and the numbers stand for their
    # structures: masks on the scope's table, or signed numbers per query.
    with oracle.scope(flattening.vocabulary, numbering.structures):
        # Definition order, True first: all-true first, _k1 most significant.
        guesses = oracle.enumerate_models(numbering.phi0, numbering.atoms, numbering.names)
        for assignment in guesses:
            values = [assignment[k] for k in numbering.names]
            p, q = _build_pair(sides, pins, exis, values, mode)
            before = oracle.calls
            ok, cert = _check_guess(p, q, f, oracle)
            guess_calls = oracle.calls - before
            # With every definition atom forced to its guessed value globally,
            # each definition's literal reading coincides with its expansion,
            # so a certificate for the atom-pinning pair also satisfies the
            # original formula whenever that pair is itself compatible.
            retry = ok and cert is None and mode == "plain"
            if retry:
                before = oracle.calls
                pair = _build_pair(sides, pins, exis, values, "augmented")
                cert = _check_guess(*pair, f, oracle)[1]
                certificate_calls += oracle.calls - before
            records.append(
                GuessRecord(
                    k_assignment=dict(assignment),
                    n=p.n,
                    m=q.m,
                    compatible=ok,
                    certificate_verified=cert is not None if ok else None,
                    oracle_calls=guess_calls,
                    rescued=retry and cert is not None,
                )
            )
            if cert is not None:
                break

    # The queries that no guess check made are the guess enumeration's.
    checks = sum(record.oracle_calls for record in records) + certificate_calls
    enumeration_calls = oracle.calls - start - checks
    return Verdict(
        result=Result.SAT if cert is not None else Result.UNSAT,
        mode=mode,
        guesses_tried=len(records),
        partition=_partition(flattening, assignment) if cert is not None else None,
        certificate=cert,
        flattening=flattening,
        enumeration_calls=enumeration_calls,
        certificate_calls=certificate_calls,
        trace=tuple(records) if trace else None,
    )


def oracle_call_count(verdict: Verdict) -> int:
    """Largest per-guess oracle-call count of a traced decide run."""
    if verdict.trace is None:
        raise ValueError("decide ran without tracing; per-guess counts unavailable")
    if not verdict.trace:
        return 0
    return max(record.oracle_calls for record in verdict.trace)
