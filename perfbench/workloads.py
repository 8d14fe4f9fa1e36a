"""The benchmark's workloads: seeded inputs, the timed op, the correctness gate.

Every input comes from ``knowhow.oracle.random_formula`` / ``random_lts`` with
a seed derived from the run's seed, so a seed fixes the whole input stream.
Ops call the program through module attributes (``khsat.decide``, not a
local name) so the span wrappers of a traced run see them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from knowhow import khsat, oracle, semantics
from knowhow.certificate import verify_certificate
from knowhow.formula import And, Kh, Not, Or, Univ, parse
from knowhow.khsat import Result

SEED_STRIDE = 1_000_000  # input seeds of run seed s are s * SEED_STRIDE + i


def formula_stream(depth: int, leaves: int, atoms: tuple[str, ...], seed: int) -> Iterator[tuple[int, object]]:
    """(input seed, formula) pairs for run seed ``seed``."""
    for i in itertools.count():
        input_seed = seed * SEED_STRIDE + i
        yield input_seed, oracle.random_formula(depth, leaves, atoms, input_seed)


@dataclass(frozen=True)
class DecideWorkload:
    """Plain ``decide`` on one random formula per op."""

    name: str
    depth: int
    leaves: int
    atoms: tuple[str, ...]
    budget_s: float
    digest_ops: int

    def inputs(self, seed: int) -> Iterator[tuple[int, object]]:
        return formula_stream(self.depth, self.leaves, self.atoms, seed)

    def warm_up(self) -> None:
        self.op((-1, parse("Kh(p & q, r) | ~Kh(p, E q)")), traced=False)

    def op(self, item, *, traced: bool):
        return khsat.decide(item[1], trace=traced)

    def check(self, item, verdict) -> bool:
        return certificate_holds(verdict, item[1])

    def digest(self, item, verdict) -> str:
        return f"{item[0]}\t{verdict_text(verdict)}"

    def verdicts(self, verdict) -> list:
        return [verdict]


@dataclass(frozen=True)
class DifferentialWorkload:
    """What ``knowhow check --mode differential --max-states 2`` does per
    formula: plain ``decide``, augmented ``decide``, then the falsifier."""

    name: str
    depth: int
    leaves: int
    atoms: tuple[str, ...]
    max_states: int
    random_trials: int
    budget_s: float
    digest_ops: int

    def inputs(self, seed: int) -> Iterator[tuple[int, object]]:
        return formula_stream(self.depth, self.leaves, self.atoms, seed)

    def warm_up(self) -> None:
        # An unsatisfiable input walks the falsifier's whole exhaustive box,
        # which builds every witness table it caches.
        self.op((-1, parse("p & ~p")), traced=False)

    def op(self, item, *, traced: bool):
        input_seed, f = item
        plain = khsat.decide(f, "plain", trace=traced)
        augmented = khsat.decide(f, "augmented", trace=traced)
        bounds = oracle.SearchBounds(
            max_states=self.max_states, random_trials=self.random_trials, seed=input_seed
        )
        return plain, augmented, oracle.bounded_sat_search(f, bounds)

    def check(self, item, output) -> bool:
        f = item[1]
        plain, augmented, model = output
        if plain.result is not augmented.result:
            return False
        if not (certificate_holds(plain, f) and certificate_holds(augmented, f)):
            return False
        # A model the falsifier found refutes an UNSAT verdict.
        return model is None or (
            plain.result is Result.SAT and semantics.eval_formula(model, f) != 0
        )

    def digest(self, item, output) -> str:
        plain, augmented, model = output
        found = semantics.dump_model(model) if model is not None else "no model"
        return f"{item[0]}\t{verdict_text(plain)}\n{verdict_text(augmented)}\n{found}"

    def verdicts(self, output) -> list:
        return list(output[:2])


# The criterion-9 laws.  Each takes the truth sets of its formulas and the
# all-states mask, and says whether the law holds on the model.
LAWS = (
    # Empty goal: Kh(b, a & ~a) holds exactly when b holds nowhere.
    (lambda a, b, c, d: (Kh(b, And(a, Not(a))), Not(b)),
     lambda m, every: (m[0] == every) == (m[1] == every)),
    # Universal modality: A c holds iff c holds at every state.
    (lambda a, b, c, d: (Univ(c), c),
     lambda m, every: m[0] == (every if m[1] == every else 0)),
    # Precondition weakening and postcondition strengthening.
    (lambda a, b, c, d: (Kh(a, b), Kh(And(a, c), Or(b, d))),
     lambda m, every: not (m[0] & ~m[1])),
    # Composition through an intermediate condition.
    (lambda a, b, c, d: (Kh(c, a), Kh(Or(a, b), d), Kh(c, d)),
     lambda m, every: not (m[0] & m[1] & ~m[2])),
)


@dataclass(frozen=True)
class ModelcheckWorkload:
    """One criterion-9 law check per op: exact ``eval_formula`` calls on a
    small random model, no oracle and no ``decide``."""

    name: str
    atoms: tuple[str, ...]
    formulas_per_model: int
    budget_s: float
    digest_ops: int

    def inputs(self, seed: int) -> Iterator[tuple]:
        for m in itertools.count():
            # Model shapes cycle with the model index, as in criterion 9.
            model_seed = seed * SEED_STRIDE + m
            model = oracle.random_lts(
                1 + m % 5, m % 4, self.atoms[: 1 + m % 3], 0.2 + 0.2 * (m % 3), model_seed
            )
            for j in range(self.formulas_per_model):
                operands = [
                    oracle.random_formula(0, 0, self.atoms, model_seed * 100 + 4 * j + k)
                    for k in range(4)
                ]
                for law, (formulas, _) in enumerate(LAWS):
                    yield (model_seed, j, law), model, formulas(*operands)

    def warm_up(self) -> None:
        self.op(next(self.inputs(0)), traced=False)

    def op(self, item, *, traced: bool):
        _, model, formulas = item
        return tuple(semantics.eval_formula(model, g) for g in formulas)

    def check(self, item, masks) -> bool:
        (_, _, law), model, _ = item
        return LAWS[law][1](masks, model.all_states)

    def digest(self, item, masks) -> str:
        return f"{item[0]}\t{masks}"

    def verdicts(self, masks) -> list:
        return []


def certificate_holds(verdict, f) -> bool:
    """The gate on a decide verdict: a SAT certificate must verify against
    the original formula; an UNSAT verdict carries none."""
    if verdict.result is Result.UNSAT:
        return verdict.certificate is None
    return verdict.certificate is not None and verify_certificate(verdict.certificate, f)


def verdict_text(verdict) -> str:
    if verdict.certificate is None:
        return verdict.result.value
    return f"{verdict.result.value}\n{verdict.certificate.dump()}"


_PQR = ("p", "q", "r")

WORKLOADS = {
    w.name: w
    for w in (
        # Bulk regime: certificate construction does most of the decide work.
        DecideWorkload("decide-m", 3, 3, _PQR, budget_s=10.0, digest_ops=500),
        # Tiny certificates, so it bypasses certificate changes; the time goes
        # to compatibility queries and the falsifier.
        DifferentialWorkload(
            "differential-s", 2, 2, ("p", "q"), max_states=2, random_trials=200,
            budget_s=10.0, digest_ops=1000,
        ),
        # Only the semantics layer runs: no oracle, no decide.
        ModelcheckWorkload("modelcheck", _PQR, formulas_per_model=25, budget_s=10.0, digest_ops=10_000),
        # Exponential-certificate regime, where budget overruns and
        # CapacityError show.  Not in BENCHMARK.json: its figures spread too
        # much across seeds (see README.md).
        DecideWorkload("decide-xl", 4, 10, ("p", "q", "r", "s", "t", "u"), budget_s=1.5, digest_ops=60),
    )
}
