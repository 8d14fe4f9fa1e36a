"""Output parity of the decision pipeline over two seeded suites.

Runs ``decide`` in both modes with tracing, and ``flatten``, on
``random_formula(2, 2, (p, q))`` seeds 0-149 and
``random_formula(3, 3, (p, q, r))`` seeds 0-99, and hashes everything they
produce: verdicts, guess counts, partitions, oracle-call counters, every
``GuessRecord`` field, the dumped certificates and the leaf normal forms.
``EXPECTED_DIGEST`` pins that output, so a refactor that should change no
output can prove it.  A change that alters the digest on purpose (compact
certificates, ROADMAP item 4, for one) must record the new digest here and
justify the difference in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib

from knowhow.formula import render
from knowhow.khsat import decide
from knowhow.normalform import flatten
from knowhow.oracle import random_formula
from knowhow.propsat import SatOracle

SUITES = (
    (2, 2, ("p", "q"), range(150)),
    (3, 3, ("p", "q", "r"), range(100)),
)

EXPECTED_DIGEST = "c80055ce0de60f84d79da232b8bb9a84109ba402dcae9ba01b4191ca9255f62e"


def _assignment(assignment: dict[str, bool]) -> str:
    return " ".join(f"{k}={int(v)}" for k, v in sorted(assignment.items()))


def _lines(f):
    flattening = flatten(f)
    yield f"formula {render(f)}"
    yield f"skeleton {render(flattening.phi0)}"
    for k, leaf in flattening.defs:
        yield f"def {k.name} := {render(leaf)}"
    for mode in ("plain", "augmented"):
        oracle = SatOracle()
        verdict = decide(f, mode, oracle=oracle, trace=True)
        yield (
            f"{mode} {verdict.result.value} tried={verdict.guesses_tried} "
            f"enumeration={verdict.enumeration_calls} "
            f"certificate={verdict.certificate_calls} total={oracle.calls}"
        )
        if verdict.partition is not None:
            part = verdict.partition
            yield f"partition +{part.p_plus} -{part.p_minus} {_assignment(part.k_assignment)}"
        for record in verdict.trace:
            yield (
                f"guess {_assignment(record.k_assignment)} n={record.n} m={record.m} "
                f"compatible={record.compatible} verified={record.certificate_verified} "
                f"calls={record.oracle_calls} rescued={record.rescued}"
            )
        if verdict.certificate is not None:
            yield verdict.certificate.dump()


def suite_digest() -> str:
    digest = hashlib.sha256()
    for depth, leaves, atoms, seeds in SUITES:
        for seed in seeds:
            for line in _lines(random_formula(depth, leaves, atoms, seed)):
                digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_decide_and_flatten_output_matches_recorded_digest():
    assert suite_digest() == EXPECTED_DIGEST
