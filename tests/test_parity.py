"""Output parity of the decision pipeline over two seeded suites.

Runs ``decide`` in both modes with tracing, and ``flatten``, on
``random_formula(2, 2, (p, q))`` seeds 0-149 and
``random_formula(3, 3, (p, q, r))`` seeds 0-99, and hashes what they produce
into two digests:

- the output digest: verdicts, guess counts, partitions, every
  ``GuessRecord`` field except its call count, the dumped certificates and the
  leaf normal forms;
- the counter digest: the ``enumeration``, ``certificate`` and ``total``
  oracle-call counters of each run and each guess's call count.

Both digests are also recomputed in a fresh interpreter under a fixed,
non-default ``PYTHONHASHSEED``: output must not depend on string hashing,
which changes how every dict- or set-keyed formula cache is laid out.

``EXPECTED_OUTPUT_DIGEST`` pins what the solver answers, so a refactor that
should change no output can prove it; ``EXPECTED_COUNTER_DIGEST`` pins how many
oracle queries it took.  A change that alters either digest on purpose must
record the new value here and justify the difference in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from knowhow.formula import render
from knowhow.khsat import decide
from knowhow.normalform import flatten
from knowhow.oracle import random_formula
from knowhow.propsat import SatOracle

SUITES = (
    (2, 2, ("p", "q"), range(150)),
    (3, 3, ("p", "q", "r"), range(100)),
)

EXPECTED_OUTPUT_DIGEST = "70db8884121825db7b155b3e12f591b6ff75e9fa507e990bb96eb5312a2acbe4"
EXPECTED_COUNTER_DIGEST = "70d5653d598eb2a6ddde1e001e041563e938ac52e753d8ff24de1f38efdd414b"


def _assignment(assignment: dict[str, bool]) -> str:
    return " ".join(f"{k}={int(v)}" for k, v in sorted(assignment.items()))


def _lines(f):
    """(output line, counter line or None) pairs for one formula."""
    flattening = flatten(f)
    yield f"formula {render(f)}", None
    yield f"skeleton {render(flattening.phi0)}", None
    for k, leaf in flattening.defs:
        yield f"def {k.name} := {render(leaf)}", None
    for mode in ("plain", "augmented"):
        oracle = SatOracle()
        verdict = decide(f, mode, oracle=oracle, trace=True)
        yield (
            f"{mode} {verdict.result.value} tried={verdict.guesses_tried}",
            f"{mode} enumeration={verdict.enumeration_calls} "
            f"certificate={verdict.certificate_calls} total={oracle.calls}",
        )
        if verdict.partition is not None:
            part = verdict.partition
            yield f"partition +{part.p_plus} -{part.p_minus} {_assignment(part.k_assignment)}", None
        for record in verdict.trace:
            yield (
                f"guess {_assignment(record.k_assignment)} n={record.n} m={record.m} "
                f"compatible={record.compatible} verified={record.certificate_verified} "
                f"rescued={record.rescued}",
                f"guess calls={record.oracle_calls}",
            )
        if verdict.certificate is not None:
            yield verdict.certificate.dump(), None


def suite_digests() -> tuple[str, str]:
    output, counters = hashlib.sha256(), hashlib.sha256()
    for depth, leaves, atoms, seeds in SUITES:
        for seed in seeds:
            for out_line, counter_line in _lines(random_formula(depth, leaves, atoms, seed)):
                output.update(out_line.encode() + b"\n")
                if counter_line is not None:
                    counters.update(counter_line.encode() + b"\n")
    return output.hexdigest(), counters.hexdigest()


def test_decide_and_flatten_output_matches_recorded_digest():
    output, counters = suite_digests()
    assert output == EXPECTED_OUTPUT_DIGEST
    assert counters == EXPECTED_COUNTER_DIGEST


def test_digests_do_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED="5", PYTHONPATH=str(root / "src"))
    script = "from tests.test_parity import suite_digests; print(*suite_digests())"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == [EXPECTED_OUTPUT_DIGEST, EXPECTED_COUNTER_DIGEST]
