"""The cold-start contract: no path of the decision procedure or the CLI
loads numpy or ``subprocess``; the package uses neither.

Each check runs in a fresh interpreter, so modules the test session has
already imported cannot hide an import, and compares ``sys.modules`` with
what that interpreter had loaded before its first statement.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from knowhow.oracle import random_lts
from knowhow.semantics import dump_model

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_FORMULA = "Kh(p, q) & ~Kh(q, p)"


def _fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter that imports ``knowhow`` from this
    checkout, with ``args`` as ``sys.argv[1:]``; it prints one JSON document
    as its last line, returned parsed."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


_NO_NUMPY = """
import sys
start = set(sys.modules)
import contextlib, io, json
from knowhow import decide, eval_formula, flatten, parse
from knowhow.cli import main
from knowhow.oracle import random_formula, random_lts

model_file, text = sys.argv[1:]
f = parse(text)
verdicts = [decide(f, mode).result.value for mode in ("plain", "augmented")]
flatten(f)
eval_formula(random_lts(3, 2, ("p", "q"), 0.3, 0), f)
random_formula(3, 3, ("p", "q", "r"), 0)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(argv)
        for argv in (
            ["check", text],
            ["check", text, "--mode", "augmented"],
            ["flatten", text],
            ["modelcheck", model_file, text],
            ["gen", "formula"],
        )
    ]
added = [name for name in ("numpy", "subprocess") if name in set(sys.modules) - start]
print(json.dumps({"verdicts": verdicts, "codes": codes, "added": added}))
"""


def test_the_decision_procedure_and_the_cli_load_no_numpy_or_subprocess(tmp_path):
    model_file = tmp_path / "model.json"
    model_file.write_text(dump_model(random_lts(3, 2, ("p", "q"), 0.3, 0)))
    run = _fresh(_NO_NUMPY, str(model_file), _FORMULA)
    assert run["verdicts"] == ["SAT", "SAT"]
    assert run["codes"] == [10, 10, 0, 0, 0]
    assert run["added"] == []


_FALSIFIER = """
import sys
if sys.argv[1] == "numpy-first":
    import numpy
import contextlib, io, json
from knowhow import parse
from knowhow.cli import main
from knowhow.oracle import bounded_sat_search
from knowhow.semantics import dump_model

entry, *texts = sys.argv[2:]
before = "numpy" in sys.modules
answers = []
for text in texts:
    if entry == "bounded_sat_search":
        model = bounded_sat_search(parse(text))
        answers.append(None if model is None else dump_model(model))
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", text, "--mode", "differential", "--format", "json"])
        answers.append([code, json.loads(out.getvalue())["oracle_check"]])
print(json.dumps({"before": before, "after": "numpy" in sys.modules, "answers": answers}))
"""


@pytest.mark.parametrize("entry", ["bounded_sat_search", "check-differential"])
def test_the_falsifier_loads_no_numpy_and_answers_alike(entry):
    # In the default box: the first formula's model has 3 states, and the
    # contradiction makes the sweep build the witness tables of all nine
    # shapes up to 3 states and 2 actions.
    texts = ["p & q & E (p & ~q) & E ~p", "p & ~p"]
    alone = _fresh(_FALSIFIER, "alone", entry, *texts)
    eager = _fresh(_FALSIFIER, "numpy-first", entry, *texts)
    assert (alone["before"], alone["after"]) == (False, False)
    assert eager["before"] and eager["after"]
    assert alone["answers"] == eager["answers"]
    hit, miss = alone["answers"]
    if entry == "bounded_sat_search":
        assert '"s2"' in hit and miss is None
    else:
        assert hit == [10, "model-found-agrees"]
        assert miss == [20, "no-model-found"]
