"""Command-line front end.

Subcommands: ``check`` (decide satisfiability, exit 10/20), ``flatten``
(show the leaf normal form), ``modelcheck`` (evaluate a formula on a model
file), ``gen`` (seeded random formulas and models), ``bench`` (timing and
agreement table).  Usage and parse errors exit 1; reports print as plain
text or as a single JSON document.
"""

from __future__ import annotations

import json
import sys
import time

import click

from .certificate import Certificate
from .formula import Atom, Formula, Kh, ParseError, desugar, fold, parse, render
from .khsat import Result, Verdict, decide, oracle_call_count
from .normalform import FlattenResult, flatten
from .oracle import SearchBounds, bounded_sat_search, random_formula, random_lts
from .propsat import SatOracle
from .semantics import dump_model, eval_formula, has_witness_plan, load_model

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError("count must not be negative")


def _atom_names(text: str) -> tuple[str, ...]:
    """The names of a comma-separated ``--atoms`` list; each must parse back
    as that very atom, so every generated formula reads back as printed."""
    names = tuple(a.strip() for a in text.split(",") if a.strip())
    for name in names:
        try:
            readable = parse(name) == Atom(name)
        except ParseError:
            readable = False
        if not readable:
            raise ValueError(f"--atoms: {name!r} is not an atom name")
    return names


def _read_formula(formula: str | None, file: str | None) -> Formula:
    if (formula is None) == (file is None):
        raise click.UsageError("provide a formula either inline or via --file")
    if file is not None:
        with open(file, encoding="utf-8") as handle:
            # Comment lines are blanked, not dropped, so errors keep their lines.
            text = "".join("\n" if ln.lstrip().startswith("#") else ln for ln in handle)
    else:
        text = formula
    return parse(text)


def _top_level_kh(f: Formula) -> list[Kh]:
    """Maximal Kh subformulas of the desugared formula, first-seen order."""
    found: dict[Formula, Formula] = {}  # keys in first-seen order
    # A Kh is a leaf of the fold: it is recorded and not descended into.
    fold(desugar(f), lambda g, _: g, lambda g: found.setdefault(g, g) if isinstance(g, Kh) else None)
    return list(found)


def _echo_report(pairs: list[tuple[str, object]], fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(dict(pairs), indent=2))
    else:
        for key, value in pairs:
            click.echo(f"{key}: {value}")


def _partition_text(verdict: Verdict) -> str:
    if verdict.partition is None:
        return "-"
    items = sorted(verdict.partition.k_assignment.items())
    if not items:
        return "(empty)"
    return " ".join(f"{k}={'true' if v else 'false'}" for k, v in items)


def _certificate_summary(certificate: Certificate | None) -> str:
    if certificate is None:
        return "-"
    actions = " ".join(certificate.active_actions) or "(none)"
    return f"{len(certificate.model.states)} states, actions {actions}"


def _oracle_check(f: Formula, verdict_result: Result, bounds: SearchBounds) -> str:
    model = bounded_sat_search(f, bounds)
    if model is None:
        return "no-model-found"
    return "model-found-agrees" if verdict_result is Result.SAT else "model-found-disagrees"


@click.group()
def cli() -> None:
    """Satisfiability toolkit for a logic of knowing how."""


@cli.command()
@click.argument("formula", required=False)
@click.option("--file", "-f", "file", type=click.Path(exists=True), help="Read the formula from a file (# lines are comments).")
@click.option("--mode", type=click.Choice(["plain", "augmented", "differential"]), default="plain", show_default=True)
@click.option("--max-states", type=int, default=3, show_default=True, help="Bounded-search state cap for the differential cross-check.")
@click.option("--trials", type=int, default=200, show_default=True, help="Random trials for the differential cross-check; they run only for formulas over more than 2 atoms or with --max-states above 3.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--trace", is_flag=True, help="Record per-guess oracle-call counts.")
@click.option("--certificate-out", type=click.Path(), help="Write the SAT certificate to this file.")
def check(formula, file, mode, max_states, trials, seed, fmt, trace, certificate_out):
    """Decide satisfiability; exit 10 on SAT, 20 on UNSAT."""
    # Built before deciding so that a bad --max-states fails in every mode.
    bounds = SearchBounds(max_states=max_states, random_trials=trials, seed=seed)
    f = _read_formula(formula, file)
    want_trace = trace or mode == "differential"

    oracle = SatOracle()
    primary = decide(f, "plain" if mode == "differential" else mode,
                     oracle=oracle, trace=want_trace)
    certificate = primary.certificate
    # Dumped once: a large certificate's dump is the costliest step here.
    wanted = certificate is not None and (fmt == "json" or certificate_out)
    certificate_text = certificate.dump() if wanted else None

    pairs: list[tuple[str, object]] = [
        ("result", primary.result.value),
        ("mode", mode),
        ("guesses_tried", primary.guesses_tried),
    ]
    if fmt == "json":
        partition = dict(primary.partition.k_assignment) if primary.partition else None
        cert_doc = json.loads(certificate_text) if certificate_text else None
        pairs += [
            ("partition", partition),
            ("certificate", cert_doc),
            ("witness_state", certificate.witness_state if certificate else None),
        ]
    else:
        pairs += [
            ("partition", _partition_text(primary)),
            ("certificate", _certificate_summary(certificate)),
            ("witness_state", certificate.witness_state if certificate else "-"),
        ]
    calls: dict[str, object] = {
        "enumeration": primary.enumeration_calls,
        "certificate": primary.certificate_calls,
        "per_guess_max": oracle_call_count(primary) if want_trace else None,
        "total": oracle.calls,
    }
    pairs.append(("oracle_calls", calls if fmt == "json" else
                  " ".join(f"{k}={v}" for k, v in calls.items() if v is not None)))

    if mode == "differential":
        other = decide(f, "augmented", trace=True)
        pairs += [
            ("augmented_result", other.result.value),
            ("modes_agree", primary.result is other.result),
            ("oracle_check", _oracle_check(f, primary.result, bounds)),
        ]

    _echo_report(pairs, fmt)
    if certificate_out and certificate_text is not None:
        with open(certificate_out, "w", encoding="utf-8") as handle:
            handle.write(certificate_text)
    return EXIT_SAT if primary.result is Result.SAT else EXIT_UNSAT


@cli.command("flatten")
@click.argument("formula", required=False)
@click.option("--file", "-f", "file", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def flatten_cmd(formula, file, fmt):
    """Print the leaf normal form: skeleton plus fresh-atom definitions."""
    result: FlattenResult = flatten(_read_formula(formula, file))
    if fmt == "json":
        doc = {
            "skeleton": render(result.phi0),
            "definitions": [
                {"atom": k.name, "leaf": render(leaf)} for k, leaf in result.defs
            ],
        }
        click.echo(json.dumps(doc, indent=2))
        return 0
    click.echo(f"skeleton: {render(result.phi0)}")
    for k, leaf in result.defs:
        click.echo(f"  {k.name} := {render(leaf)}")
    return 0


@cli.command()
@click.argument("model_file", type=click.Path(exists=True))
@click.argument("formula")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def modelcheck(model_file, formula, fmt):
    """Evaluate a formula on a model; show witnesses for each Kh conjunct."""
    with open(model_file, encoding="utf-8") as handle:
        model = load_model(handle.read())
    f = parse(formula)
    truth = eval_formula(model, f)
    witnesses: list[tuple[str, str | None]] = []
    for kh in _top_level_kh(f):
        plan = has_witness_plan(
            model, eval_formula(model, kh.pre), eval_formula(model, kh.post)
        )
        witnesses.append((render(kh), None if plan is None else " ".join(plan) or "ε"))
    if fmt == "json":
        doc = {
            "truth_set": model.state_ids(truth),
            "witnesses": [{"formula": text, "witness": w} for text, w in witnesses],
        }
        click.echo(json.dumps(doc, indent=2))
        return 0
    names = model.state_ids(truth)
    click.echo(f"truth set: {' '.join(names) if names else '(empty)'}")
    for text, witness in witnesses:
        click.echo(f"{text}: {'none' if witness is None else 'witness ' + witness}")
    return 0


@cli.group()
def gen() -> None:
    """Seeded random instances in the standard text formats."""


@gen.command("formula")
@click.option("--depth", type=int, default=2, show_default=True)
@click.option("--leaves", type=int, default=3, show_default=True)
@click.option("--atoms", default="p,q", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=1, show_default=True)
def gen_formula(depth, leaves, atoms, seed, count):
    """Print seeded random formulas, one per line, seeds in comments."""
    _check_count(count)
    names = _atom_names(atoms)
    # Generated before any output, so a bad option prints nothing.
    formulas = [random_formula(depth, leaves, names, seed + i) for i in range(count)]
    for i, f in enumerate(formulas):
        click.echo(f"# seed={seed + i} depth<={depth} leaves<={leaves}")
        click.echo(render(f))
    return 0


@gen.command("model")
@click.option("--states", type=int, default=3, show_default=True)
@click.option("--actions", type=int, default=2, show_default=True)
@click.option("--atoms", default="p,q", show_default=True)
@click.option("--density", type=float, default=0.3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def gen_model(states, actions, atoms, density, seed):
    """Print one seeded random model document (seed recorded inside)."""
    model = random_lts(states, actions, _atom_names(atoms), density, seed)
    click.echo(dump_model(model, extra={"seed": seed}))
    return 0


@cli.command()
@click.option("--count", type=int, default=20, show_default=True)
@click.option("--depth", type=int, default=2, show_default=True)
@click.option("--leaves", type=int, default=3, show_default=True)
@click.option("--atoms", default="p,q", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--mode", type=click.Choice(["plain", "augmented", "differential"]), default="plain", show_default=True)
@click.option("--trials", type=int, default=0, show_default=True, help="Random trials for the oracle cross-check; they run only for formulas over more than 2 atoms, and 2-atom formulas get the exhaustive box alone.")
@click.option("--formula", "extra_formulas", multiple=True, help="Pinned instance prepended to the generated suite (repeatable).")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
def bench(count, depth, leaves, atoms, seed, mode, trials, extra_formulas, fmt):
    """Run a seeded suite; report time, calls, verdicts, agreement."""
    _check_count(count)
    bounds = SearchBounds(random_trials=trials, seed=seed)
    names = _atom_names(atoms)
    instances: list[tuple[str, Formula]] = [
        ("pinned", parse(text)) for text in extra_formulas
    ]
    instances += [
        (str(seed + i), random_formula(depth, leaves, names, seed + i))
        for i in range(count)
    ]

    rows: list[dict[str, object]] = []
    for label, f in instances:
        oracle = SatOracle()
        started = time.perf_counter()
        verdict = decide(f, "plain" if mode == "differential" else mode,
                         oracle=oracle, trace=True)
        elapsed_ms = (time.perf_counter() - started) * 1000
        row: dict[str, object] = {
            "seed": label,
            "verdict": verdict.result.value,
            "guesses": verdict.guesses_tried,
            "per_guess_max": oracle_call_count(verdict),
            "total_calls": oracle.calls,
            "ms": round(elapsed_ms, 2),
            "formula": render(f),
        }
        if mode == "differential":
            other = decide(f, "augmented")
            row["modes_agree"] = verdict.result is other.result
            row["oracle_check"] = _oracle_check(f, verdict.result, bounds)
        rows.append(row)

    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
        return 0
    if not rows:
        return 0
    keys = [k for k in rows[0] if k != "formula"]
    widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in keys}
    click.echo("  ".join(k.ljust(widths[k]) for k in keys) + "  formula")
    for row in rows:
        lead = "  ".join(str(row[k]).ljust(widths[k]) for k in keys)
        click.echo(f"{lead}  {row['formula']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point with solver-style exit codes (10 SAT / 20 UNSAT / 1 error)."""
    try:
        code = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:        # --help and friends
        return exc.exit_code
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return EXIT_ERROR
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        return EXIT_ERROR
    except RecursionError as exc:  # pickling still recurses per level
        click.echo(f"error: formula nests too deeply ({exc})", err=True)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_ERROR
    return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
