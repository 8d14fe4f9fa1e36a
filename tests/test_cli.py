"""Tests for the command-line front end."""

from __future__ import annotations

import json

import pytest

from knowhow.certificate import Certificate
from knowhow.cli import EXIT_ERROR, EXIT_SAT, EXIT_UNSAT, main
from knowhow.formula import parse, render
from knowhow.oracle import SearchBounds
from knowhow.semantics import dump_model, make_lts


@pytest.fixture
def four_state_file(tmp_path):
    m = make_lts(
        ["s", "t", "v", "u"],
        {"s": ["p"], "t": ["r"], "v": ["r"], "u": ["q"]},
        {"a": [("s", "t"), ("s", "v")], "b": [("t", "u")]},
    )
    path = tmp_path / "model.json"
    path.write_text(dump_model(m))
    return str(path)


# ---------------------------------------------------------------------------
# check


def test_check_sat_exit_code_and_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(
        ["check", "Kh(p & q, r & t) | Kh(p, r)", "--certificate-out", str(out)]
    )
    assert code == EXIT_SAT
    report = capsys.readouterr().out
    assert "result: SAT" in report
    assert "_k1=true _k2=true" in report
    cert = json.loads(out.read_text())
    assert len(cert["states"]) == 6  # one per distinct witness row of the check
    assert cert["active_actions"] == ["a1", "a2"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_dumps_the_certificate_once(fmt, tmp_path, capsys, monkeypatch):
    dumps = []
    original = Certificate.dump

    def counting_dump(self):
        dumps.append(self)
        return original(self)

    monkeypatch.setattr(Certificate, "dump", counting_dump)
    out = tmp_path / "cert.json"
    code = main(["check", "Kh(p, q) & ~Kh(q, p)", "--format", fmt, "--certificate-out", str(out)])
    assert code == EXIT_SAT
    assert len(dumps) == 1
    report = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out.read_text()) == json.loads(report)["certificate"]
    assert out.read_text() == original(dumps[0])


def test_check_unsat_exit_code(capsys):
    assert main(["check", "p & ~p"]) == EXIT_UNSAT
    assert "result: UNSAT" in capsys.readouterr().out


def test_check_parse_error_is_diagnosed(capsys):
    assert main(["check", "Kh(p q"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "line 1" in err


def test_deep_disjunction_flattens_and_checks(capsys):
    # Parsing, flattening, printing and evaluation all take any depth.
    text = " | ".join(["p"] * 3000)
    assert main(["flatten", text]) == 0
    assert capsys.readouterr().out == f"skeleton: {text}\n"
    assert main(["check", text]) == EXIT_SAT
    captured = capsys.readouterr()
    assert captured.out.startswith("result: SAT\n")
    assert captured.err == ""


def test_flatten_names_a_deeply_negated_leaf(capsys):
    assert main(["flatten", "~" * 2000 + "Kh(p, q)"]) == 0
    assert capsys.readouterr().out == f"skeleton: {'~' * 2000}_k1\n  _k1 := Kh(p, q)\n"


def test_check_requires_exactly_one_input_source(capsys):
    assert main(["check"]) == EXIT_ERROR
    assert main(["check", "p", "--file", "nowhere.txt"]) == EXIT_ERROR


def test_check_missing_solver_is_usage_error(capsys, monkeypatch):
    # The oracle is built in: no option or environment variable names an
    # external solver, so --solver is unknown and the variable is ignored.
    for command in (["check", "p"], ["bench", "--count", "0"]):
        assert main([*command, "--solver", "/no/such/binary"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "No such option" in err and "--solver" in err
    monkeypatch.setenv("KNOWHOW_SAT_SOLVER", "/no/such/binary")
    assert main(["check", "p"]) == EXIT_SAT


def test_check_reads_files_and_skips_comments(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("# generated instance\nKh(p, q)\n")
    assert main(["check", "--file", str(src)]) == EXIT_SAT


def test_check_reads_a_formula_spanning_several_lines(tmp_path, capsys):
    src = tmp_path / "f.txt"
    src.write_text("# one formula\nKh(p,\n   q)\n# between its lines\n  & r\n")
    assert main(["check", "--file", str(src)]) == EXIT_SAT


def test_check_reports_a_second_formula_at_its_line_and_column(tmp_path, capsys):
    # A file holds one formula; gen's second formula sits on line 4.
    assert main(["gen", "formula", "--count", "2", "--seed", "0"]) == 0
    src = tmp_path / "two.txt"
    src.write_text(capsys.readouterr().out)
    assert main(["check", "--file", str(src)]) == EXIT_ERROR
    assert capsys.readouterr().err == "parse error: unexpected trailing 'q' at line 4, column 1\n"


def test_check_json_report_fields(capsys):
    code = main(["check", "Kh(p, q)", "--format", "json", "--trace"])
    assert code == EXIT_SAT
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "SAT"
    assert doc["mode"] == "plain"
    assert doc["guesses_tried"] == 1
    assert doc["partition"] == {"_k1": True}
    assert doc["certificate"]["witness_state"] == doc["witness_state"]
    assert doc["oracle_calls"]["per_guess_max"] == 6
    assert doc["oracle_calls"]["total"] > 0


def test_check_differential_reports_agreement(capsys):
    code = main(["check", "Kh(p, q)", "--mode", "differential", "--format", "json"])
    assert code == EXIT_SAT
    doc = json.loads(capsys.readouterr().out)
    assert doc["augmented_result"] == "SAT"
    assert doc["modes_agree"] is True
    assert doc["oracle_check"] == "model-found-agrees"


def test_check_differential_unsat_cross_check(capsys):
    code = main(["check", "~Kh(p, p)", "--mode", "differential", "--format", "json"])
    assert code == EXIT_UNSAT
    doc = json.loads(capsys.readouterr().out)
    assert doc["modes_agree"] is True
    assert doc["oracle_check"] == "no-model-found"


@pytest.mark.parametrize("mode", ["plain", "augmented", "differential"])
def test_check_rejects_empty_search_box_in_every_mode(mode, capsys):
    assert main(["check", "p", "--mode", mode, "--max-states", "0"]) == EXIT_ERROR
    assert "max_states" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["plain", "augmented", "differential"])
def test_check_rejects_negative_trials_in_every_mode(mode, capsys):
    assert main(["check", "p", "--mode", mode, "--trials", "-1"]) == EXIT_ERROR
    assert "random_trials must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["max_actions", "random_trials"])
def test_search_bounds_reject_negative_values(name):
    with pytest.raises(ValueError, match=f"{name} must not be negative"):
        SearchBounds(**{name: -1})
    assert getattr(SearchBounds(**{name: 0}), name) == 0


# ---------------------------------------------------------------------------
# flatten


def test_flatten_lists_definitions(capsys):
    assert main(["flatten", "Kh(p, Kh(q, p))"]) == 0
    out = capsys.readouterr().out
    assert "skeleton: _k2" in out
    assert "_k1 := Kh(q, p)" in out
    assert "_k2 := Kh(p, _k1)" in out


def test_flatten_json(capsys):
    assert main(["flatten", "p | q", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"skeleton": "p | q", "definitions": []}


# ---------------------------------------------------------------------------
# modelcheck


def test_modelcheck_witness_golden(four_state_file, capsys):
    assert main(["modelcheck", four_state_file, "Kh(p, r)"]) == 0
    out = capsys.readouterr().out
    assert "truth set: s t v u" in out
    assert "Kh(p, r): witness a" in out


def test_modelcheck_no_witness_golden(four_state_file, capsys):
    assert main(["modelcheck", four_state_file, "Kh(p, q)"]) == 0
    out = capsys.readouterr().out
    assert "truth set: (empty)" in out
    assert "Kh(p, q): none" in out


def test_modelcheck_constant_truth(four_state_file, capsys):
    assert main(["modelcheck", four_state_file, "true", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truth_set"] == ["s", "t", "v", "u"]
    assert doc["witnesses"] == []


def test_modelcheck_malformed_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not a model")
    assert main(["modelcheck", str(bad), "p"]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen


def test_gen_formula_is_seeded_and_commented(capsys):
    assert main(["gen", "formula", "--count", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0].startswith("# seed=9")
    assert main(["gen", "formula", "--count", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_gen_formula_prints_nothing_on_bad_input(capsys):
    assert main(["gen", "formula", "--atoms", ",,", "--count", "2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need at least one atom" in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["formula", "--leaves", "-2"], "must not be negative"),
        (["formula", "--depth", "-1"], "must not be negative"),
        (["model", "--actions", "-1"], "must not be negative"),
        (["model", "--density", "1.5"], "density"),
        (["model", "--density", "-0.1"], "density"),
        (["formula", "--count", "-2"], "must not be negative"),
    ],
)
def test_gen_rejects_bad_bounds(args, message, capsys):
    assert main(["gen", *args]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_gen_formula_output_round_trips_through_check(tmp_path, capsys):
    assert main(["gen", "formula", "--depth", "1", "--leaves", "1", "--seed", "4"]) == 0
    text = capsys.readouterr().out
    src = tmp_path / "gen.txt"
    src.write_text(text)
    assert main(["check", "--file", str(src)]) in (EXIT_SAT, EXIT_UNSAT)


@pytest.mark.parametrize("command", [["gen", "formula"], ["gen", "model"], ["bench", "--count", "1"]])
@pytest.mark.parametrize("name", ["true", "P", "A", "_k1", "x-y", "p q", "é", "pé²"])
def test_atoms_that_do_not_read_back_are_errors(command, name, capsys):
    # "true" would print as the constant; the others would print lines
    # that do not parse.
    assert main([*command, "--atoms", f"p,{name}"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --atoms: {name!r} is not an atom name"]


def test_gen_formula_lines_render_as_they_parse(capsys):
    assert main(["gen", "formula", "--count", "20", "--atoms", "p,q2,r_x"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(lines) == 20
    for line in lines:
        assert render(parse(line)) == line


def test_gen_model_records_seed_and_loads(capsys):
    assert main(["gen", "model", "--states", "2", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 3
    assert len(doc["states"]) == 2
    assert main(["gen", "model", "--states", "2", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == doc


# ---------------------------------------------------------------------------
# bench


def test_bench_rows_and_determinism(capsys):
    args = ["bench", "--count", "3", "--seed", "2", "--format", "json"]
    assert main(args) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    assert all(row["verdict"] in ("SAT", "UNSAT") for row in rows)
    assert main(args) == 0
    again = json.loads(capsys.readouterr().out)
    assert [r["verdict"] for r in again] == [r["verdict"] for r in rows]
    assert [r["seed"] for r in again] == ["2", "3", "4"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bench_empty_suite(fmt, capsys):
    assert main(["bench", "--count", "0", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == []
    else:
        assert len(out.splitlines()) <= 1


def test_bench_rejects_negative_count(capsys):
    assert main(["bench", "--count", "-2"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count must not be negative\n"


def test_bench_pinned_instance_reports_sat(capsys):
    assert (
        main(
            [
                "bench",
                "--count",
                "0",
                "--formula",
                "Kh(p & q, r & t) | Kh(p, r)",
                "--format",
                "json",
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["seed"] == "pinned"
    assert rows[0]["verdict"] == "SAT"
