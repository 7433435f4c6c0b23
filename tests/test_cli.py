"""Tests for the command-line interface."""

import io
import sys

import pytest

from repro.cli import format_model, main


SAT_SCRIPT = """
(set-logic QF_SLIA)
(declare-fun x () String)
(declare-fun n () Int)
(assert (= n (str.to_int x)))
(assert (= n 7))
(assert (= (str.len x) 3))
(check-sat)
"""

UNSAT_SCRIPT = """
(declare-fun x () String)
(assert (str.in_re x ((_ re.loop 2 2) (re.range "a" "b"))))
(assert (>= (str.len x) 3))
(check-sat)
"""


def run_cli(tmp_path, text, *flags):
    path = tmp_path / "input.smt2"
    path.write_text(text)
    captured = io.StringIO()
    stdout = sys.stdout
    sys.stdout = captured
    try:
        code = main([str(path), "--timeout", "30", *flags])
    finally:
        sys.stdout = stdout
    return code, captured.getvalue()


class TestCli:
    def test_sat_with_model(self, tmp_path):
        code, out = run_cli(tmp_path, SAT_SCRIPT, "--model", "--validate")
        assert code == 0
        assert out.splitlines()[0] == "sat"
        assert '"007"' in out
        assert "model validates" in out

    def test_unsat(self, tmp_path):
        code, out = run_cli(tmp_path, UNSAT_SCRIPT)
        assert code == 0
        assert out.strip() == "unsat"

    def test_expected_status_mismatch_flagged(self, tmp_path):
        text = "(set-info :status unsat)\n" + SAT_SCRIPT
        code, out = run_cli(tmp_path, text)
        assert code == 1
        assert "WARNING" in out

    def test_baseline_solvers_selectable(self, tmp_path):
        code, out = run_cli(tmp_path, SAT_SCRIPT, "--solver", "enum")
        assert out.splitlines()[0] in ("sat", "unknown")

    def test_format_model_escapes_quotes(self):
        from repro.strings import ProblemBuilder
        b = ProblemBuilder()
        x = b.str_var("x")
        b.equal((x,), ('a"b',))
        text = format_model(b.problem, {"x": 'a"b'})
        assert '"a""b"' in text

    def test_missing_input_file_is_a_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.smt2"
        assert main([str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro: %s: No such file or directory" % missing]

    def test_unwritable_trace_json_is_a_one_line_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "input.smt2"
        path.write_text(SAT_SCRIPT)
        target = tmp_path / "no" / "such" / "dir" / "t.json"
        assert main([str(path), "--trace-json", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro: %s: No such file or directory" % target]
