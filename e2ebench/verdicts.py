"""The verdict checker: it does not trust the solver.

* A ``sat`` answer must carry a model that
  :func:`repro.strings.eval.check_model` accepts on the problem the
  program was given (for text inputs: the script re-read here).
* An ``unsat`` answer must match a label from another source: the
  generator's certificate or the script's ``(set-info :status)``.
* Any other answer (``unknown``, timeout, error, refusal) is *failed*,
  not wrong.

:func:`flip_test` flips an accepted verdict and :func:`edit_test` edits
one variable of an accepted sat model; the checker must call each of
them wrong, so a checker that stopped checking either half fails the run.
"""

from repro.smtlib import load_problem
from repro.smtlib.parser import StringLiteral, parse_sexprs
from repro.strings.eval import check_model

OK, FAILED, WRONG = "ok", "failed", "wrong"


def judge(problem, label, status, model):
    """``(OK | FAILED | WRONG, reason)`` for one answer."""
    if status not in ("sat", "unsat"):
        return FAILED, "answered %s" % status
    if status == "sat":
        if label == "unsat":
            return WRONG, "sat on a query labelled unsat"
        if model is None or not check_model(problem, model):
            return WRONG, "sat model rejected by check_model"
        return OK, None
    if label != "unsat":
        return WRONG, "unsat on a query labelled %s" % label
    return OK, None


def parsed_problem(text):
    """The problem a text-input caller handed the program."""
    return load_problem(text).problem


def parse_cli_model(stdout):
    """``(status, model)`` from ``python -m repro FILE --model`` output."""
    lines = stdout.splitlines()
    if not lines:
        return "error", None
    status = lines[0].strip()
    if status != "sat":
        return status, None
    body = "\n".join(line for line in lines[1:]
                     if not line.startswith(";"))
    model = {}
    for form in parse_sexprs(body):
        for entry in form[1:] if form and form[0] == "model" else []:
            _, name, _, sort, value = entry
            if sort == "String":
                model[name] = value.value if isinstance(
                    value, StringLiteral) else str(value)
            elif isinstance(value, list):      # (- n)
                model[name] = -int(value[1])
            else:
                model[name] = int(value)
    return status, model


class Tally:
    """Counts of one run's judged answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []             # (name, reason)
        self.sat = 0
        self.unsat = 0

    def add(self, name, problem, label, status, model):
        verdict, reason = judge(problem, label, status, model)
        self.attempted += 1
        if verdict == FAILED:
            self.failed += 1
        elif verdict == WRONG:
            self.wrong.append((name, reason))
        elif status == "sat":
            self.sat += 1
        else:
            self.unsat += 1
        return verdict

    @property
    def correct(self):
        return not self.wrong


def model_edits(model):
    """Models that differ from *model* in one variable's value."""
    for name in sorted(model):
        value = model[name]
        if isinstance(value, str):
            candidates = ("", value + value[-1:] + "0", value[1:], "a")
        else:
            candidates = (value + 1, value - 1, -value - 1)
        for candidate in candidates:
            if candidate != value:
                edited = dict(model)
                edited[name] = candidate
                yield name, edited


def violating_edit(problem, model):
    """``(variable, model)``: the first one-variable edit of a non-empty
    *model* that :func:`check_model` rejects, else the first edit (so a
    checker that accepts everything is handed a model it should have
    rejected)."""
    first = None
    for name, edited in model_edits(model):
        if first is None:
            first = (name, edited)
        if not check_model(problem, edited):
            return name, edited
    return first


def flip_test(problem, label, status):
    """True when the checker rejects this accepted answer's verdict
    flipped (a flip to sat carries an empty model)."""
    flipped = "unsat" if status == "sat" else "sat"
    verdict, _ = judge(problem, label, flipped,
                       None if flipped == "unsat" else {})
    return verdict == WRONG


def edit_test(problem, label, model):
    """``(variable, rejected?)``: the checker's verdict on this accepted
    sat answer with one variable of its model edited, status kept sat."""
    name, edited = violating_edit(problem, model)
    verdict, _ = judge(problem, label, "sat", edited)
    return name, verdict == WRONG
