"""The fixed, seeded query lists of the three workloads.

Every list is a pure function of the workload seed and ``PYTHONHASHSEED``
(pinned to 0 by ``run.py`` for itself and every child): the same seed
gives the same ordered list in every process, and :func:`digest` proves
it.  Each query carries a verdict label from outside the solver — the
generator's certificate (the family maker was asked for a sat or an
unsat path) or the ``(set-info :status)`` of a corpus file.

The mix is the one ``repro.bench.export.all_suites`` defines: every
suite contributes the same number of instances, a suite's kinds take
turns, and a kind's sat share is its generator's sat probability.
:data:`SUITES` copies those shares from the generators; :func:`_draw`
turns them into fixed counts per (kind, label), so the seed draws only
the parameters the makers take and the order, and the cost mix stays
the same from seed to seed.  Paths that take seconds are left out
(:data:`SLOW`), and a kind gives no more queries per label than it has
distinct texts.
"""

import hashlib
import os
import random

from repro.bench.perfsmoke import tonum_ladder
from repro.smtlib import load_problem, problem_to_smtlib
from repro.symbex import (cvc4, javascript, leetcode, pyex, pythonlib,
                          validation)
from repro.symbex.luhn import luhn_problem

QUERY_DEADLINE_S = 30.0
"""Solver deadline of every query; far above the slowest query's time."""

TONUM_UNKNOWN_POWERS = (20, 24, 28)
"""toNum rungs the default ``max_rounds=3`` ends ``unknown``: kept in
symbex-batch as failed queries, never dropped or re-configured."""


class Query:
    """One query: a name, its label, a recipe that builds its problem
    afresh, and the problem and SMT-LIB text of the first build."""

    __slots__ = ("name", "label", "build", "problem", "_text")

    def __init__(self, name, label, build, text=None):
        self.name = name
        self.label = label
        self.build = build
        self.problem = build()
        self._text = text

    @property
    def text(self):
        """The query as an SMT-LIB script carrying its label."""
        if self._text is None:
            self._text = problem_to_smtlib(self.problem, expected=self.label)
        return self._text


def setup_probe():
    """The fixed query every set-up boot answers first, the same for
    every seed, so ``setup_s`` times start-up and not a drawn query."""
    return Query("probe/tonum-1e2-sat", "sat", lambda: tonum_ladder(2))


CHEAP, MEDIUM, SLOW = "cheap", "medium", "slow"
"""Cost of a path: tens of ms; a tenth to half a second; seconds.  No
workload asks a ``SLOW`` path (the sat paths of affix, abbreviation,
valid_ipv4/6; both noncanonical paths; aliasing unsat; and currency
amounts of 3 and 4 digits, see :func:`_currency`): one of them would
outweigh the rest of a pass."""


def _rng_maker(maker):
    """A ``maker(rng, sat)`` family function as a recipe maker."""
    return lambda rng, i, sat: maker(rng, sat)


def _word_pattern(rng, i, sat):
    pattern = "".join(rng.choice("abc") for _ in range(2 + i % 3))
    return leetcode.word_pattern_problem(pattern, sat)


def _currency(rng, i, sat):
    """The generator's 2-digit amounts only: 3 and 4 digits take
    seconds on either path."""
    return validation.currency_problem(
        2, limit=100 if sat else 0, expect_within=sat)


# suite -> [(kind, share of the suite, P(sat), cost of the sat path,
#            cost of the unsat path, maker(rng, i, sat))].
# Shares, sat probabilities and maker parameters are those of the
# suite's ``generate`` in ``repro.symbex.<family>``.
SUITES = {
    # pyex.generate: the 5 _FAMILIES in turn, sat with probability 0.75.
    "pyex": [
        ("concat", 1 / 5, 0.75, CHEAP, CHEAP,
         lambda rng, i, sat: pyex.concat_chain_problem(
             rng, rng.randint(2, 4), sat)),
        ("slicing", 1 / 5, 0.75, CHEAP, CHEAP,
         _rng_maker(pyex.slicing_problem)),
        ("affix", 1 / 5, 0.75, SLOW, CHEAP, _rng_maker(pyex.affix_problem)),
        ("membership", 1 / 5, 0.75, CHEAP, CHEAP,
         _rng_maker(pyex.membership_conflict_problem)),
        ("split", 1 / 5, 0.75, CHEAP, CHEAP,
         _rng_maker(pyex.equation_split_problem)),
    ],
    # leetcode.generate(conversions_only=True): 4 kinds, P(sat) 0.5.
    "leetcode_conv": [
        ("restore_ip", 1 / 4, 0.5, MEDIUM, CHEAP,
         lambda rng, i, sat: leetcode.restore_ip_problem(
             [rng.randint(1, 3) for _ in range(4)], sat)),
        ("add_binary", 1 / 4, 0.5, MEDIUM, MEDIUM,
         lambda rng, i, sat: leetcode.add_binary_problem(2 + i % 3, sat)),
        ("abbreviation", 1 / 4, 0.5, SLOW, CHEAP,
         lambda rng, i, sat: leetcode.abbreviation_problem(
             5 + i % 6, None, sat)),
        ("decode_digits", 1 / 4, 0.5, CHEAP, CHEAP,
         lambda rng, i, sat: leetcode.decode_digits_problem(1 + i % 3,
                                                            sat)),
    ],
    # leetcode.generate(basic_only=True): 4 kinds, P(sat) 0.5.
    "leetcode_basic": [
        ("valid_ipv4", 1 / 4, 0.5, SLOW, CHEAP,
         lambda rng, i, sat: leetcode.valid_ipv4_membership(sat)),
        ("valid_ipv6", 1 / 4, 0.5, SLOW, CHEAP,
         lambda rng, i, sat: leetcode.valid_ipv6_problem(2 + i % 3, sat)),
        ("reverse", 1 / 4, 0.5, CHEAP, CHEAP,
         lambda rng, i, sat: leetcode.reverse_check_problem(3 + i % 4,
                                                            sat)),
        ("word_pattern", 1 / 4, 0.5, MEDIUM, CHEAP, _word_pattern),
    ],
    # cvc4.generate(flavor="pred"), then "term": the 4 _FAMILIES in turn
    # (the other 96%), rare_conversion 4%, P(sat) 0.12.
    "cvc4pred": [
        (maker.__name__[:-len("_problem")], 0.96 / 4, 0.12, CHEAP, CHEAP,
         _rng_maker(maker)) for maker in cvc4._FAMILIES
    ] + [("conv", 0.04, 0.12, CHEAP, CHEAP,
          _rng_maker(cvc4.rare_conversion_problem))],
    # pythonlib.generate: 5 kinds in turn, P(sat) 0.6.
    "pythonlib": [
        ("int_roundtrip", 1 / 5, 0.6, CHEAP, CHEAP,
         lambda rng, i, sat: pythonlib.int_roundtrip_problem(1 + i % 4,
                                                             sat)),
        ("parse_date", 1 / 5, 0.6, CHEAP, CHEAP,
         lambda rng, i, sat: pythonlib.parse_date_problem(sat)),
        ("parse_time", 1 / 5, 0.6, CHEAP, CHEAP,
         lambda rng, i, sat: pythonlib.parse_time_problem(sat)),
        ("zero_padded", 1 / 5, 0.6, CHEAP, CHEAP,
         lambda rng, i, sat: pythonlib.zero_padded_field_problem(
             2 + i % 3, rng.randint(0, 10 ** (2 + i % 3) - 1), sat)),
        ("not_a_number", 1 / 5, 0.6, CHEAP, CHEAP,
         lambda rng, i, sat: pythonlib.not_a_number_problem(sat)),
    ],
    # javascript.generate: 4 kinds in turn, P(sat) 0.7 (its Luhn tail is
    # the Luhn ladder's k = 2..4).
    "javascript": [
        ("noncanonical", 1 / 4, 0.7, SLOW, SLOW,
         lambda rng, i, sat: javascript.noncanonical_index_problem(sat)),
        ("index_arith", 1 / 4, 0.7, CHEAP, CHEAP,
         lambda rng, i, sat: javascript.index_arithmetic_problem(
             1 + i % 3, sat)),
        ("aliasing", 1 / 4, 0.7, MEDIUM, SLOW,
         lambda rng, i, sat: javascript.aliasing_problem(sat)),
        ("bounds", 1 / 4, 0.7, CHEAP, CHEAP,
         lambda rng, i, sat: javascript.array_bounds_problem(5 + i % 5,
                                                             sat)),
    ],
    # validation.generate(count): 4 * count instances, 7 (kind, label)
    # pairs in turn: a kind with both labels has two sevenths.
    "validation": [
        ("currency", 8 / 7, 0.5, MEDIUM, MEDIUM, _currency),
        ("isodate", 8 / 7, 0.5, CHEAP, CHEAP,
         lambda rng, i, sat: validation.isodate_problem(month_ok=sat)),
        ("ipv4", 4 / 7, 1.0, MEDIUM, MEDIUM,
         lambda rng, i, sat: validation.ipv4_problem(
             last_octet_max=rng.choice([0, 100, 255]))),
        ("checkid", 8 / 7, 0.5, CHEAP, CHEAP,
         lambda rng, i, sat: validation.checkid_problem(
             2 + i % 2 if sat else 2, residue_ok=sat)),
    ],
}
SUITES["cvc4term"] = SUITES["cvc4pred"]
"""The term flavour rotates the same kinds by one: the same shares."""


def _counts(count, share, p_sat):
    """(sat, unsat) instances of a kind in a suite of *count*."""
    n = round(count * share)
    sat = round(n * p_sat)
    return sat, n - sat


def _draw(rng, count, costs):
    """Every suite at *count* instances: fixed counts per (kind, label),
    paths of the given *costs* only, distinct texts (fewer queries for
    kinds with fewer distinct parameter choices)."""
    out = []
    seen = set()
    for suite, kinds in SUITES.items():
        for kind, share, p_sat, c_sat, c_unsat, maker in kinds:
            n_sat, n_unsat = _counts(count, share, p_sat)
            for label, want, cost in (("sat", n_sat, c_sat),
                                      ("unsat", n_unsat, c_unsat)):
                if cost not in costs:
                    continue
                made = 0
                for i in range(want * 8):
                    if made == want:
                        break
                    query = Query("%s/%s-%s-%02d" % (suite, kind, label,
                                                     made), label,
                                  _recipe(maker, rng.getrandbits(32), i,
                                          label == "sat"))
                    if query.text in seen:
                        continue       # parameter-free kinds repeat
                    seen.add(query.text)
                    out.append(query)
                    made += 1
    return out


def _recipe(maker, sub_seed, i, sat):
    """A problem builder that gives the same problem on every call."""
    return lambda: maker(random.Random(sub_seed), i, sat)


def ladders(rng):
    """The Luhn ladder (k <= 6; larger k take seconds) and the toNum
    ladder, unknown rungs included."""
    out = [Query("luhn/k%d-sat" % k, "sat", lambda k=k: luhn_problem(k))
           for k in range(2, 7)]
    powers = sorted(rng.sample(range(1, 19), 9)) + list(TONUM_UNKNOWN_POWERS)
    out.extend(Query("tonum/1e%d-sat" % p, "sat", lambda p=p: tonum_ladder(p))
               for p in powers)
    return out


BATCH_SUITE_COUNT = 32
"""Instances per suite in symbex-batch, before distinct-text caps."""


def symbex_batch(seed):
    """About 170 distinct certified path conditions, shuffled."""
    rng = random.Random("symbex-batch/%d" % seed)
    queries = _draw(rng, BATCH_SUITE_COUNT, (CHEAP, MEDIUM)) + ladders(rng)
    rng.shuffle(queries)
    return queries


CORPUS_DIR = os.path.join("examples", "corpus")


def corpus_queries():
    """The repository's SMT-LIB corpus, labelled by ``set-info``."""
    out = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if not name.endswith(".smt2"):
            continue
        with open(os.path.join(CORPUS_DIR, name)) as handle:
            text = handle.read()
        script = load_problem(text)
        out.append(Query("corpus/" + name[:-5], script.expected,
                         lambda script=script: script.problem, text))
    return out


CLI_SUITE_COUNT = 18


def cli_cold(seed):
    """The corpus plus printed cheap paths and the decided ladder rungs:
    at least 100 files."""
    rng = random.Random("cli-cold/%d" % seed)
    queries = _draw(rng, CLI_SUITE_COUNT, (CHEAP,))
    queries += [q for q in ladders(rng) if not q.name.startswith(
        tuple("tonum/1e%d-" % p for p in TONUM_UNKNOWN_POWERS))]
    rng.shuffle(queries)
    queries = corpus_queries() + queries
    if len(queries) < 100:
        raise RuntimeError("cli-cold drew only %d files" % len(queries))
    return queries


SERVE_REQUESTS = 420
SERVE_SUITE_COUNT = 16
SERVE_MEDIUM_COUNT = 4
"""The pool's suite counts: the medium paths at a quarter of the cheap
ones' count, so a pass stays short and a run holds many passes."""
SERVE_HOT, SERVE_HOT_SHARE = 4, 0.25
"""``repro loadgen``'s reuse rule (``build_schedule``): a quarter of the
asks go to the 4 hottest problems, the rest uniformly to the pool."""


def serve_mix(seed):
    """(distinct problems, request sequence of indexes into them).

    Requests follow ``repro loadgen``'s reuse rule over a pool of cheap
    and medium paths: each slot asks one of the :data:`SERVE_HOT` first
    problems with probability :data:`SERVE_HOT_SHARE`, else any problem
    of the pool, uniformly.  As in ``loadgen``, the hottest problems are
    the first generated (here pyex concat and slicing paths), so the
    hot set is the same kinds for every seed; a seed-chosen hot set moved
    p50 by a third from seed to seed.  A problem's first ask makes the
    worker solve it and write the store; later asks are answered by the
    front-door verdict cache or coalesced.  The seed draws the problems'
    parameters; the slot pattern is the same for every seed, so the
    share of repeats does not change with the seed.
    """
    rng = random.Random("serve-mix/%d" % seed)
    pattern = random.Random("serve-mix/pattern")
    problems = (_draw(rng, SERVE_SUITE_COUNT, (CHEAP,))
                + _draw(rng, SERVE_MEDIUM_COUNT, (MEDIUM,)))
    sequence = []
    for _ in range(SERVE_REQUESTS):
        if pattern.random() < SERVE_HOT_SHARE:
            sequence.append(pattern.randrange(SERVE_HOT))
        else:
            sequence.append(pattern.randrange(len(problems)))
    return problems, sequence


def repeat_share(sequence):
    """Share of requests that ask an already-asked problem."""
    return 1 - len(set(sequence)) / len(sequence)


def digest(queries, sequence=()):
    """sha256 over the ordered texts and labels (and request order)."""
    h = hashlib.sha256()
    for query in queries:
        h.update(query.name.encode() + b"\0" + query.text.encode() + b"\0")
    h.update(repr(list(sequence)).encode())
    return h.hexdigest()[:16]
