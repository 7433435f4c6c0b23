"""Real-parser numeric conversion semantics (``NumSemantics``).

The paper's toNum (Fig. 3) models bare decimal digit strings.  Real
converter traffic — strtoll/strtod-style C parsers, Goaldi's radix-2..36
digit forms, sign-prefixed overflow-checked parsing — adds sign prefixes,
leading whitespace, non-decimal radixes, exponent notation, and overflow
handling.  A :class:`NumSemantics` value is a declarative description of
one such converter; it drives three independent implementations that must
agree exactly:

* :meth:`NumSemantics.convert` — the concrete evaluator (ground truth for
  the validator and the enumerative oracle);
* the flatten rule in :mod:`repro.core.flatten` — a deterministic
  transducer (parser DFA with an accumulator) unrolled over the PFA chain,
  mirroring the BMC-style membership unrolling;
* the conversion PFA shape in :mod:`repro.core.pfa` that supplies
  unbounded leading whitespace/zeros.

All semantics parse the *full* string: trailing garbage yields
``error_value`` (strtol's prefix-parse-with-endptr is out of scope).
Whitespace means the space character only — the solver alphabet is
printable ASCII, which has no tab/newline.  The exponent (when enabled) is
a non-negative decimal exponent over radix 10 only, so the ``e``/``E``
marker can never collide with a radix digit.  Characters outside the
solver alphabet never occur in solver-produced words; :meth:`convert`
treats them as non-digits, which keeps the evaluator total.
"""

from dataclasses import dataclass

from repro.errors import SolverError, UnsupportedConstraint

OVERFLOW_MODES = ("bignum", "error", "saturate")

SPACE = " "
EXP_MARKERS = "eE"


@dataclass(frozen=True)
class NumSemantics:
    """One converter configuration.

    ``overflow`` is checked on the final value (equivalent to per-step
    checks for a full-string parse): ``bignum`` keeps exact integers,
    ``error`` yields ``error_value`` outside the ``bits``-wide two's
    complement range, ``saturate`` clamps to that range.  Exponents above
    ``exp_max`` denote values too large to materialize: zero mantissa still
    gives 0, otherwise ``saturate`` clamps by sign and both ``error`` and
    ``bignum`` yield ``error_value`` (a bignum encoding would represent the
    value, but the flatten rule must stay linear, so the divergence is part
    of the declared semantics rather than an approximation).
    """

    name: str
    sign: bool = False
    whitespace: bool = False
    radix: int = 10
    exponent: bool = False
    overflow: str = "bignum"
    bits: int = 64
    error_value: int = -1
    exp_max: int = 8

    def __post_init__(self):
        if not 2 <= self.radix <= 36:
            raise SolverError("radix %r outside 2..36" % (self.radix,))
        if self.exponent and self.radix != 10:
            raise SolverError("exponent notation needs radix 10, got %r"
                              % (self.radix,))
        if self.overflow not in OVERFLOW_MODES:
            raise SolverError("unknown overflow mode %r" % (self.overflow,))
        if self.bits < 2:
            raise SolverError("bits must be >= 2, got %r" % (self.bits,))
        if self.exp_max < 0:
            raise SolverError("exp_max must be >= 0")

    # -- value range -----------------------------------------------------------

    @property
    def max_value(self):
        return (1 << (self.bits - 1)) - 1

    @property
    def min_value(self):
        return -(1 << (self.bits - 1))

    # -- digits ----------------------------------------------------------------

    def digit_value(self, char):
        """Value of *char* as a digit under this radix, or None.

        Radixes above 10 accept both letter cases, Goaldi-style.
        """
        if "0" <= char <= "9":
            value = ord(char) - 48
        elif "A" <= char <= "Z":
            value = ord(char) - 55
        elif "a" <= char <= "z":
            value = ord(char) - 87
        else:
            return None
        return value if value < self.radix else None

    def digit_chars(self):
        """Every character accepted as a digit, in a stable order."""
        out = [chr(48 + d) for d in range(min(self.radix, 10))]
        for d in range(10, self.radix):
            out.append(chr(55 + d))
        for d in range(10, self.radix):
            out.append(chr(87 + d))
        return out

    def extra_chars(self):
        """Non-digit characters this semantics gives meaning to."""
        out = []
        if self.whitespace:
            out.append(SPACE)
        if self.sign:
            out.extend("+-")
        if self.exponent:
            out.extend(EXP_MARKERS)
        return out

    def digit_segments(self, alphabet):
        """Contiguous code ranges of digit characters, with value offsets.

        Returns ``[(lo_code, hi_code, offset), ...]`` such that any
        character code ``u`` with ``lo <= u <= hi`` is a digit of value
        ``u + offset``.  Linear per segment, which is what keeps the
        transducer's accumulator update a linear formula.
        """
        segments = []
        for run in (
            [chr(48 + d) for d in range(min(self.radix, 10))],
            [chr(55 + d) for d in range(10, self.radix)],
            [chr(87 + d) for d in range(10, self.radix)],
        ):
            if not run:
                continue
            codes = [alphabet.code(c) for c in run]
            for lo, hi in zip(codes, codes[1:]):
                if hi != lo + 1:
                    raise SolverError(
                        "digit run %r is not contiguous in the alphabet"
                        % (run,))
            segments.append((codes[0], codes[-1],
                             self.digit_value(run[0]) - codes[0]))
        return segments

    # -- concrete conversion ---------------------------------------------------

    def convert(self, text):
        """Full-string parse of *text* under this semantics.

        This is a direct simulation of the transducer the flatten rule
        unrolls; the two must agree on every input or the differential
        harness flags the divergence.
        """
        i, n = 0, len(text)
        if self.whitespace:
            while i < n and text[i] == SPACE:
                i += 1
        negative = False
        if self.sign and i < n and text[i] in "+-":
            negative = text[i] == "-"
            i += 1
        start = i
        acc = 0
        while i < n:
            d = self.digit_value(text[i])
            if d is None:
                break
            acc = acc * self.radix + d
            i += 1
        if i == start:
            return self.error_value
        exp = 0
        if self.exponent and i < n and text[i] in EXP_MARKERS:
            j = i + 1
            digits_start = j
            while j < n and "0" <= text[j] <= "9":
                exp = exp * 10 + (ord(text[j]) - 48)
                j += 1
            if j == digits_start:
                return self.error_value
            i = j
        if i != n:
            return self.error_value
        if exp > self.exp_max:
            if acc == 0:
                return 0
            if self.overflow == "saturate":
                return self.min_value if negative else self.max_value
            return self.error_value
        value = acc * (10 ** exp)
        if negative:
            value = -value
        if self.overflow == "bignum":
            return value
        if value > self.max_value:
            return (self.max_value if self.overflow == "saturate"
                    else self.error_value)
        if value < self.min_value:
            return (self.min_value if self.overflow == "saturate"
                    else self.error_value)
        return value


# -- registry -------------------------------------------------------------------

STRTOL = NumSemantics("strtol", sign=True, whitespace=True,
                      overflow="saturate")
"""C strtoll: optional leading spaces and sign, saturating at int64."""

PG_INT = NumSemantics("pg_int", sign=True, overflow="error")
"""Sign-prefixed int64 parse that errors on overflow (purple-garden)."""

SCI = NumSemantics("sci", sign=True, exponent=True)
"""Signed decimal with a non-negative exponent suffix (Goaldi ``602e21``)."""

_FIXED = {sem.name: sem for sem in (STRTOL, PG_INT, SCI)}


def semantics_named(name):
    """Resolve a semantics name: a fixed registry entry or ``radixN``."""
    sem = _FIXED.get(name)
    if sem is not None:
        return sem
    if name.startswith("radix"):
        try:
            radix = int(name[len("radix"):])
        except ValueError:
            radix = -1
        if 2 <= radix <= 36:
            return NumSemantics(name, sign=True, radix=radix)
    raise UnsupportedConstraint("unknown toNum semantics %r" % (name,))


def standard_semantics():
    """The canonical variant set exercised by the fuzzer and benches."""
    return [STRTOL, PG_INT, semantics_named("radix16"), SCI]
