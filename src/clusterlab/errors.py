"""Exception types shared across the library.

Every failure that a caller can act on gets its own class; witnesses are
carried as attributes so reports can be replayed.

Each class also declares its kind, which is the CLI's exit code:
subclasses of InputError are the caller's own input (exit 3); Inconclusive
and its budget subclasses ResourceLimit and SearchBudgetExceeded settle
nothing (exit 2); CrossingPair and NotMaximal refute a triangulation
(exit 1, reported with `valid: false`); every other ClusterLabError is a
definitive failure (exit 1).
"""

from __future__ import annotations


class ClusterLabError(Exception):
    """Base class for all library errors."""


class InputError(ClusterLabError):
    """The caller's input is at fault: a malformed file, an unknown label,
    an argument no computation can take."""


class Inconclusive(ClusterLabError):
    """A check neither verified nor refuted its condition: it reached its
    depth bound, or a budget ran out (the subclasses below)."""

    def __init__(self, message: str, condition: str | None = None):
        super().__init__(message)
        self.condition = condition


# --- Laurent arithmetic ---------------------------------------------------


class DivisionByZero(ClusterLabError):
    pass


class NotDivisible(ClusterLabError):
    """Exact division failed: the numerator is not a Laurent multiple of the
    denominator over the integers."""


class LaurentParseError(InputError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


# --- Seeds ----------------------------------------------------------------


class InvalidSeed(InputError):
    pass


class NotSkewSymmetrizable(ClusterLabError):
    """Carries a witness: either a sign-violating pair or an inconsistent cycle."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotExchangeable(InputError):
    def __init__(self, label):
        super().__init__(f"variable {label!r} is not exchangeable")
        self.label = label


class NotAdmissible(InputError):
    """The step at `index` is no label of the seed it reaches, or not an
    exchangeable one; the message names which."""

    def __init__(self, sequence, index, cause):
        super().__init__(
            f"sequence {sequence!r} fails admissibility at index {index}: "
            f"{sequence[index]!r} {cause}"
        )
        self.sequence = tuple(sequence)
        self.index = index


class ResourceLimit(Inconclusive):
    pass


class LabelCollision(InputError):
    def __init__(self, label):
        super().__init__(f"label {label!r} occurs in more than one summand")
        self.label = label


class SearchBudgetExceeded(Inconclusive):
    """The similarity search ran out of budget before exhausting the space;
    distinct from a definitive 'not similar'."""


# --- Disc triangulations ---------------------------------------------------


class CrossingPair(ClusterLabError):
    def __init__(self, a, b):
        super().__init__(f"arcs {a} and {b} cross")
        self.pair = (a, b)


class NotMaximal(ClusterLabError):
    def __init__(self, witness):
        super().__init__(f"not maximal: arc {witness} crosses nothing in the set")
        self.witness = witness


class NotFlippable(InputError):
    def __init__(self, arc):
        super().__init__(f"arc {arc} is not the diagonal of a quadrilateral")
        self.arc = arc


class InvalidFamily(ClusterLabError):
    pass


# These three also subclass ValueError, so callers that catch ValueError still do.


class UnmarkedPoint(InputError, ValueError):
    """An arc endpoint that is not one of the marked points."""


class TooFewPoints(InputError, ValueError):
    """A finite triangulation needs at least two marked points."""


class NotAnArc(ClusterLabError, ValueError):
    """A face query named an arc that is not in the triangulation."""


# --- Morphisms --------------------------------------------------------------


class NonLaurentImage(ClusterLabError):
    """Substitution required inverting a variable specialized to zero (or a
    non-exact integer division), so the image leaves the target Laurent ring."""


class SeedMismatch(ClusterLabError):
    pass


class NotSimilar(ClusterLabError):
    pass


# --- Colimits ---------------------------------------------------------------


class OracleInconsistent(ClusterLabError):
    pass


class NotOnlyCoefficients(ClusterLabError):
    def __init__(self, witness):
        super().__init__(
            f"exchangeable variable {witness!r} has a neighbour outside the subseed"
        )
        self.witness = witness


class NotFullSubseed(ClusterLabError):
    pass


class IncompatibleCone(ClusterLabError):
    def __init__(self, label, stages):
        super().__init__(
            f"cone maps disagree on label {label!r} between stages {stages}"
        )
        self.label = label
        self.stages = stages


class NotAdmissibleAtStage(InputError):
    def __init__(self, step):
        super().__init__(
            f"step {step!r} can never become admissible in any stage"
        )
        self.step = step


class UnknownVertex(InputError):
    def __init__(self, label):
        super().__init__(f"{label!r} is not a vertex of the oracle's seed")
        self.label = label


# --- CLI / files ------------------------------------------------------------


class ParseError(InputError):
    def __init__(self, message, line=None, column=None, expected=None):
        loc = "" if line is None else f" at line {line}, column {column}"
        want = "" if expected is None else f" (expected {expected})"
        super().__init__(f"{message}{loc}{want}")
        self.line = line
        self.column = column
        self.expected = expected
