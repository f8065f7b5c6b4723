"""Exception types shared across the library.

Every failure that a caller can act on gets its own class; witnesses are
carried as attributes so reports can be replayed.
"""

from __future__ import annotations


class ClusterLabError(Exception):
    """Base class for all library errors."""


# --- Laurent arithmetic ---------------------------------------------------


class DivisionByZero(ClusterLabError):
    pass


class NotDivisible(ClusterLabError):
    """Exact division failed: the numerator is not a Laurent multiple of the
    denominator over the integers."""


class LaurentParseError(ClusterLabError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


# --- Seeds ----------------------------------------------------------------


class InvalidSeed(ClusterLabError):
    pass


class NotSkewSymmetrizable(ClusterLabError):
    """Carries a witness: either a sign-violating pair or an inconsistent cycle."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotExchangeable(ClusterLabError):
    def __init__(self, label):
        super().__init__(f"variable {label!r} is not exchangeable")
        self.label = label


class NotAdmissible(ClusterLabError):
    def __init__(self, sequence, index):
        super().__init__(
            f"sequence {sequence!r} fails admissibility at index {index}"
        )
        self.sequence = tuple(sequence)
        self.index = index


class ResourceLimit(ClusterLabError):
    pass


class LabelCollision(ClusterLabError):
    def __init__(self, label):
        super().__init__(f"label {label!r} occurs in more than one summand")
        self.label = label


class SearchBudgetExceeded(ClusterLabError):
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


class NotFlippable(ClusterLabError):
    def __init__(self, arc):
        super().__init__(f"arc {arc} is not the diagonal of a quadrilateral")
        self.arc = arc


class InvalidFamily(ClusterLabError):
    pass


# These three also subclass ValueError, so callers that catch ValueError still do.


class UnmarkedPoint(ClusterLabError, ValueError):
    """An arc endpoint that is not one of the marked points."""


class TooFewPoints(ClusterLabError, ValueError):
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


class Inconclusive(ClusterLabError):
    """A depth-bounded check neither verified nor refuted its condition."""

    def __init__(self, message: str, condition: str | None = None):
        super().__init__(message)
        self.condition = condition


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


class NotAdmissibleAtStage(ClusterLabError):
    def __init__(self, step):
        super().__init__(
            f"step {step!r} can never become admissible in any stage"
        )
        self.step = step


class UnknownVertex(ClusterLabError):
    def __init__(self, label):
        super().__init__(f"{label!r} is not a vertex of the oracle's seed")
        self.label = label


# --- CLI / files ------------------------------------------------------------


class ParseError(ClusterLabError):
    def __init__(self, message, line=None, column=None, expected=None):
        loc = "" if line is None else f" at line {line}, column {column}"
        want = "" if expected is None else f" (expected {expected})"
        super().__init__(f"{message}{loc}{want}")
        self.line = line
        self.column = column
        self.expected = expected
