"""Exception hierarchy shared by all poisset modules."""


class PoissetError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateLabel(PoissetError):
    """A poset was given the same element label twice."""


class UnknownLabel(PoissetError):
    """An element label does not belong to the poset."""


class CycleDetected(PoissetError):
    """Cover relations close into a cycle, so no partial order exists."""


class NotComparable(PoissetError):
    """A pair (x, y) with x <= y was required, but x <= y does not hold."""


class RingMismatch(PoissetError):
    """Two scalars or elements over different coefficient rings were combined."""


class PosetMismatch(PoissetError):
    """Two elements or brackets bound to different posets were combined."""


class NotInvertible(PoissetError):
    """Multiplicative inverse requested for a non-unit."""


class ScalarParseError(PoissetError):
    """Scalar text does not match the ring's grammar."""


class ZeroDenominator(ScalarParseError):
    """Rational literal with denominator zero."""


class NotAField(PoissetError):
    """An operation that needs division was asked to run over a non-field."""


class InvalidPair(PoissetError):
    """A bracket table entry keys a pair that is not a valid ordered basis pair."""


class InconsistentAntisymmetry(PoissetError):
    """Bracket table input contradicts B(i, j) = -B(j, i) or B(i, i) = 0."""


class NotChainConstant(PoissetError):
    """A sigma assignment takes different values on pairs of a common chain."""


class NotABiderivation(PoissetError):
    """Bracket fails the antisymmetry or Leibniz precondition of an operation."""


class NotProportional(PoissetError):
    """A bracket value is not a scalar multiple of the matching commutator."""


class BijectionViolation(PoissetError):
    """Solver output and the chain-component parametrization disagree.

    This is never expected.  Should it happen, report the poset and the
    ring: it is a finding about the classification (see solver.classify).
    """
