"""Exception types shared across the package.

Every error raised on purpose derives from :class:`ReachnetError` so callers
(and the CLI exit-code mapping) can tell deliberate rejections apart from
plain bugs.  Every module checks counts and named options with the two
functions at the end.
"""

from __future__ import annotations

import operator


class ReachnetError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ValidationError(ReachnetError):
    """Input violates a documented precondition or schema rule."""


class ParseError(ValidationError):
    """A problem file or polytope text block could not be parsed."""


class DimensionMismatch(ValidationError):
    """A vector or matrix does not match the dimension implied by its axes."""


class ShapeMismatch(ValidationError):
    """Matrix blocks of an agent description have inconsistent shapes."""


class NotSubset(ValidationError):
    """Projection/extension target axes are not nested as required."""


class IndexOutOfRange(ValidationError):
    """An axis-index query lies outside the horizon or agent range."""


class UncoveredAxes(ValidationError):
    """A finite join cannot cover the target axes with the given sets."""


class BackendMismatch(ValidationError):
    """An operation mixed finite point tables with polytopes."""


class UnsupportedMaterialization(ReachnetError):
    """The requested set cannot be represented in the chosen backend.

    Extending a finite point table into strictly larger axes would need
    infinitely many points, so it is refused rather than approximated.
    """


class UnsupportedDynamics(ReachnetError):
    """The dynamics payload does not match the requested backend."""


class NonlinearConstraint(ValidationError):
    """A constraint row is not affine and the affine pipeline was asked."""


class EmptySet(ReachnetError):
    """An operation that needs a nonempty set received an empty one."""


class UnboundedSet(ReachnetError):
    """Vertex enumeration was asked for an unbounded polytope."""


class UnboundedDisturbance(ValidationError):
    """A disturbance set is unbounded, so worst-case margins do not exist."""


class DegenerateInput(ValidationError):
    """Vertex input is empty or otherwise unusable for hull construction."""


class EliminationBlowup(ReachnetError):
    """Coordinate elimination exceeded the intermediate row cap."""

    def __init__(self, rows: int, cap: int) -> None:
        super().__init__(f"elimination produced {rows} rows (cap {cap})")
        self.rows = rows
        self.cap = cap


class NumericalFailure(ReachnetError):
    """The LP backend gave up (iteration cap or numerical trouble)."""


class DimensionCapExceeded(ReachnetError):
    """The monolithic problem exceeds the configured dimension cap."""


class MaxRoundsExceeded(ReachnetError):
    """The synchronous iteration hit its round budget before settling.

    Carries the partial trace, whose last record holds the sets after the
    final round, so callers can inspect or report it.
    """

    def __init__(self, rounds: int, trace=None) -> None:
        super().__init__(f"no global convergence after {rounds} rounds")
        self.rounds = rounds
        self.trace = trace


def check_count(value, what: str, least: int) -> int:
    """``value`` as an int if it is an integer, numpy's included, of at
    least ``least``; else ValidationError, also for a bool or a float."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool) or count < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return count


def check_choice(value, what: str, choices: tuple[str, ...]) -> None:
    """ValidationError unless ``value`` is one of the names in ``choices``."""
    if not (isinstance(value, str) and value in choices):
        raise ValidationError(f"{what} must be one of {choices}, got {value!r}")
