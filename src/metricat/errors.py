"""Error taxonomy shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class MetricatError(Exception):
    """Base class for all package errors."""


@dataclass(frozen=True)
class Violation:
    """One failed space axiom, addressed by point indices.

    Kinds: NotSquare, NonZeroDiagonal, Asymmetric, ZeroOffDiagonal,
    TriangleViolation.  For TriangleViolation the indices (i, j, k) mean
    d(i, j) > d(i, k) + d(k, j).
    """

    kind: str
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}{self.indices}"


class SpaceValidationError(MetricatError):
    """Raised when a distance matrix violates the space axioms."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class InvalidMorphism(MetricatError):
    """A point map that is not non-expansive (or is out of range)."""


class MismatchedEndpoints(MetricatError):
    """Operands do not share the required domain/codomain."""


class UsageError(MetricatError, ValueError):
    """A setting or argument the package cannot use, such as a malformed
    environment variable, an empty distance grid or an unknown variant.
    It is a ValueError too, so callers that catch ValueError still do."""


class BudgetExceeded(MetricatError):
    """A configured search or size budget was exhausted.

    Carries optional ``partial`` payload (e.g. the chain stages completed so
    far) so callers can persist honest partial output.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class SizeOverflow(MetricatError):
    """A constructed space would exceed the configured point budget."""


class SchemaError(MetricatError):
    """Malformed JSON input; ``pointer`` locates the offending node."""

    def __init__(self, message: str, pointer: str = ""):
        self.pointer = pointer or "/"
        super().__init__(f"{message} (at {self.pointer})")
