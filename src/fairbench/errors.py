"""Exception and warning types shared across the toolkit."""

from __future__ import annotations


class FairbenchError(Exception):
    """Base class for all validation and contract errors raised by fairbench.

    An error is its type and its message, with no other state, so it pickles
    and crosses a process pool intact."""


class MissingColumn(FairbenchError):
    pass


class UnexpectedColumn(FairbenchError):
    pass


class UnparsableValue(FairbenchError):
    pass


class InvariantViolation(FairbenchError):
    pass


class EmptyCohort(FairbenchError):
    pass


class InfeasibleSpec(FairbenchError):
    pass


class TooFewSamples(FairbenchError):
    pass


class DimensionMismatch(FairbenchError):
    pass


class SingleClassTraining(FairbenchError):
    pass


class NonFiniteInput(FairbenchError):
    pass


class LengthMismatch(FairbenchError):
    pass


class EmptyInput(FairbenchError):
    pass


class NoEvaluableGroups(FairbenchError):
    pass


class ConfigError(FairbenchError):
    """Invalid experiment config or cohort spec document."""


class DidNotConverge(UserWarning):
    """Optimizer hit its iteration cap; the partial model is still returned."""
