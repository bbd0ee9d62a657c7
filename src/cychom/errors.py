"""Exception types shared across the package, and the refusal to change a value."""


def refuse_assignment(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable value classes,
    whose ``__init__`` sets each field once with ``object.__setattr__``."""
    raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")


class CychomError(Exception):
    """Base class for all package errors."""


class DomainNotField(CychomError):
    pass


class DomainMismatch(CychomError):
    pass


class AmbientMismatch(CychomError):
    pass


class ObjectMismatch(CychomError):
    pass


class NonComposableWord(CychomError):
    pass


class NotCentral(CychomError):
    pass


class NotCyclic(CychomError):
    pass


class CyclicModeOnNonCyclic(CychomError):
    pass


class TruncationTooSmall(CychomError):
    pass


class TruncationMismatch(CychomError):
    pass


class RangeExceedsComplex(CychomError):
    pass


class SignCheckFailed(CychomError):
    pass


class NotAChainMap(CychomError):
    pass


class BasisMismatch(CychomError):
    pass


class NotAssociative(CychomError):
    pass


class NoUnit(CychomError):
    pass


class NotCommutative(CychomError):
    pass


class PositiveCharacteristic(CychomError):
    pass


class BudgetExceeded(CychomError):
    pass


class MatrixMismatch(CychomError):
    pass


class RelationFailure(CychomError):
    pass


class WindowTooSmall(CychomError):
    pass


class LatticeMismatch(CychomError):
    """Integral homology met a boundary outside the kernel lattice (internal failure)."""


class InputFormatError(CychomError):
    """Bad user-supplied JSON / preset string, or input the command does not
    take (CLI exit code 2)."""
