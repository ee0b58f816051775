"""Exception types shared across the package."""
from __future__ import annotations


class PinquadError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(PinquadError, ValueError):
    """Operands have incompatible dimensions."""


class LimitError(PinquadError, ValueError):
    """A resource guard was exceeded (dimension caps, enumeration bounds)."""


class DegenerateFormError(PinquadError, ValueError):
    """A degenerate form where one is needed nondegenerate, or a surgery class in its radical."""


class UnsupportedInputError(PinquadError, ValueError):
    """Input is well-formed but outside the operation's domain."""


class InternalError(PinquadError):
    """A consistency check failed: a bug in this package, not bad input."""


class SurgeryObstructionError(PinquadError, ValueError):
    """A class fails one of the surgery preconditions.

    ``reason`` is one of ``"zero class"``, ``"c.c != 0"``, ``"q(c) != 0"``,
    checked in that order.
    """

    def __init__(self, reason: str):
        super().__init__(f"surgery obstructed: {reason}")
        self.reason = reason


class NotCharacteristicError(PinquadError, ValueError):
    """An integer vector violates the Wu condition c.x = x.x (mod 2).

    ``index`` is the first basis vector where the condition fails.
    """

    def __init__(self, index: int, pairing: int, self_int: int):
        super().__init__(
            f"not characteristic: at basis vector {index}, "
            f"c.e{index} = {pairing} but e{index}.e{index} = {self_int} (mod 2)"
        )
        self.index = index
