"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, PreconditionError -> 3,
CapExceededError -> 4, anything else (InternalError included) -> 1.
"""


class FusionkitError(Exception):
    """Base class for errors raised deliberately by this package."""


class ParseError(FusionkitError):
    """Malformed user input (type strings, weight syntax, CLI arguments)."""


class UnsupportedTypeError(ParseError):
    """Series/rank combination outside the supported finite types."""


class PreconditionError(FusionkitError):
    """Structurally valid input that violates an operation's precondition."""


class CapExceededError(FusionkitError):
    """Requested object is larger than the configured safety cap."""


class InternalError(FusionkitError):
    """An invariant of the computation failed: a bug, never a property of the input."""
