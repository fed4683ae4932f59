"""Exception hierarchy shared by all modules."""


class InputError(ValueError):
    """Malformed user input (polynomial text, JSON files, CLI arguments)."""


class VerificationError(RuntimeError):
    """A mechanically checked identity failed.  Expected never on valid inputs;
    raised with enough detail to reproduce the offending instance."""


class TruncationError(RuntimeError):
    """A truncated computation could not be certified (no finite colength
    witness, or instability between truncation levels at the escalation cap)."""


class CapError(RuntimeError):
    """An input is above a fixed size cap, past which the work grows
    exponentially; raised before any of that work starts."""


class RegularizationError(RuntimeError):
    """Fan regularization hit its iteration cap.  The partial fan is attached
    so the caller can inspect how far subdivision got."""

    def __init__(self, message, partial_fan=None):
        super().__init__(message)
        self.partial_fan = partial_fan
