"""Exception types shared across the package."""


class InputError(ValueError):
    """A value handed to the library violates a documented precondition."""


class ParseError(ValueError):
    """A text instance could not be parsed.  Carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ResourceGuardError(RuntimeError):
    """An operation was refused because it would exceed a size guard.

    The guards exist because every solver here is exponential in something;
    they keep accidental huge inputs from hanging the process.  Two guards
    take an override: the enumerated-bit guard of `solve` and
    `solve_symmetric` (max_branch_bits) and the half-assignment guard of
    `solve_ilp` (max_half_vars); the others are fixed.
    """
