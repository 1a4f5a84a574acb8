"""Exception types shared across the package."""


class CensemError(Exception):
    """Base class for all censem-specific errors."""


class DomainError(CensemError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergenceError(CensemError, ArithmeticError):
    """An iterative kernel ran out of terms/iterations before meeting tolerance."""


class BracketError(CensemError, ArithmeticError):
    """A root could not be bracketed inside the configured interval.

    Carries the bracket endpoints and the function values there so the
    caller can report a useful diagnostic.
    """

    def __init__(self, message, lo=None, hi=None, f_lo=None, f_hi=None):
        super().__init__(message)
        self.lo = lo
        self.hi = hi
        self.f_lo = f_lo
        self.f_hi = f_hi


class DegenerateComponentError(CensemError, ArithmeticError):
    """A mixture component lost essentially all of its effective mass."""


class ResponsibilityUnderflowError(CensemError, ArithmeticError):
    """A responsibility denominator underflowed for a specific observation."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InputFormatError(CensemError, ValueError):
    """An input file failed to parse."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
