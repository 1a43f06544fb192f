"""Exception hierarchy shared by all wdsres modules.

Two broad classes matter to callers (and to the CLI exit-code convention):
``ValidationError`` means the input itself is unusable, ``ComputationError``
means the input was valid but the requested quantity is not computable on it.
"""


class ResilienceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ResilienceError):
    """Malformed or inconsistent input data or parameters."""


class ComputationError(ResilienceError):
    """A metric or simulation is undefined for otherwise valid input."""


class UndefinedInputError(ComputationError):
    """Degenerate input, e.g. a ratio metric evaluated at zero demand."""


class InfeasibleDesignError(ComputationError):
    """The energy balance of the network cannot support the metric."""


class BaselineInfeasibleError(ComputationError):
    """The intact system already fails the feasibility requirement."""


class InfiniteResilienceError(ComputationError):
    """A path-based node index is unbounded or not finite.

    Raised for the index of a source node (its own resistance is zero) and
    for an index, demand-weighted index or trimmed mean that overflows, for
    example through the inverse of a subnormal path resistance.
    """
