"""Exception types shared across the package."""


class TorushomError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TorushomError):
    """Malformed constraint-graph file or CLI configuration."""


class EmptyConstraint(TorushomError):
    """The constraint graph has no edge or loop, so no valid pair exists."""


class CapExceeded(TorushomError):
    """A structural size cap (color count, tuple enumeration) was exceeded."""


class BudgetExceeded(TorushomError):
    """A counting budget (brute-force or transfer state space) was exceeded."""


class InvalidColoring(TorushomError):
    """An assignment violates the constraint graph on some torus edge."""


class ZeroConditioningEvent(TorushomError):
    """Conditioning event has probability zero in an exact computation."""


class NotEquipartition(TorushomError):
    """The maximal-pair structure matches none of the recognized
    equal-class-weight cases (two-class swap, singleton, orbit-transitive)."""


class ZeroConditioning(TorushomError):
    """Conditioning color has zero limiting probability on its side."""


class NoValidInitial(TorushomError):
    """Greedy chain initialization failed to find a valid coloring."""


class ConfigError(TorushomError):
    """Unusable run configuration: unknown key, bad value, missing file."""


class OracleMismatch(TorushomError):
    """Two routes that must agree exactly produced different values."""
