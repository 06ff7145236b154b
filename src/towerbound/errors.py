"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps them onto stable exit codes (see the EXIT_* constants
and `main` in cli).
"""

from contextlib import contextmanager


class TowerboundError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(TowerboundError, ValueError):
    """A model, plan or comparison value lies outside its valid range."""


@contextmanager
def located(where: str):
    """Within the block, an OutOfRange gets `where` in front of its message."""
    try:
        yield
    except OutOfRange as exc:
        raise OutOfRange(f"{where}: {exc}") from None


class NotPrime(TowerboundError):
    """The requested characteristic is composite."""


class UnsupportedSize(TowerboundError):
    """A field, enumeration or search exceeds the supported size caps."""


class InconsistentModel(TowerboundError):
    """Point counts, place spectra or declared cover data contradict each other."""


class FunctionalEquationViolation(InconsistentModel):
    """Zeta consistency check could not reconstruct a valid L-polynomial."""


class RamifiedPlace(InconsistentModel):
    """Trace-based decomposition was asked for a declared (ramified) place."""


class PoleAtPlace(InconsistentModel):
    """A normalized cover component has a pole at an undeclared place."""


class DegenerateGenus(TowerboundError):
    """Asymptotic ratio needs genus >= 2."""


class ParityViolation(InconsistentModel):
    """Conductor degree sum has the wrong parity for an integral genus."""


class EmptySpace(TowerboundError):
    """No plan in the search space certifies an infinite tower."""


class ConfigError(TowerboundError):
    """Malformed or unresolvable configuration document."""
