"""Exception types shared across the package.

There is one class per outcome the CLI maps to an exit code (see the
EXIT_* constants and `main` in cli): OutOfRange, UnsupportedSize and
ConfigError exit 2, InconsistentModel exits 3 and EmptySpace exits 5.
`located` is the only code that says where in the input an error arose.
"""

from contextlib import contextmanager


class TowerboundError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(TowerboundError, ValueError):
    """A model, plan or comparison value lies outside its valid range."""


@contextmanager
def located(where: str):
    """Within the block, an error of the package gets `where` in front of its
    message; its class, and so its exit code, stays the same."""
    try:
        yield
    except TowerboundError as exc:
        raise type(exc)(f"{where}: {exc}") from None


class UnsupportedSize(TowerboundError):
    """A field, enumeration or search exceeds the supported size caps."""


class InconsistentModel(TowerboundError):
    """Point counts, place spectra or declared cover data contradict each other."""


class EmptySpace(TowerboundError):
    """No plan in the search space certifies an infinite tower."""


class ConfigError(TowerboundError):
    """Malformed or unresolvable configuration document."""
