"""Exception hierarchy shared across the package."""


class TcdlError(Exception):
    """Base class for all package errors."""


class MarketError(TcdlError):
    """Malformed tree or market data (cycles, orphans, bad probabilities, ...)."""


class DomainError(TcdlError):
    """Argument outside the mathematical domain of a function."""


class NoConsistentPriceSystemError(TcdlError):
    """The market admits no consistent price system; dual machinery refuses to run."""


class BelowX0Error(TcdlError):
    """Initial capital below the infeasibility threshold x0."""


class SolverIndeterminateError(TcdlError):
    """A solve stalled numerically; no certified answer is available."""


class ConfigError(TcdlError):
    """Invalid CLI or experiment configuration."""


def unwrap(outcomes: list) -> list:
    """``outcomes``, a batch's per-problem results, unless one is an error:
    then the first error is raised, as a loop over the problems would."""
    for out in outcomes:
        if isinstance(out, Exception):
            raise out
    return outcomes
