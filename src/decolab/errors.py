"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A scenario/sweep configuration is invalid.

    ``field`` carries the dotted path of the offending entry so callers can
    point users at the exact key (e.g. ``bath.ohmic.omega_c``).
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ConvergenceError(RuntimeError):
    """A numerical procedure (truncation, fit) failed to converge.

    ``achieved`` reports the best error estimate reached before giving up.
    """

    def __init__(self, message: str, achieved: float | None = None):
        self.achieved = achieved
        if achieved is not None:
            message = f"{message} (achieved error estimate {achieved:.3e})"
        super().__init__(message)
