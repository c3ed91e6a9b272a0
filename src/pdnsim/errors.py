"""Exception types shared across the simulator."""


class PdnError(Exception):
    """Base class for all simulator errors."""


class ValidationError(PdnError):
    """One or more scenario invariants failed.

    Carries the full list of violations so a config file can be fixed in
    one pass instead of one error at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NetlistError(PdnError):
    """Netlist is structurally unusable (disconnected, degenerate grid, ...)."""


class SolverError(PdnError):
    """Numerical failure inside the MNA solver."""


class RequestError(ValueError):
    """A request that cannot run (a step, window, axis or value count); not
    a ``PdnError``, so a sweep does not record one as a point's failure."""
