"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies.
"""


class DegenerateFieldError(ValueError):
    """Field cannot be processed: zero norm, or zero amplitude sum.

    A field whose amplitudes sum to zero (e.g. a pure odd-symmetry mode)
    cannot pass zero-transverse-momentum post-selection at all, so the
    measurement model has no answer for it.
    """


class SamplingGuardError(ValueError):
    """A propagation kernel would be aliased, or overflow a double, on this grid,
    or the paraxial-validity condition is violated for the requested distance."""


class FileFormatError(Exception):
    """Malformed WFGRID / records CSV / PGM payload."""
