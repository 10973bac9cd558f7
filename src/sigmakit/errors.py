"""Exception hierarchy and the library's default limits.

Two error families matter to callers (and to the CLI exit codes):
precondition violations (``DomainError``, exit code 1) and numerical
failures such as non-convergent series or root searches
(``NumericError``, exit code 2).

The defaults below are the CLI's option defaults as well; they live here,
in a module every command loads, so that the parser needs no numerical
layer.  Each is re-exported by the module that uses it.

``json_ready`` holds the one JSON form of a complex number, [re, im], for
error diagnostics, the records' ``to_json_dict`` and the CLI's documents.
"""

# Hard cap on the terms of every q-series and product (``modular``).
TERM_CAP = 200
# Relative residual target of ``lattice.invert_j``.
J_TOLERANCE = 1e-8
# Relative mu-window that ``classify`` routes to the sine family, and its
# relative tolerance for coefficients beyond degree 7.
TRIG_TOLERANCE = 1e-8
VALIDATION_TOLERANCE = 1e-6


def json_ready(value):
    """value in JSON form: a complex number as [re, im], a list or tuple
    (a namedtuple too) as a list of JSON forms, anything else unchanged."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return value


class SigmaKitError(Exception):
    """Base class for all library errors."""


class DomainError(SigmaKitError, ValueError):
    """An argument violates a documented precondition."""


class NotInOmegaError(DomainError):
    """The leading odd coefficient vanishes, so the invariants are undefined."""


class IdentityNotSatisfiedError(DomainError):
    """Taylor data is inconsistent with every function family the
    classifier knows; the input does not satisfy the four-point identity."""


class NumericError(SigmaKitError, ArithmeticError):
    """A numerical procedure failed to reach its accuracy target;
    ``diagnostics`` holds each value given in its JSON form (``json_ready``)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = {key: json_ready(v) for key, v in (diagnostics or {}).items()}


class ConvergenceError(NumericError):
    """A series, product, or iteration hit its term cap before converging."""
