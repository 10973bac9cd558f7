"""Exception hierarchy and the library's default limits.

Two error families matter to callers (and to the CLI exit codes):
precondition violations (``DomainError``, exit code 1) and numerical
failures such as non-convergent series or root searches
(``NumericError``, exit code 2).

The limits below live here, in a module every command loads, so that the
parser needs no numerical layer.  ``TERM_CAP`` is a constant, the one cap
on every q-series and product, judged at tau as given; the other three
are the defaults of their library arguments and CLI options.

``json_ready`` holds the one JSON form of a complex number, [re, im], for
error diagnostics, the records' ``to_json_dict`` and the CLI's documents.
"""

# The fixed cap on the terms of every q-series and product (``modular``).
TERM_CAP = 200
# Relative residual target of ``lattice.invert_j``.
J_TOLERANCE = 1e-8
# Relative mu-window that ``classify`` routes to the sine family, and its
# relative tolerance for coefficients beyond degree 7.
TRIG_TOLERANCE = 1e-8
VALIDATION_TOLERANCE = 1e-6


def json_ready(value):
    """value in JSON form: a complex number as [re, im], a list or tuple
    (a namedtuple too) as a list of JSON forms, a dict with its values in
    JSON form, anything else unchanged."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, dict):
        return {key: json_ready(v) for key, v in value.items()}
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
        self.diagnostics = json_ready(diagnostics or {})


class ConvergenceError(NumericError):
    """A series, product, or iteration hit its term cap before converging."""
