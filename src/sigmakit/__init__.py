"""sigmakit: Weierstrass sigma / Jacobi theta machinery.

Evaluation of theta1, eta, g2, g3, j and sigma; Taylor-coefficient
invariants p, q, mu of odd functions; numerical verification of the
four-point product identity and the duplication equation; and a
classifier mapping odd Taylor data to the three families solving the
identity (a Gaussian-twisted z, sine, or sigma function).

The package imports no submodule itself.  A public name is looked up in
its home module on first use (PEP 562) and then bound here, so a CLI
command loads only the layers it runs.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "classify": ("Classification", "classify", "synthesize"),
    "errors": ("ConvergenceError", "DomainError", "IdentityNotSatisfiedError",
               "NotInOmegaError", "NumericError", "SigmaKitError"),
    "identity": ("IdentityResidual", "OddFunctionHandle", "QuadruplePoint",
                 "duplication_report", "duplication_residual", "extend_series",
                 "identity_report", "identity_residual", "psi", "sample_quadruples"),
    "invariants": ("HatForm", "InvariantData", "ProjectiveValue", "hat_normalize",
                   "mu_of_pq", "pq_of_series"),
    "lattice": ("Lattice", "UnimodularMap", "invert_j", "lattice_from_rho_tau",
                "normalize_lattice", "reduce_tau", "sigma_eval", "sigma_gauge"),
    "modular": ("TauPoint", "as_tau", "dedekind_eta", "j_invariant", "modular_discriminant",
                "modular_pq", "theta1_eval", "theta1_odd_series", "weierstrass_g"),
    "series": ("TruncatedOddSeries", "TruncatedSeries", "duplication_rhs", "gauss_twist",
               "multiply", "scale_argument"),
}
# Public name -> home module.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        if name in _EXPORTS:
            # A submodule used as sigmakit.<module> without importing it.
            return importlib.import_module(f"{__name__}.{name}")
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    """The package's module type.  Importing the submodule sigmakit.classify
    sets the package attribute ``classify`` to it; this binds the function
    of that name instead, so ``sigmakit.classify`` is always the function."""

    def __setattr__(self, name, value):
        if name == "classify" and isinstance(value, type(sys)):
            value = value.classify
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
