"""sigmakit: Weierstrass sigma / Jacobi theta machinery.

Evaluation of theta1, eta, g2, g3, j and sigma; Taylor-coefficient
invariants p, q, mu of odd functions; numerical verification of the
four-point product identity and the duplication equation; and a
classifier mapping odd Taylor data to the three families solving the
identity (a Gaussian-twisted z, sine, or sigma function).
"""

from .classify import Classification, classify, synthesize
from .errors import (
    ConvergenceError,
    DomainError,
    IdentityNotSatisfiedError,
    NotInOmegaError,
    NumericError,
    SigmaKitError,
)
from .identity import (
    IdentityResidual,
    OddFunctionHandle,
    QuadruplePoint,
    duplication_report,
    duplication_residual,
    extend_series,
    identity_report,
    identity_residual,
    psi,
    sample_quadruples,
)
from .invariants import (
    HatForm,
    InvariantData,
    ProjectiveValue,
    hat_normalize,
    mu_of_pq,
    pq_of_series,
)
from .lattice import (
    Lattice,
    UnimodularMap,
    invert_j,
    lattice_from_rho_tau,
    normalize_lattice,
    reduce_tau,
    sigma_eval,
    sigma_gauge,
)
from .modular import (
    TauPoint,
    as_tau,
    dedekind_eta,
    j_invariant,
    modular_discriminant,
    modular_pq,
    theta1_eval,
    theta1_odd_series,
    weierstrass_g,
)
from .series import (
    TruncatedOddSeries,
    TruncatedSeries,
    duplication_rhs,
    gauss_twist,
    multiply,
    scale_argument,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ConvergenceError",
    "DomainError",
    "HatForm",
    "IdentityNotSatisfiedError",
    "IdentityResidual",
    "InvariantData",
    "Lattice",
    "NotInOmegaError",
    "NumericError",
    "OddFunctionHandle",
    "ProjectiveValue",
    "QuadruplePoint",
    "SigmaKitError",
    "TauPoint",
    "TruncatedOddSeries",
    "TruncatedSeries",
    "UnimodularMap",
    "as_tau",
    "classify",
    "dedekind_eta",
    "duplication_report",
    "duplication_residual",
    "duplication_rhs",
    "extend_series",
    "gauss_twist",
    "hat_normalize",
    "identity_report",
    "identity_residual",
    "invert_j",
    "j_invariant",
    "lattice_from_rho_tau",
    "modular_discriminant",
    "modular_pq",
    "mu_of_pq",
    "multiply",
    "normalize_lattice",
    "pq_of_series",
    "psi",
    "reduce_tau",
    "sample_quadruples",
    "scale_argument",
    "sigma_eval",
    "sigma_gauge",
    "synthesize",
    "theta1_eval",
    "theta1_odd_series",
    "weierstrass_g",
]
