"""Verification machinery for the four-point product identity and the
duplication equation it implies.

The identity under test, for an odd entire function f and arbitrary
complex x, y, z, w, is

    f(x) f(y) f(z) f(w)
  - f((x+y+z-w)/2) f((x+y-z+w)/2) f((x-y+z+w)/2) f((-x+y+z+w)/2)
  - f((x+y+z+w)/2) f((x+y-z-w)/2) f((x-y+z-w)/2) f((x-y-z+w)/2)  =  0.

``identity_residual`` evaluates the left-hand side exactly as written and
reports the largest of the three product magnitudes as a scale for
relative comparison.

Differentiating the left-hand side three times along the direction
(x, x+t, x+u*t, x+u^2*t) with u a primitive cube root of unity collapses
the identity to the duplication equation

    f'(0)^3 * f(2z) = f^4(z) * (log f(z))''',

whose right-hand side is the polynomial form computed by
``series.duplication_rhs``.  ``duplication_residual`` measures the failure
of a truncated odd series to satisfy it, and ``extend_series`` runs the
induced coefficient recurrence: the degree-n residual is affine in a_n
with slope -a1^3 * psi(n), psi(n) = (n-1)(n-2)(n-3) + 8 - 2^n, which is
nonzero for every odd n >= 9, so each coefficient beyond degree 7 is
determined uniquely.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from itertools import islice

from .errors import DomainError, NotInOmegaError, NumericError, SigmaKitError, json_ready

# Default points at which handle oddness is spot-checked.
_ODDNESS_PROBES = (0.37, 0.11 + 0.23j, -0.52 + 0.08j)
_ODDNESS_TOL = 1e-12

# Quadruples per batch of a survey: large enough that the batch evaluator's
# set-up is spread thin, small enough that memory does not grow with the
# sample count.
_CHUNK = 64


class QuadruplePoint(namedtuple("QuadruplePoint", "x y z w")):
    """Four complex arguments of the four-point identity."""

    __slots__ = ()

    @classmethod
    def of(cls, x, y, z, w) -> "QuadruplePoint":
        return cls(complex(x), complex(y), complex(z), complex(w))


class OddFunctionHandle:
    """A pointwise evaluator for an odd function, tagged with a label.

    ``batch``, if given, evaluates a list of complex points at once, each
    exactly as the evaluator would, and raises the error of the first point
    that fails.  Oddness is spot-checked at construction on a few probe
    points, all evaluated in one call of ``_evaluate_many``.
    """

    def __init__(self, evaluator, label: str, batch=None):
        self.evaluator = evaluator
        self.label = label
        if batch is not None:
            self._evaluate_many = batch
        values = iter(self._evaluate_many([complex(v) for z0 in _ODDNESS_PROBES
                                           for v in (z0, -z0)]))
        for z0, plus, minus in zip(_ODDNESS_PROBES, values, values):
            if abs(plus + minus) > _ODDNESS_TOL * max(1.0, abs(plus)):
                raise DomainError(
                    f"evaluator {label!r} is not odd at probe {z0}: "
                    f"f(z)={plus}, f(-z)={minus}"
                )

    def __call__(self, z: complex) -> complex:
        return complex(self.evaluator(complex(z)))

    def _evaluate_many(self, zs) -> list[complex]:
        """The handle at each of zs; a ``batch`` given at construction replaces it."""
        return [self(z) for z in zs]

    @classmethod
    def identity(cls) -> "OddFunctionHandle":
        return cls(lambda z: z, "z")

    @classmethod
    def sine(cls) -> "OddFunctionHandle":
        return cls(cmath.sin, "sin")

    @classmethod
    def from_series(cls, s: TruncatedOddSeries, label: str = "series") -> "OddFunctionHandle":
        return cls(s.evaluate, label)

    @classmethod
    def from_sigma(cls, lat) -> "OddFunctionHandle":
        from .lattice import _sigma_values, sigma_eval

        return cls(lambda z: sigma_eval(z, lat), "sigma",
                   batch=lambda zs: _sigma_values(zs, lat))

    def twisted(self, alpha: complex, beta: complex) -> "OddFunctionHandle":
        """The handle multiplied by exp(alpha*z^2 + beta)."""
        base = self.evaluator
        return OddFunctionHandle(
            lambda z: base(z) * cmath.exp(alpha * z * z + beta),
            f"{self.label}*exp",
        )


class IdentityResidual(namedtuple("IdentityResidual", "value scale")):
    """The complex residual and the float scale it is judged against."""

    __slots__ = ()


def identity_residual(f: OddFunctionHandle, pt: QuadruplePoint) -> IdentityResidual:
    """Left-hand side of the four-point identity at one quadruple.

    ``scale`` is the largest magnitude among the three four-fold products,
    the natural yardstick for calling the residual small.  Products outside
    the double range raise NumericError.
    """
    return IdentityResidual(*_residuals(f, [pt])[0])


def _arguments(x, y, z, w) -> tuple[complex, ...]:
    """The twelve arguments of the identity at (x, y, z, w), four per product."""
    return (
        x, y, z, w,
        (x + y + z - w) / 2, (x + y - z + w) / 2, (x - y + z + w) / 2, (-x + y + z + w) / 2,
        (x + y + z + w) / 2, (x + y - z - w) / 2, (x - y + z - w) / 2, (x - y - z + w) / 2,
    )


def _residuals(f: OddFunctionHandle, rows) -> list[tuple[complex, float]]:
    """(value, scale) of ``identity_residual`` at each row of four, all
    12*len(rows) arguments evaluated in one ``f._evaluate_many`` call.

    If that call raises for several rows, they run again one at a time, so
    the first failing row raises its own error.  For one row, an
    OverflowError or ValueError (cmath's for an argument or a value past the
    double range) becomes NumericError naming the quadruple; other errors
    pass through.  After the call, the first row whose products or value
    leave the double range raises NumericError.
    """
    args = []
    for row in rows:
        args += _arguments(*row)
    try:
        values = iter(f._evaluate_many(args))
    except Exception as exc:
        if len(rows) == 1:
            if isinstance(exc, SigmaKitError) or not isinstance(exc, (OverflowError, ValueError)):
                raise
            raise NumericError(f"{f.label} failed on the quadruple: {exc}",
                               diagnostics={"quadruple": list(map(complex, rows[0]))}) from None
        values = None
    if values is None:
        # Outside the handler, so that a row's error carries no batch context.
        return [result for row in rows for result in _residuals(f, [row])]
    results = []
    for row, (f1, f2, f3, f4, g1, g2, g3, g4, h1, h2, h3, h4) in zip(rows, zip(*[values] * 12)):
        term1 = f1 * f2 * f3 * f4
        term2 = g1 * g2 * g3 * g4
        term3 = h1 * h2 * h3 * h4
        value = term1 - term2 - term3
        try:
            scale = max(abs(term1), abs(term2), abs(term3))
            size = abs(value)
        except OverflowError:
            scale = size = math.inf
        if not (math.isfinite(scale) and math.isfinite(size)):
            raise NumericError("four-point residual is outside the double range",
                               diagnostics={"quadruple": list(map(complex, row))})
        results.append((value, scale))
    return results


def sample_quadruples(num_samples: int, seed: int, box_radius: float = 1.0):
    """Deterministic quadruples with all four entries in |.| <= box_radius.

    ``seed`` is an integer >= 0 and ``box_radius`` finite and >= 0, else DomainError.
    """
    _check_box(box_radius)
    return [QuadruplePoint(*row) for row in _draw_quadruples(num_samples, seed, box_radius)]


def _check_box(box_radius: float) -> None:
    if not 0.0 <= box_radius < math.inf:
        raise DomainError(f"box_radius must be finite and >= 0, got {box_radius!r}")


def _draw_quadruples(num_samples: int, seed: int, box_radius: float):
    """The entries of ``sample_quadruples``, one row of four at a time.

    Row k takes uniforms 8k to 8k+7 of NumPy's ``random.default_rng(seed)``,
    reproduced bit for bit: PCG64 (O'Neill, HMC-CS-2014-0905) is a 128-bit
    LCG with XSL-RR output, seeded from NumPy's SeedSequence, and a uniform
    is (x >> 11) * 2^-53.  Uniforms 0-3 give the radii r = box_radius*sqrt(u),
    uniforms 4-7 the angles 2*pi*u, and each entry is ``cmath.rect(r, angle)``,
    which equals NumPy's r*exp(1j*angle) bit for bit but in two cases: a part
    that is zero (r = 0, from box_radius = 0 or a uniform of 0, or a product
    that underflows) may take the other sign, and an infinite or NaN r gives
    rect's parts, such as (inf, 0) at angle 0, where the product has a NaN.
    A negative count draws nothing, as range() would.
    """
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    mask128 = (1 << 128) - 1
    mask64 = (1 << 64) - 1
    mask53 = (1 << 53) - 1
    # x * spread is x twice over, so shifting it right by r leaves x
    # rotated right by r in the low 64 bits.
    spread = (1 << 64) + 1
    ulp = 2.0**-53
    two_pi = 2.0 * math.pi
    sqrt, rect = math.sqrt, cmath.rect
    state_hi, state_lo, stream_hi, stream_lo = _seed_sequence_state(seed)
    # pcg_setseq_128_srandom: an odd increment from the stream, then one
    # step, the initial state added, and a second step.
    inc = (stream_hi << 64 | stream_lo) << 1 & mask128 | 1
    state = ((inc + (state_hi << 64 | state_lo)) * mult + inc) & mask128
    for _ in range(num_samples):
        u = []
        for _ in range(8):
            state = (state * mult + inc) & mask128
            # XSL-RR: the xor of the two halves rotated right by the top six
            # bits of the state; the uniform keeps the top 53 bits.
            u.append(((state >> 64 ^ state & mask64) * spread >> (state >> 122) + 11 & mask53)
                     * ulp)
        u0, u1, u2, u3, u4, u5, u6, u7 = u
        yield [rect(box_radius * sqrt(u0), two_pi * u4), rect(box_radius * sqrt(u1), two_pi * u5),
               rect(box_radius * sqrt(u2), two_pi * u6), rect(box_radius * sqrt(u3), two_pi * u7)]


def _seed_sequence_state(seed: int) -> list[int]:
    """NumPy's ``SeedSequence(seed).generate_state(4, uint64)``.

    The seed's little-endian 32-bit words are hashed into a pool of four
    words, every pool word is mixed into every other, and any words beyond
    the fourth are mixed into each pool word in turn; four 64-bit words are
    then hashed out of the pool.  A seed that is not an integer >= 0
    raises DomainError before it is split.
    """
    try:
        entropy = operator.index(seed)
    except TypeError:
        entropy = -1
    if entropy < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    mask32 = 0xFFFFFFFF
    words = [entropy & mask32]
    while entropy := entropy >> 32:
        words.append(entropy & mask32)

    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & mask32
        value = value * hash_const & mask32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & mask32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & mask32
        value = value * hash_const & mask32
        halves.append(value ^ value >> 16)
    return [halves[k] | halves[k + 1] << 32 for k in (0, 2, 4, 6)]


def identity_report(f: OddFunctionHandle, *, num_samples: int = 100, seed: int = 1729,
                    box_radius: float = 1.0) -> dict:
    """Residual survey over seeded random quadruples.

    Returns a JSON-ready report with the worst absolute residual, the
    scale at which it occurred, and the worst residual-to-scale ratio.
    The quadruples are drawn and evaluated ``_CHUNK`` at a time, one batch
    per chunk, so memory stays flat in num_samples; every value and error
    is that of ``sample_quadruples`` and ``identity_residual`` on each quadruple in turn.
    """
    _check_box(box_radius)
    worst = 0.0
    worst_scale = 0.0
    worst_ratio = 0.0
    rows = _draw_quadruples(num_samples, seed, box_radius)
    while chunk := list(islice(rows, _CHUNK)):
        for value, scale in _residuals(f, chunk):
            size = abs(value)
            if size > worst:
                worst = size
                worst_scale = scale
            if scale > 0:
                worst_ratio = max(worst_ratio, size / scale)
    return {
        "function": f.label,
        "max_abs_residual": worst,
        "scale": worst_scale,
        "max_residual_over_scale": worst_ratio,
        "num_samples": num_samples,
        "seed": seed,
        "box_radius": box_radius,
    }


def duplication_residual(s: TruncatedOddSeries) -> TruncatedOddSeries:
    """Odd series of a1^3 * f(2z) - (f^3 f''' - 3 f^2 f' f'' + 2 f (f')^3).

    Valid through the input max_degree; identically zero (to roundoff) for
    truncations of functions satisfying the four-point identity.
    """
    if s.leading == 0:
        raise NotInOmegaError("leading odd coefficient vanishes")
    if s.max_degree < 3:
        raise DomainError("duplication residual needs max_degree >= 3")
    from .series import _computed, duplication_rhs, scale_argument
    a1 = s.leading
    doubled = scale_argument(s, 2.0)
    rhs = duplication_rhs(s)
    cube = a1**3
    return _computed(
        [cube * d - r for d, r in zip(doubled.odd_coefficients, rhs.odd_coefficients)],
        "the duplication residual",
    )


def psi(n: int) -> int:
    """(n-1)(n-2)(n-3) + 8 - 2^n for odd n >= 5; vanishes only at 5 and 7."""
    if n % 2 == 0 or n < 5:
        raise DomainError("psi is defined for odd n >= 5")
    return (n - 1) * (n - 2) * (n - 3) + 8 - 2**n


def extend_series(s: TruncatedOddSeries, target_degree: int) -> TruncatedOddSeries:
    """Extend odd Taylor data by the duplication-equation recurrence.

    Each a_n past the data is the degree-n residual at a_n = 0 over
    a1^3 * psi(n), the negated slope.  The data runs scaled by the power of
    two that brings |a1| into [1/2, 1), exactly, so the size of a1 alone
    cannot make its quartic residual underflow or overflow.
    Extending to 11 and then to 13 equals extending to 13, bit for bit.
    The result is backward stable: its error is within about 10x the effect
    of a 1-ulp change in one input coefficient, which on trig-like data
    grows about 9x per odd degree whatever the scale a.
    """
    if s.leading == 0:
        raise NotInOmegaError("leading odd coefficient vanishes")
    if s.max_degree < 7:
        raise DomainError("extension needs data through degree 7")
    if target_degree % 2 == 0 or target_degree <= s.max_degree:
        raise DomainError("target_degree must be odd and exceed max_degree")
    from .series import _computed
    # ldexp, since 1/a1 overflows for a subnormal a1.
    shift = -math.frexp(abs(s.leading))[1]
    coeffs = _ldexp_all(s.odd_coefficients, shift, "the data scaled by 1/a1")
    for n in range(s.max_degree + 2, target_degree + 1, 2):
        # The residual raises NumericError before a1^3 could overflow.
        r = duplication_residual(_computed(coeffs + [0j], "the extension")).coefficient(n)
        coeffs.append(r / (coeffs[0] ** 3 * psi(n)))
    return _computed(_ldexp_all(coeffs, -shift, "the extension"), "the extension")


def _ldexp_all(coeffs, shift: int, what: str) -> list[complex]:
    """coeffs times 2^shift, exactly where the results are normal doubles."""
    try:
        return [complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift)) for c in coeffs]
    except OverflowError:
        raise NumericError(f"{what} is outside the double range") from None


def duplication_report(s: TruncatedOddSeries) -> dict:
    """JSON-ready residual summary for a series.

    ``first_nonzero_degree`` ignores roundoff dust: the residual is
    quartic in the coefficients, so only entries above
    1e-12 * max(1, coefficient scale)^4 count; a scale whose fourth power
    leaves the double range raises NumericError.
    """
    res = duplication_residual(s)
    mags = [abs(c) for c in res.odd_coefficients]
    scale = max(1.0, max(abs(c) for c in s.odd_coefficients))
    try:
        dust = 1e-12 * scale**4
    except OverflowError:
        raise NumericError(f"the roundoff threshold 1e-12 * {scale}^4 is outside the double range",
                           diagnostics={"scale": scale}) from None
    meaningful = [k for k, m in enumerate(mags) if m > dust]
    return {
        "max_degree": res.max_degree,
        "residual_coefficients": json_ready(res.odd_coefficients),
        "max_abs_residual": max(mags),
        "first_nonzero_degree": 2 * meaningful[0] + 1 if meaningful else None,
    }
