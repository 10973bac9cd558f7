import cmath
import math
import tracemalloc

import numpy as np
import pytest

from conftest import third_derivative
from sigmakit import (
    Classification,
    DomainError,
    NotInOmegaError,
    NumericError,
    OddFunctionHandle,
    QuadruplePoint,
    SigmaKitError,
    TauPoint,
    TruncatedOddSeries,
    duplication_residual,
    extend_series,
    identity_report,
    identity_residual,
    lattice_from_rho_tau,
    psi,
    sample_quadruples,
    sigma_eval,
    synthesize,
    theta1_odd_series,
)
from sigmakit.identity import _CHUNK, _draw_quadruples

SINE = TruncatedOddSeries([1, -1 / 6, 1 / 120, -1 / 5040])
CUBIC = TruncatedOddSeries([1, 1, 0, 0, 0])  # z + z^3, embedded through degree 9
ZETA = cmath.exp(2j * math.pi / 3)


def four_point_sum(f, x, y, z, w):
    """Independent transcription of the identity's left-hand side."""
    t1 = f(x) * f(y) * f(z) * f(w)
    t2 = (
        f((x + y + z - w) / 2)
        * f((x + y - z + w) / 2)
        * f((x - y + z + w) / 2)
        * f((-x + y + z + w) / 2)
    )
    t3 = (
        f((x + y + z + w) / 2)
        * f((x + y - z - w) / 2)
        * f((x - y + z - w) / 2)
        * f((x - y - z + w) / 2)
    )
    return t1 - t2 - t3


class TestHandles:
    def test_oddness_check_rejects_even_function(self):
        with pytest.raises(DomainError):
            OddFunctionHandle(lambda z: z * z, "square")

    def test_batch_probes_oddness_in_one_call(self):
        calls = []

        def batch(zs):
            calls.append(list(zs))
            return [cmath.sin(z) for z in zs]

        h = OddFunctionHandle(lambda z: 1 / 0, "sin", batch=batch)
        assert calls == [[0.37, -0.37, 0.11 + 0.23j, -0.11 - 0.23j, -0.52 + 0.08j, 0.52 - 0.08j]]
        assert h._evaluate_many([0.5]) == [cmath.sin(0.5)]

    def test_batch_rejects_as_the_pointwise_probes_do(self):
        def square(z):
            z = complex(z)
            return z * z

        with pytest.raises(DomainError) as pointwise:
            OddFunctionHandle(square, "square")
        with pytest.raises(DomainError) as batched:
            OddFunctionHandle(square, "square", batch=lambda zs: [square(z) for z in zs])
        assert str(batched.value) == str(pointwise.value)

    def test_probe_error_wins_over_an_earlier_probe_that_is_not_odd(self):
        # The six probes are evaluated in one call before any pair is judged.
        def square(z):
            if z == -0.52 + 0.08j:
                raise ValueError("outside the evaluator's domain")
            return z * z

        with pytest.raises(ValueError, match="evaluator's domain"):
            OddFunctionHandle(square, "square")

    def test_sigma_probe_error_names_the_failing_probe(self):
        # The first two probe pairs fit in a double, sigma at -0.52 + 0.08i does not.
        lat = lattice_from_rho_tau(0.023815574581512955 - 0.005607141885756839j,
                                   -0.47448288381173453 + 2.1985198877019356j)
        with pytest.raises(NumericError, match="sigma at z=") as info:
            OddFunctionHandle.from_sigma(lat)
        assert info.value.diagnostics["z"] == [-0.52, 0.08]

    def test_builtin_handles(self):
        assert OddFunctionHandle.identity()(2.0) == 2.0
        assert abs(OddFunctionHandle.sine()(0.3) - math.sin(0.3)) < 1e-15

    def test_series_handle(self):
        h = OddFunctionHandle.from_series(SINE)
        assert abs(h(0.1) - SINE.evaluate(0.1)) == 0


class TestIdentityResidual:
    def test_identity_function_cancels(self):
        res = identity_residual(
            OddFunctionHandle.identity(), QuadruplePoint.of(1, 2, 3, 4)
        )
        # 24 - 24 - 0: the third product contains f(0) = 0.
        assert res.value == 0
        assert res.scale == 24

    def test_diagonal_quadruple_cancels(self):
        # Term 2 equals term 1 and term 3 carries f(0) = 0; only the
        # rounding of 3t - t keeps this from being bitwise zero.
        rng = np.random.default_rng(31)
        h = OddFunctionHandle.from_series(SINE)
        for _ in range(5):
            t = complex(*rng.uniform(-1, 1, 2))
            res = identity_residual(h, QuadruplePoint.of(t, t, t, t))
            assert abs(res.value) <= 1e-14 * res.scale

    def test_cubic_is_not_a_solution(self):
        h = OddFunctionHandle.from_series(CUBIC)
        pt = QuadruplePoint.of(1, 2, 3, 5)
        res = identity_residual(h, pt)
        oracle = four_point_sum(lambda z: z + z**3, 1, 2, 3, 5)
        assert res.value == oracle
        assert abs(res.value) > 1.0

    def test_matches_direct_transcription(self):
        rng = np.random.default_rng(32)
        h = OddFunctionHandle.sine()
        for _ in range(5):
            vals = rng.uniform(-1, 1, 8)
            x, y, z, w = (complex(vals[2 * i], vals[2 * i + 1]) for i in range(4))
            res = identity_residual(h, QuadruplePoint.of(x, y, z, w))
            assert res.value == four_point_sum(cmath.sin, x, y, z, w)

    def test_sigma_batch_matches_sigma_eval(self):
        # The survey evaluates sigma's twelve arguments in one batch; the
        # batch and sigma_eval share one kernel, so the residual is exact.
        lat = lattice_from_rho_tau(0.9 + 0.2j, 0.3 + 1.1j)
        h = OddFunctionHandle.from_sigma(lat)
        for pt in sample_quadruples(5, seed=11, box_radius=2.0):
            res = identity_residual(h, pt)
            assert res.value == four_point_sum(lambda z: sigma_eval(z, lat), pt.x, pt.y, pt.z, pt.w)

    def test_sigma_batch_errors_follow_the_first_failing_argument(self):
        # Arguments are evaluated in order, as twelve handle calls would be:
        # sigma(1e308) overflows before (x + y)/2 becomes infinite.
        h = OddFunctionHandle.from_sigma(lattice_from_rho_tau(1, 1j))
        with pytest.raises(NumericError):
            identity_residual(h, QuadruplePoint.of(1e308, 1e308, 0, 0))
        with pytest.raises(DomainError):
            identity_residual(h, QuadruplePoint.of(0.1, complex(0, math.inf), 0, 0))

    def test_evaluator_failure_is_numeric_error_naming_the_quadruple(self):
        def bounded(z):
            if abs(z) > 10:
                raise ValueError("math domain error")
            return z

        with pytest.raises(NumericError) as info:
            identity_residual(OddFunctionHandle(bounded, "bounded"),
                              QuadruplePoint.of(20, 1, 1, 1))
        assert info.value.diagnostics["quadruple"] == [[20.0, 0.0], [1.0, 0.0], [1.0, 0.0],
                                                       [1.0, 0.0]]

    def test_evaluator_domain_error_passes_through(self):
        def refusing(z):
            if abs(z) > 10:
                raise DomainError("outside the evaluator's domain")
            return z

        with pytest.raises(DomainError, match="evaluator's domain"):
            identity_residual(OddFunctionHandle(refusing, "refusing"),
                              QuadruplePoint.of(20, 1, 1, 1))

    def test_report_agrees_with_pointwise_residuals(self):
        lat = lattice_from_rho_tau(0.9 + 0.2j, 0.3 + 1.1j)
        for h in (OddFunctionHandle.from_sigma(lat), OddFunctionHandle.sine()):
            report = identity_report(h, num_samples=30, seed=3, box_radius=1.5)
            res = [identity_residual(h, pt) for pt in sample_quadruples(30, 3, 1.5)]
            assert report["max_abs_residual"] == max(abs(r.value) for r in res)
            assert report["max_residual_over_scale"] == max(abs(r.value) / r.scale for r in res)

    def test_report_is_deterministic(self):
        h = OddFunctionHandle.sine()
        r1 = identity_report(h, num_samples=20, seed=42)
        r2 = identity_report(h, num_samples=20, seed=42)
        assert r1 == r2
        assert r1["num_samples"] == 20
        assert r1["seed"] == 42


def reference_report(f, num_samples, seed, box_radius):
    """``identity_report`` as a loop of ``identity_residual``, one quadruple at a time."""
    worst = worst_scale = worst_ratio = 0.0
    for pt in sample_quadruples(num_samples, seed, box_radius):
        value, scale = identity_residual(f, pt)
        if abs(value) > worst:
            worst, worst_scale = abs(value), scale
        if scale > 0:
            worst_ratio = max(worst_ratio, abs(value) / scale)
    return {"function": f.label, "max_abs_residual": worst, "scale": worst_scale,
            "max_residual_over_scale": worst_ratio, "num_samples": num_samples,
            "seed": seed, "box_radius": box_radius}


def outcome(call):
    """The result of call(), or the type, message and diagnostics of its error."""
    try:
        return call()
    except SigmaKitError as exc:
        return type(exc), str(exc), getattr(exc, "diagnostics", None)


CORNER_TAU = cmath.exp(2j * math.pi / 3)
SURVEY_COUNTS = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5)


class TestBatchedSurvey:
    # The survey evaluates each chunk of quadruples in one batch; every
    # value must equal the quadruple-by-quadruple loop's, bit for bit.
    @pytest.mark.parametrize("tau", [CORNER_TAU + 0.004j, 0.21 + 1.3j, -0.37 + 2.6j,
                                     cmath.exp(1.8j)], ids=["corner", "generic", "high", "arc"])
    @pytest.mark.parametrize("reach", [0.6, 1.4, 2.5])
    def test_sigma_equals_the_pointwise_loop(self, tau, reach):
        box = 1.7
        lat = lattice_from_rho_tau(cmath.rect(box / reach, 0.8), tau)
        h = OddFunctionHandle.from_sigma(lat)
        for n in SURVEY_COUNTS:
            assert identity_report(h, num_samples=n, seed=n + 3, box_radius=box) == \
                reference_report(h, n, n + 3, box)

    @pytest.mark.parametrize("make", [
        OddFunctionHandle.sine,
        lambda: OddFunctionHandle.from_series(TruncatedOddSeries([1, 0.3, -0.02, 0.001])),
        lambda: OddFunctionHandle.from_sigma(lattice_from_rho_tau(0.9, 0.1 + 1.2j)).twisted(
            0.3 - 0.2j, 0.1j),
    ], ids=["sine", "series", "twisted"])
    def test_handles_equal_the_pointwise_loop(self, make):
        handle = make()
        for n in SURVEY_COUNTS:
            assert identity_report(handle, num_samples=n, seed=7, box_radius=1.3) == \
                reference_report(handle, n, 7, 1.3)

    def test_product_overflow_before_a_non_finite_sigma(self):
        # Quadruple 0 overflows its products, quadruple 1 has a sigma beyond
        # the double range, so the batch raises for quadruple 1; quadruple 0's
        # error must win, as in the loop.
        h = OddFunctionHandle.from_sigma(lattice_from_rho_tau(0.05, 1j))
        first, second = sample_quadruples(2, seed=10, box_radius=1.0)
        assert "four-point residual" in str(outcome(lambda: identity_residual(h, first))[1])
        assert "sigma at z=" in str(outcome(lambda: identity_residual(h, second))[1])
        got = outcome(lambda: identity_report(h, num_samples=_CHUNK, seed=10, box_radius=1.0))
        assert got == outcome(lambda: reference_report(h, _CHUNK, 10, 1.0))
        assert got[0] is NumericError
        assert got[2]["quadruple"] == [[v.real, v.imag] for v in first]

    def test_product_overflow_in_a_later_chunk(self):
        # Every value is finite; quadruple 76 is the first whose products
        # leave the double range.
        h = OddFunctionHandle.identity()
        got = outcome(lambda: identity_report(h, num_samples=3 * _CHUNK, seed=2,
                                              box_radius=1.3e77))
        assert got == outcome(lambda: reference_report(h, 3 * _CHUNK, 2, 1.3e77))
        row = sample_quadruples(77, seed=2, box_radius=1.3e77)[76]
        assert got[:2] == (NumericError, "four-point residual is outside the double range")
        assert got[2]["quadruple"] == [[v.real, v.imag] for v in row]

    @pytest.mark.parametrize("error", [ValueError, DomainError])
    def test_evaluator_error_in_a_later_chunk(self, error):
        # Quadruple 99 is the first with an argument beyond |z| = 1.6.
        def clipped(z):
            if abs(z) > 1.6:
                raise error("outside the evaluator's domain")
            return cmath.sin(z)

        h = OddFunctionHandle(clipped, "clipped")
        got = outcome(lambda: identity_report(h, num_samples=3 * _CHUNK, seed=8, box_radius=1.0))
        assert got == outcome(lambda: reference_report(h, 3 * _CHUNK, 8, 1.0))
        assert got[0] is (NumericError if error is ValueError else DomainError)
        if error is ValueError:
            row = sample_quadruples(100, seed=8, box_radius=1.0)[99]
            assert got[2]["quadruple"] == [[v.real, v.imag] for v in row]

    def test_memory_stays_flat_in_the_sample_count(self):
        h = OddFunctionHandle.sine()
        identity_report(h, num_samples=_CHUNK, seed=1)
        peaks = []
        for chunks in (4, 40):
            tracemalloc.start()
            try:
                identity_report(h, num_samples=chunks * _CHUNK, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestThreeFamiliesSatisfyIdentity:
    def test_exact_evaluators(self):
        lat = lattice_from_rho_tau(1, 1j)
        sigma_handle = OddFunctionHandle.from_sigma(lat)
        handles = [
            OddFunctionHandle.identity(),
            OddFunctionHandle.sine(),
            sigma_handle,
            sigma_handle.twisted(0.3 - 0.2j, 0.1 + 0.4j),
        ]
        for handle in handles:
            report = identity_report(handle, num_samples=100, seed=1729)
            assert report["max_residual_over_scale"] <= 1e-9

    def test_series_members_satisfy_duplication(self):
        members = [
            synthesize(Classification(case="linear", alpha=0.2j, beta=0.1), 13),
            synthesize(
                Classification(case="trig", alpha=-0.1, beta=0.2j, a=1.3 + 0.1j), 13
            ),
            synthesize(
                Classification(
                    case="elliptic",
                    alpha=0.05,
                    beta=-0.1j,
                    rho=1.0 + 0.0j,
                    tau=TauPoint(0.3 + 1.1j),
                ),
                13,
            ),
        ]
        for s in members:
            res = duplication_residual(s)
            scale = float(np.max(np.abs(s.odd_coefficients)))
            assert float(np.max(np.abs(res.odd_coefficients))) <= 1e-10 * max(1, scale)


class TestDuplicationResidual:
    def test_sine_satisfies_duplication(self):
        sine11 = TruncatedOddSeries(
            [(-1) ** k / math.factorial(2 * k + 1) for k in range(6)]
        )
        res = duplication_residual(sine11)
        assert float(np.max(np.abs(res.odd_coefficients))) <= 1e-12

    def test_plain_z(self):
        res = duplication_residual(TruncatedOddSeries([1, 0]))
        assert np.array_equal(res.odd_coefficients, [0, 0])

    def test_cubic_first_failure_at_degree_nine(self):
        res = duplication_residual(CUBIC)
        assert np.allclose(res.odd_coefficients[:4], 0, atol=1e-15)
        assert abs(res.coefficient(9) + 6.0) <= 1e-12

    def test_preconditions(self):
        with pytest.raises(NotInOmegaError):
            duplication_residual(TruncatedOddSeries([0, 1]))
        with pytest.raises(DomainError):
            duplication_residual(TruncatedOddSeries([1]))


class TestPsi:
    def test_values(self):
        assert psi(5) == 0
        assert psi(7) == 0
        assert psi(9) == -168

    def test_domain(self):
        for bad in (4, 8, 3, 1, -5):
            with pytest.raises(DomainError):
                psi(bad)

    def test_nonzero_beyond_seven(self):
        assert all(psi(n) != 0 for n in range(9, 41, 2))


class TestExtendSeries:
    def test_sine_extension(self):
        ext = extend_series(SINE, 11)
        assert abs(ext.coefficient(9) - 1 / 362880) <= 1e-12 * (1 / 362880)
        assert abs(ext.coefficient(11) + 1 / 39916800) <= 1e-12 * (1 / 39916800)

    def test_plain_z_extends_by_zeros(self):
        ext = extend_series(TruncatedOddSeries([1, 0, 0, 0]), 13)
        assert np.array_equal(ext.odd_coefficients[4:], [0, 0, 0])

    def test_theta_data_matches_q_series(self):
        data = theta1_odd_series(1j, 7)
        ext = extend_series(data, 13)
        reference = theta1_odd_series(1j, 13)
        for k in (4, 5, 6):
            ref = reference.odd_coefficients[k]
            assert abs(ext.odd_coefficients[k] - ref) <= 1e-10 * abs(ref)

    def test_idempotent(self):
        # |a1| < 1/2 in the second, so its recurrence runs scaled.
        for data in (SINE, TruncatedOddSeries([0.3 + 0.1j, -0.05 + 0.02j, 0.001j, 2e-4])):
            mid = extend_series(data, 11)
            twice = extend_series(mid, 13)
            once = extend_series(data, 13)
            assert np.array_equal(twice.odd_coefficients, once.odd_coefficients)

    def test_cubic_forced_ninth_coefficient(self):
        # The degree-9 residual of z + z^3 is -6 and the slope is -psi(9),
        # so the unique duplication-consistent value is 6/168 = 1/28.
        ext = extend_series(TruncatedOddSeries([1, 1, 0, 0]), 9)
        assert abs(ext.coefficient(9) - 1 / 28) <= 1e-14

    def test_small_leading_coefficient_runs_scaled_exactly(self):
        # Scaling by a power of two commutes with every rounding, so data
        # with |a1| < 1/2 extends to the same bits as the unscaled data.
        member = synthesize(Classification("elliptic", 0.1, 0.2, rho=3.3 + 1.1j,
                                           tau=TauPoint(0.2 + 1.3j)), 7)
        small = TruncatedOddSeries([c * 2.0**-60 for c in member.odd_coefficients])
        want = [c * 2.0**-60 for c in extend_series(member, 41).odd_coefficients]
        assert list(extend_series(small, 41).odd_coefficients) == want

    @pytest.mark.parametrize("c", [1e-300, 1e-100, 1e-30, 3e-5])
    def test_tiny_data_extends(self, c):
        # Unscaled, the quartic residual underflows for c <= 1e-100.  The
        # tail measured within 2.4e-19 * c of c*sin's (2.1e-19 at c = 1).
        data = TruncatedOddSeries([c * v for v in SINE.odd_coefficients])
        got = extend_series(data, 41).odd_coefficients
        for k in range(4, 21):
            assert abs(got[k] - c * (-1) ** k / math.factorial(2 * k + 1)) <= 1.2e-18 * c

    @pytest.mark.parametrize("c", [1e80, 1e150, 1e300])
    def test_huge_data_extends(self, c):
        # Unscaled, the quartic residual overflows from c of about 1e77.
        data = TruncatedOddSeries([c * v for v in SINE.odd_coefficients])
        got = extend_series(data, 41).odd_coefficients
        for k in range(4, 21):
            assert abs(got[k] - c * (-1) ** k / math.factorial(2 * k + 1)) <= 1.2e-18 * c

    def test_extension_beyond_double_range(self):
        # 1e300*sin(40z) has a41 = 1e300 * 40^41/41!, about 1.4e316.
        data = TruncatedOddSeries([1e300 * ((-1) ** k * 40.0 ** (2 * k + 1) / math.factorial(2 * k + 1))
                                   for k in range(4)])
        with pytest.raises(NumericError, match="the extension is outside the double range"):
            extend_series(data, 41)

    def test_tiny_leading_coefficient(self):
        ext = extend_series(TruncatedOddSeries([1e-120, 0, 0, 0]), 13)
        assert ext.odd_coefficients[4:] == (0j, 0j, 0j)
        assert extend_series(TruncatedOddSeries([5e-324, 0, 0, 0]), 9).coefficient(9) == 0
        # Scaled to a1 ~ 1, a3 is about 1e120 and the residual overflows.
        with pytest.raises(NumericError):
            extend_series(TruncatedOddSeries([1e-120, 1, 0, 0]), 9)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            extend_series(SINE, 7)
        with pytest.raises(DomainError):
            extend_series(SINE, 12)
        with pytest.raises(NotInOmegaError):
            extend_series(TruncatedOddSeries([0, 1, 0, 0]), 9)


class TestThirdDerivativeLink:
    def test_collapse_direction_matches_residual(self):
        # (1/6) d^3/dt^3 of the four-point sum along
        # (x, x+t, x+u t, x+u^2 t) equals minus the duplication residual
        # evaluated at x.  Polynomials are exact after zero-padding the
        # series to the full product degree 4*max_degree - 3.
        cases = [
            CUBIC,
            TruncatedOddSeries([1, 0.4 - 0.2j, 0.03 + 0.01j, -0.02j]),
        ]
        for s in cases:
            padded = TruncatedOddSeries(
                list(s.odd_coefficients)
                + [0.0] * (2 * s.max_degree - 1 - len(s.odd_coefficients))
            )
            residual = duplication_residual(padded)
            h = OddFunctionHandle.from_series(s)
            for x in (0.3, 0.1 + 0.2j, -0.4 + 0.1j):
                def sweep(t):
                    return identity_residual(
                        h, QuadruplePoint.of(x, x + t, x + ZETA * t, x + ZETA**2 * t)
                    ).value

                lhs = third_derivative(sweep, 1e-2) / 6.0
                rhs = -residual.evaluate(x)
                assert abs(lhs - rhs) <= 1e-6


def numpy_draw(num_samples, seed, box):
    """The draw through NumPy that ``_draw_quadruples`` reproduces."""
    u = np.random.default_rng(seed).random((max(num_samples, 0), 8))
    r = box * np.sqrt(u[:, :4])
    return (r * np.exp(1j * (2.0 * np.pi * u[:, 4:]))).tolist()


SAMPLE_COUNTS = (0, 1, 7, 8, 9, 16, 50)


class TestSampling:
    # repr tells the signs of zeros apart, which == does not.
    @pytest.mark.parametrize("box", [0.3, 1.0, 8.0])
    def test_matches_numpy_on_the_seed_grid(self, box):
        for seed in range(400):
            for n in SAMPLE_COUNTS:
                assert repr(list(_draw_quadruples(n, seed, box))) == repr(numpy_draw(n, seed, box))

    # Seeds of 2 to 4 words, and of 7 and 8 words, which SeedSequence mixes
    # into its 4-word pool one word at a time.
    @pytest.mark.parametrize("seed", [2**32, 2**64 + 5, 2**96 + 7, 2**127, 2**128 - 1,
                                      2**200 + 12345, 2**255 - 19])
    def test_matches_numpy_at_large_seeds(self, seed):
        for n in SAMPLE_COUNTS:
            for box in (0.3, 1.0, 8.0):
                assert repr(list(_draw_quadruples(n, seed, box))) == repr(numpy_draw(n, seed, box))

    def test_negative_count_draws_nothing(self):
        assert sample_quadruples(-3, seed=5) == []

    @pytest.mark.parametrize("seed", [-1, -5, -2**70, None, 7.0, "7", [1, 2]])
    def test_rejects_a_seed_that_is_not_an_integer_at_least_zero(self, seed):
        with pytest.raises(DomainError, match="seed"):
            sample_quadruples(0, seed)
        with pytest.raises(DomainError, match="seed"):
            identity_report(OddFunctionHandle.sine(), num_samples=3, seed=seed)

    @pytest.mark.parametrize("seed", [1, 1729, 42])
    @pytest.mark.parametrize("box", [0.3, 1.0, 2.5])
    def test_matches_per_sample_draw(self, seed, box):
        # The draw that fixed each seed's samples: two uniform calls per
        # sample, radii first.
        rng = np.random.default_rng(seed)
        want = []
        for _ in range(40):
            r = box * np.sqrt(rng.uniform(0.0, 1.0, 4))
            th = rng.uniform(0.0, 2.0 * np.pi, 4)
            want.append(QuadruplePoint.of(*(r * np.exp(1j * th))))
        assert sample_quadruples(40, seed, box) == want

    def test_quadruples_deterministic_and_bounded(self):
        a = sample_quadruples(50, seed=9, box_radius=1.0)
        b = sample_quadruples(50, seed=9, box_radius=1.0)
        assert a == b
        for pt in a:
            for v in (pt.x, pt.y, pt.z, pt.w):
                assert abs(v) <= 1.0
