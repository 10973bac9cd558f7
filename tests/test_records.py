"""The record classes: value equality, hashing, read-only fields, repr and
the validation each constructor does."""

import math

import pytest

from conftest import IDENTITY_MAP, INVERSION, compose, translation
from sigmakit import (
    Classification,
    ConvergenceError,
    DomainError,
    HatForm,
    IdentityResidual,
    InvariantData,
    Lattice,
    NumericError,
    OddFunctionHandle,
    ProjectiveValue,
    QuadruplePoint,
    TauPoint,
    TruncatedOddSeries,
    UnimodularMap,
    identity_residual,
    normalize_lattice,
)
from sigmakit.cli import emit
from sigmakit.errors import json_ready

SERIES = TruncatedOddSeries([1, 0, 0, 0])


def records():
    """Two equal, separately built instances of each record class."""
    def make():
        return [
            TauPoint(0.1 + 1.1j),
            UnimodularMap(1, 2, 0, 1),
            normalize_lattice(1, 0.1 + 1.1j),
            QuadruplePoint.of(1, 2, 3, 4),
            IdentityResidual(value=1j, scale=2.0),
            ProjectiveValue.finite(2),
            InvariantData(p=1j, q=2j, mu=ProjectiveValue.undefined()),
            HatForm(series=SERIES, alpha=0.1, beta=0.2),
            Classification(case="trig", alpha=0.1, beta=0.2, a=1.5),
        ]
    return list(zip(make(), make()))


@pytest.mark.parametrize("one, other", records(), ids=lambda r: type(r).__name__)
def test_equal_by_value_and_immutable(one, other):
    assert one is not other and one == other
    field = one._fields[0]
    with pytest.raises(AttributeError):
        setattr(one, field, 0)
    assert getattr(one, field) == getattr(other, field)


@pytest.mark.parametrize("one, other", records()[:-1], ids=lambda r: type(r).__name__)
def test_hashable_by_value(one, other):
    assert hash(one) == hash(other)
    assert len({one, other}) == 1


def test_classification_is_unhashable_and_has_its_own_diagnostics():
    first = Classification("linear", 0, 0)
    second = Classification("linear", 0, 0)
    with pytest.raises(TypeError):
        hash(first)
    assert first.diagnostics == {} and first.diagnostics is not second.diagnostics


def test_records_other_than_lattice_take_no_new_attributes():
    for one, _ in records():
        if not isinstance(one, Lattice):
            with pytest.raises(AttributeError):
                one.extra = 1


def test_unimodular_maps_compare_by_entries():
    m = compose(translation(2), INVERSION)
    assert m == UnimodularMap(2, -1, 1, 0)
    assert m != UnimodularMap(-2, 1, -1, 0)
    assert compose(m, IDENTITY_MAP) == m


def test_lattice_caches_outside_its_fields():
    one, other = normalize_lattice(1, 0.1 + 1.1j), normalize_lattice(1, 0.1 + 1.1j)
    assert one.gauge == other.gauge
    assert one.gauge is one.gauge
    assert one == other and hash(one) == hash(other)


def test_repr():
    tau = TauPoint(1j)
    assert repr(tau) == "TauPoint(value=1j)"
    assert repr(UnimodularMap(0, -1, 1, 0)) == "UnimodularMap(a=0, b=-1, c=1, d=0)"
    assert repr(ProjectiveValue.infinity()) == "ProjectiveValue(tag='infinity', value=None)"
    assert repr(IdentityResidual(1j, 2.0)) == "IdentityResidual(value=1j, scale=2.0)"
    assert repr(QuadruplePoint.of(1, 2, 3, 4)) == (
        "QuadruplePoint(x=(1+0j), y=(2+0j), z=(3+0j), w=(4+0j))")
    assert repr(HatForm(SERIES, 0.1, 0.2)) == (
        "HatForm(series=TruncatedOddSeries(max_degree=7), alpha=0.1, beta=0.2)")
    assert repr(InvariantData(1j, 2j, ProjectiveValue.undefined())) == (
        "InvariantData(p=1j, q=2j, mu=ProjectiveValue(tag='undefined', value=None))")
    assert repr(Classification("elliptic", 0j, 1j, rho=1, tau=tau, diagnostics={"x": 1})) == (
        "Classification(case='elliptic', alpha=0j, beta=1j, a=None, rho=1, "
        "tau=TauPoint(value=1j), diagnostics={'x': 1})")
    assert repr(normalize_lattice(1, 2j)) == (
        "Lattice(omega1=(1+0j), omega2=2j, rho=(1+0j), tau=TauPoint(value=2j), "
        "reduction=UnimodularMap(a=1, b=0, c=0, d=1), orientation_flipped=False)")


class TestValidation:
    def test_tau_point(self):
        assert TauPoint(complex(-0.0, 1.0)).value.real.hex() == "0x0.0p+0"
        assert TauPoint(value=2j) == TauPoint(2j)
        for bad in (0.5, -1j, complex(float("inf"), 1.0), complex(float("nan"), 1.0)):
            with pytest.raises(DomainError):
                TauPoint(bad)

    def test_unimodular_map(self):
        assert UnimodularMap(a=1, b=2, c=0, d=1) == UnimodularMap(1, 2, 0, 1)
        for entries in ((1, 1, 1, 1), (2, 0, 0, 1), (0, 1, 1, 0)):
            with pytest.raises(DomainError):
                UnimodularMap(*entries)

    def test_projective_value(self):
        assert ProjectiveValue("infinity").value is None
        assert ProjectiveValue("finite", 2j).is_finite
        for tag, value in (("finite", None), ("infinity", 1.0), ("undefined", 0j),
                           ("zero", None)):
            with pytest.raises(DomainError):
                ProjectiveValue(tag, value)

    def test_classification(self):
        tau = TauPoint(1j)
        for kwargs in ({"case": "cosine"}, {"case": "trig"}, {"case": "trig", "a": 0},
                       {"case": "elliptic", "rho": 1.0}, {"case": "elliptic", "tau": tau}):
            with pytest.raises(DomainError):
                Classification(alpha=0, beta=0, **kwargs)
        made = Classification(case="elliptic", alpha=0, beta=0, rho=1.0, tau=tau)
        assert (made.a, made.rho, made.tau) == (None, 1.0, tau)


class TestJsonForm:
    def test_complex_numbers_become_pairs(self):
        assert json_ready(1.5 - 2j) == [1.5, -2.0]
        assert json_ready([1j, (2 + 0j, [3j])]) == [[0.0, 1.0], [[2.0, 0.0], [[0.0, 3.0]]]]
        assert json_ready(QuadruplePoint.of(1, 2j, 3, 4)) == [
            [1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]

    @pytest.mark.parametrize("value", [0.25, 7, None, "tag", True])
    def test_other_values_are_untouched(self, value):
        assert json_ready(value) is value

    def test_non_finite_parts_are_kept(self):
        # The CLI's strict-JSON fallback must still see them.
        re, im = json_ready(complex(math.inf, math.nan))
        assert re == math.inf and math.isnan(im)

    def test_numeric_error_diagnostics_are_json_ready(self):
        assert NumericError("x", {"tau": 1j}).diagnostics == {"tau": [0.0, 1.0]}
        assert ConvergenceError("x", {"tau": 1j, "term_cap": 3}).diagnostics == {
            "tau": [0.0, 1.0], "term_cap": 3}
        assert NumericError("x").diagnostics == {}

    def test_records_write_real_fields_as_pairs(self):
        made = Classification(case="elliptic", alpha=0.5, beta=0.25, rho=2.0, tau=TauPoint(1j))
        assert made.to_json_dict() == {"case": "elliptic", "alpha": [0.5, 0.0],
                                       "beta": [0.25, 0.0], "rho": [2.0, 0.0],
                                       "tau": [0.0, 1.0], "diagnostics": {}}
        assert InvariantData(1.5, 2j, ProjectiveValue("finite", 2.5)).to_json_dict() == {
            "p": [1.5, 0.0], "q": [0.0, 2.0], "mu": {"tag": "finite", "value": [2.5, 0.0]}}

    def test_errors_on_real_arguments_report_pairs(self):
        handle = OddFunctionHandle.from_sigma(normalize_lattice(1, 1j))
        cases = [
            (lambda: identity_residual(OddFunctionHandle.identity(), QuadruplePoint(*[1e200] * 4)),
             "quadruple", [[1e200, 0.0]] * 4),
            (lambda: identity_residual(handle, QuadruplePoint(30.0, 30.0, 0, 1)), "z", [30.0, 0.0]),
            (lambda: normalize_lattice(1, 1000j).gauge, "theta1_prime", [0.0, 0.0]),
        ]
        for fail, key, pair in cases:
            with pytest.raises(NumericError) as err:
                fail()
            assert err.value.diagnostics[key] == pair

    def test_emit_refuses_other_objects(self, capsys):
        with pytest.raises(TypeError):
            emit({"x": object()})
        emit({"z": 1 - 1j})
        assert capsys.readouterr().out == '{\n  "z": [\n    1.0,\n    -1.0\n  ]\n}\n'
