import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdmask.errors import RegimeMismatchError
from psdmask.linalg import exact_hermitian
from psdmask.functions import (
    Custom,
    Domain,
    HerzMonomial,
    HerzSeries,
    Identity,
    PreserverFunction,
    ScalarMultiple,
    Zero,
    _equivariant_by_construction,
    _int_pow,
    admissible_c_interval_pair,
    admissible_family,
    conjugate_equivariance_check,
    function_from_json,
    scaled_identity,
)
from psdmask.patterns import (
    R1_EMPTY,
    R2_SINGLETONS,
    R3A_PARTITION_ALL,
    R3B_SUBPARTITION_OTHER,
    R4_OVERLAPPING,
)


class TestDomain:
    def test_disc_membership_with_boundary_slack(self):
        d = Domain.disc(1.0)
        assert d.contains(0.5 + 0.5j)
        assert d.contains(0.999999999999)
        assert not d.contains(1.0)
        assert not d.contains(1.0 + 1e-16)

    def test_open_sym(self):
        d = Domain.open_sym(2.0)
        assert d.contains(-1.5) and d.contains(0.0)
        assert not d.contains(2.0)
        assert not d.contains(0.5 + 0.1j)

    def test_half_open_nonneg(self):
        d = Domain.half_open_nonneg(1.0)
        assert d.contains(0.0) and d.contains(0.9)
        assert not d.contains(-1e-12)
        assert not d.contains(1.0)

    def test_open_pos(self):
        d = Domain.open_pos(1.0)
        assert d.contains(1e-300)
        assert not d.contains(0.0)
        assert not d.has_zero

    def test_infinite_radius(self):
        d = Domain.disc()
        assert d.contains(1e12) and math.isinf(d.rho)

    def test_contains_array_matches_scalar(self, rng):
        d = Domain.open_sym(1.0)
        Z = rng.standard_normal((3, 3)).astype(complex)
        Z[0, 1] += 0.1j
        flags = d.contains_array(Z)
        for i in range(3):
            for j in range(3):
                assert flags[i, j] == d.contains(Z[i, j])

    @pytest.mark.parametrize("rho", [1.0, math.inf])
    @pytest.mark.parametrize("kind", ["disc", "open_sym", "half_open_nonneg", "open_pos"])
    def test_contains_is_contains_array_on_edge_values(self, kind, rho):
        d = Domain(kind, rho)
        values = [0, 0.0, -0.0, d.upper, math.nextafter(d.upper, math.inf), -d.upper,
                  math.inf, -math.inf, math.nan, complex(0.5, 0.5), complex(0.5, math.nan),
                  complex(1.5e308, 1.5e308)]
        for z in values:
            assert d.contains(z) == bool(d.contains_array(z)), z

    @pytest.mark.parametrize("rho", [1.0, math.inf])
    @pytest.mark.parametrize("kind", ["disc", "open_sym", "half_open_nonneg", "open_pos"])
    def test_no_domain_contains_an_infinity(self, kind, rho):
        d = Domain(kind, rho)
        assert not d.contains(math.inf) and not d.contains(-math.inf)
        assert not d.contains_array(np.array([math.inf, -math.inf, complex(math.inf, 0.0)])).any()
        assert d.contains(np.finfo(float).max) == math.isinf(rho)  # an unbounded domain holds the largest float

    def test_probe_points_inside_and_conj_closed(self):
        for d in (Domain.disc(1.0), Domain.open_sym(2.0),
                  Domain.half_open_nonneg(1.0), Domain.open_pos(0.5), Domain.disc()):
            pts = d.probe_points()
            assert all(d.contains(z) for z in pts)
            assert all(any(abs(z.conjugate() - w) < 1e-15 for w in pts) for z in pts)

    def test_json_round_trip(self):
        for d in (Domain.disc(1.0), Domain.open_pos(), Domain.half_open_nonneg(3.5)):
            assert Domain.from_json(d.to_json()) == d

    @pytest.mark.parametrize("rho, expected", [("inf", math.inf), (None, math.inf), (2, 2.0), (0.5, 0.5)])
    def test_json_rho_read_as_before(self, rho, expected):
        d = Domain.from_json({"kind": "disc", "rho": rho})
        assert d == Domain.disc(expected) and type(d.rho) is float

    @pytest.mark.parametrize("rho", [True, "2", [1.0], {}], ids=["bool", "string", "list", "object"])
    def test_json_rho_of_the_wrong_type_rejected(self, rho):
        with pytest.raises(ValueError, match="rho must be a number"):
            Domain.from_json({"kind": "disc", "rho": rho})


class TestEvaluate:
    def test_identity_monomial(self):
        z = 0.5 + 0.2j
        assert HerzMonomial(1, 1, 0)(z) == z

    def test_modulus_square_monomial(self):
        z = 0.3 - 0.4j
        val = HerzMonomial(2, 1, 1)(z)
        assert val == pytest.approx(2 * abs(z) ** 2)
        assert val.imag == pytest.approx(0.0, abs=1e-16)

    def test_series_sum(self):
        f = HerzSeries({(0, 0): 1.0, (1, 1): 1.0})
        assert f(0.5) == pytest.approx(1.25)

    def test_series_monotone_in_max_degree(self):
        coeffs = {(m, k): 0.3 for m in range(3) for k in range(3)}
        x = 0.7
        truncations = [{t: c for t, c in coeffs.items() if sum(t) <= d} for d in range(5)]
        values = [HerzSeries(terms, max_degree=d)(x).real for d, terms in enumerate(truncations)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_series_rejects_terms_above_max_degree(self):
        with pytest.raises(ValueError, match="max_degree"):
            HerzSeries({(10, 0): 1}, max_degree=6)
        with pytest.raises(ValueError, match="max_degree"):
            HerzSeries({(0, 0): 0.5, (2, 2): 0.25}, max_degree=3)
        assert HerzSeries({(3, 3): 1}, max_degree=6)(0.5) == pytest.approx(0.5 ** 6)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            HerzSeries({(1, 0): -0.5})
        with pytest.raises(ValueError):
            HerzMonomial(-1.0, 1, 0)

    def test_zero_and_scalar(self):
        assert Zero()(0.3) == 0
        assert ScalarMultiple(-0.5, Identity())(0.4) == pytest.approx(-0.2)

    def test_linear_slope(self):
        assert Identity().linear_slope() == 1.0
        assert Zero().linear_slope() == 0.0
        assert scaled_identity(-0.25).linear_slope() == -0.25
        assert HerzMonomial(2.0, 1, 0).linear_slope() == 2.0
        assert HerzMonomial(2.0, 2, 0).linear_slope() is None
        assert HerzSeries({(1, 0): 0.7}).linear_slope() == 0.7
        assert HerzSeries({(1, 0): 0.7, (2, 0): 0.1}).linear_slope() is None


def _ones_start_pow(Z, m):
    """Integer power by repeated squaring from an all-ones array: the bits
    that the scalar start of ``_int_pow`` must reproduce."""
    out = np.ones_like(Z)
    base = Z.copy()
    e = m
    while e > 0:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


# signed zeros, infinities, NaN, and moduli whose powers overflow (10**400) or underflow
_PARTS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -0.5, 10.0, 1e160, 5e-324]) \
    | st.floats(allow_nan=False, width=64)
_ARRAYS = st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=40).map(
    lambda zs: np.array(zs, dtype=np.complex128))
_EXPONENTS = st.integers(0, 9)
_COEFFS = st.floats(0.0, 4.0, exclude_min=True)


class TestPowerBits:
    """Powers and monomials start their products from the scalar 1.0, which
    numpy multiplies a complex array by as by 1 + 0j; the bits must be those
    of a start from an all-ones array."""

    @settings(max_examples=200, deadline=None)
    @given(_ARRAYS, _EXPONENTS | st.just(400))
    def test_int_pow(self, Z, m):
        with np.errstate(all="ignore"):
            got, want = _int_pow(Z, m), _ones_start_pow(Z, m)
        assert np.broadcast_to(np.asarray(got, np.complex128), Z.shape).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_ARRAYS, _EXPONENTS, _EXPONENTS, st.floats(0.0, 4.0))
    def test_monomial(self, Z, m, k, alpha):
        with np.errstate(all="ignore"):
            got = HerzMonomial(alpha, m, k).evaluate_array(Z)
            want = alpha * _ones_start_pow(Z, m) * _ones_start_pow(np.conj(Z), k)
        assert isinstance(got, np.ndarray) and got.shape == Z.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_ARRAYS, st.dictionaries(st.tuples(_EXPONENTS, _EXPONENTS), _COEFFS, min_size=1, max_size=4))
    def test_series(self, Z, coeffs):
        with np.errstate(all="ignore"):
            got = HerzSeries(coeffs, max_degree=18).evaluate_array(Z)
            want = np.zeros_like(Z)
            for (m, k), c in sorted(coeffs.items()):
                want = want + c * _ones_start_pow(Z, m) * _ones_start_pow(np.conj(Z), k)
        assert got.tobytes() == want.tobytes()


_BUILTINS = st.recursive(
    st.sampled_from([Identity(), Zero()])
    | st.builds(HerzMonomial, _COEFFS | st.just(0.0), _EXPONENTS, _EXPONENTS)
    | st.builds(HerzSeries, st.dictionaries(st.tuples(_EXPONENTS, _EXPONENTS), _COEFFS, min_size=1, max_size=4),
                st.just(18)),
    lambda inner: st.builds(ScalarMultiple, st.floats(-4.0, 4.0), inner), max_leaves=3)


@st.composite
def _real_stacks(draw):
    """A symmetric float64 stack (k, n, n) with entries inside a real domain, or signed zeros, inf or NaN."""
    domain = Domain(draw(st.sampled_from(["open_sym", "half_open_nonneg", "open_pos"])),
                    draw(st.sampled_from([1.0, 1e300, math.inf])))
    inside = st.floats(-domain.upper if domain.kind == "open_sym" else 0.0, domain.upper,
                       exclude_min=domain.kind == "open_pos").filter(domain.contains)
    specials = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324])
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    Z = np.array(draw(st.lists(inside | specials, min_size=k * n * n, max_size=k * n * n))).reshape(k, n, n)
    lower = np.tril_indices(n, -1)
    Z[:, lower[0], lower[1]] = Z[:, lower[1], lower[0]]
    return Z


class TestRealValues:
    """On a float64 stack a built-in keeps its values real, as verify's random stage screens a real domain's
    stacks.  The screen clears only finite images, so it rests on this: each entry is finite exactly where
    the complex image's is, and there the two agree, with a zero imaginary part.  (Not at an infinite entry:
    HerzMonomial(1, 1, 0) gives inf there but NaN + NaN j in complex, as (1 + 0j)(inf + 0j) = inf + NaN j.)"""

    @settings(max_examples=300, deadline=None)
    @given(_BUILTINS, _real_stacks())
    def test_real_values_are_the_complex_image_wherever_finite(self, f, Z):
        with np.errstate(all="ignore"):
            real = f._stack_values(Z)
            images = f.evaluate_array(Z), f.evaluate_array(exact_hermitian(Z))
        assert real.dtype == np.float64 and real.shape == Z.shape
        finite = np.isfinite(real)
        for image in images:
            assert image.dtype == np.complex128 and (np.isfinite(image) == finite).all()
            assert (image.real[finite] == real[finite]).all() and (image.imag[finite] == 0.0).all()

    def test_a_subclass_that_overrides_evaluate_array_sees_the_exact_complex_form(self):
        seen = []

        class Counted(HerzMonomial):
            def evaluate_array(self, Z):
                seen.append(Z.copy())
                return super().evaluate_array(Z)

        Z = np.array([[[0.5, -0.25], [-0.25, 0.0]]])
        with np.errstate(all="ignore"):
            got = Counted(1.0, 2, 1)._stack_values(Z)
        assert len(seen) == 1 and seen[0].tobytes() == exact_hermitian(Z).tobytes()
        assert got.tobytes() == HerzMonomial(1.0, 2, 1).evaluate_array(exact_hermitian(Z)).tobytes()
        assert HerzMonomial(1.0, 2, 1)._stack_values(Z).dtype == np.float64

    def test_evaluate_array_decides_over_values_defined_beside_it(self):
        class Shifted(PreserverFunction):  # its _values are not what it evaluates: apply would see evaluate_array
            def _values(self, Z):
                return Z.copy()

            def evaluate_array(self, Z):
                return np.asarray(Z, dtype=np.complex128) + 1.0

        Z = np.array([[[0.5, -0.25], [-0.25, 0.0]]])
        got = Shifted()._stack_values(Z)
        assert got.dtype == np.complex128 and got.tobytes() == (exact_hermitian(Z) + 1.0).tobytes()
        assert Shifted()._stack_values(exact_hermitian(Z)).tobytes() == got.tobytes()


class TestConjugateEquivariance:
    def test_builtin_variants_pass(self):
        samples = [0.2, -0.3, 0.1 + 0.4j, 0.1 - 0.4j, 0j]
        for f in (Identity(), Zero(), HerzMonomial(1.5, 2, 1),
                  HerzSeries({(1, 0): 1.0, (0, 2): 0.3}), scaled_identity(-0.4)):
            assert conjugate_equivariance_check(f, samples)

    def test_constant_imaginary_fails(self):
        f = Custom(lambda z: 1j, name="const_i")
        assert not conjugate_equivariance_check(f, [0.5, 0.5j, -0.5j])

    def test_single_bad_probe_fails(self):
        f = Custom(lambda z: 1j if z == 0.3 else z, name="bad_at_0.3")
        assert conjugate_equivariance_check(f, [0.1, 0.5j, -0.5j, 0.7])
        assert not conjugate_equivariance_check(f, [0.1, 0.5j, -0.5j, 0.3, 0.7])

    def test_nan_gap_passes(self):
        # nan > tol is False, so a probe whose gap is NaN does not fail the check
        f = Custom(lambda z: complex(math.nan, 0.0) if z == 0.5 else z, name="nan_at_0.5")
        assert conjugate_equivariance_check(f, [0.2, 0.5, -0.5])
        with np.errstate(over="ignore", invalid="ignore"):  # z^400 overflows to NaN gaps
            assert conjugate_equivariance_check(HerzMonomial(1.0, 400, 0), [0j, 1e3, -1e3, 1e3j, -1e3j])

    def test_two_evaluations_per_function(self):
        calls = []

        class Counted(Identity):
            def evaluate_array(self, Z):
                calls.append(np.shape(Z))
                return super().evaluate_array(Z)

        assert conjugate_equivariance_check(Counted(), [0j, 0.3, 0.1 + 0.4j, 0.1 - 0.4j])
        assert calls == [(4,), (4,)]


# exact built-ins with powers and coefficients near the ends of the float range, nested scalar multiples included
_PROOF_EXPONENTS = _EXPONENTS | st.sampled_from([40, 300, 400])
_PROOF_COEFFS = st.floats(0.0, 4.0) | st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308])
_EXACT_BUILTINS = st.recursive(
    st.sampled_from([Identity(), Zero()])
    | st.builds(HerzMonomial, _PROOF_COEFFS, _PROOF_EXPONENTS, _PROOF_EXPONENTS)
    | st.builds(HerzSeries, st.dictionaries(st.tuples(_PROOF_EXPONENTS, _PROOF_EXPONENTS), _PROOF_COEFFS,
                                            min_size=1, max_size=4), st.just(800)),
    lambda inner: st.builds(ScalarMultiple, st.floats(-4.0, 4.0) | st.sampled_from([-0.0, -1e300, 1e-300]), inner),
    max_leaves=4)
# conjugation-closed samples: signed zeros, subnormals, 1e+-200, 1e308, infinities, NaN and any other float
_EDGE_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e200, -1e200, 1e308, -1e308,
                               math.inf, -math.inf, math.nan]) | st.floats(width=64)
_CLOSED_SAMPLES = st.lists(st.builds(complex, _EDGE_PARTS, _EDGE_PARTS), min_size=1, max_size=12).map(
    lambda zs: zs + [z.conjugate() for z in zs])


class TestEquivarianceByConstruction:
    """verify runs no ``conjugate_equivariance_check`` on an exact built-in (``_equivariant_by_construction``),
    because the check cannot fail for one: this is that fact, which rests on numpy's complex multiply."""

    @settings(max_examples=300, deadline=None)
    @given(_EXACT_BUILTINS, _CLOSED_SAMPLES)
    def test_exact_builtins_pass_the_check_on_every_sample(self, f, samples):
        assert _equivariant_by_construction(f)
        with np.errstate(all="ignore"):
            assert conjugate_equivariance_check(f, samples, tol=0.0)

    def test_subclasses_and_customs_are_not_exact_builtins(self):
        class Sub(HerzMonomial):
            pass

        for f in (Custom(lambda z: z), Sub(1.0, 1, 0), ScalarMultiple(2.0, Custom(lambda z: z)),
                  ScalarMultiple(-1.0, ScalarMultiple(0.5, Sub(1.0, 1, 0)))):
            assert not _equivariant_by_construction(f)
        assert _equivariant_by_construction(ScalarMultiple(-1.0, ScalarMultiple(0.5, HerzSeries({(2, 1): 1.0}))))


class TestAdmissibleFamily:
    def test_partition_all_interval(self):
        fam = admissible_family(R3A_PARTITION_ALL, 3)
        assert fam.c_interval == (Fraction(-1, 2), Fraction(1))
        assert fam.to_json()["c_interval"] == ["-1/2", "1"]

    def test_subpartition_other_interval(self):
        fam = admissible_family(R3B_SUBPARTITION_OTHER, math.inf)
        assert fam.c_interval == (Fraction(0), Fraction(1))

    def test_overlapping_requires_equality(self):
        fam = admissible_family(R4_OVERLAPPING, 2)
        assert fam.description == "identity only"
        assert fam.constraint == "f = g"

    def test_interval_presence_matches_regime(self):
        assert admissible_family(R1_EMPTY, 0).c_interval is None
        assert admissible_family(R2_SINGLETONS, math.inf).c_interval is None
        assert admissible_family(R3A_PARTITION_ALL, 5).c_interval is not None

    def test_pure_function_of_inputs(self):
        assert admissible_family(R3A_PARTITION_ALL, 4) == admissible_family(R3A_PARTITION_ALL, 4)


class TestScalarIntervalPair:
    def test_partition_two_blocks(self):
        lo, hi = admissible_c_interval_pair(R3A_PARTITION_ALL, 2, HerzMonomial(1.0, 1, 0))
        assert (lo, hi) == (Fraction(-1), Fraction(1))

    def test_proper_subpartition(self):
        lo, hi = admissible_c_interval_pair(R3B_SUBPARTITION_OTHER, 2, HerzMonomial(0.5, 2, 1))
        assert (lo, hi) == (Fraction(0), Fraction(1))

    def test_four_blocks(self):
        lo, hi = admissible_c_interval_pair(R3A_PARTITION_ALL, 4, Identity())
        assert (lo, hi) == (Fraction(-1, 3), Fraction(1))

    def test_regime_mismatch(self):
        with pytest.raises(RegimeMismatchError):
            admissible_c_interval_pair(R2_SINGLETONS, 2, Identity())

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            admissible_c_interval_pair(R3A_PARTITION_ALL, 2, HerzMonomial(0.0, 1, 0))


class TestFunctionJson:
    def test_round_trips(self):
        cases = [
            Identity(),
            Zero(),
            HerzMonomial(1.5, 2, 1),
            HerzSeries({(0, 0): 0.5, (2, 1): 1.25}, max_degree=6),
            ScalarMultiple(-0.75, HerzMonomial(2.0, 1, 0)),
        ]
        z = 0.3 + 0.2j
        for f in cases:
            back = function_from_json(f.to_json())
            assert back.to_json() == f.to_json()
            assert back(z) == f(z)

    @pytest.mark.parametrize("doc", [
        {"variant": "herz_monomial", "params": {"alpha": 1, "m": 1.5, "k": 0}},
        {"variant": "herz_monomial", "params": {"alpha": 1, "m": 1, "k": True}},
        {"variant": "herz_monomial", "params": {"alpha": 1, "m": "2", "k": 0}},
        {"variant": "herz_series", "params": {"coeffs": [[1.5, 0, 1.0]]}},
        {"variant": "herz_series", "params": {"coeffs": [[1, 0, 1.0]], "max_degree": 6.5}},
        {"variant": "scalar_multiple",
         "params": {"c": 0.5, "inner": {"variant": "herz_monomial", "params": {"alpha": 1, "m": 2.0, "k": 0}}}},
    ], ids=["monomial_m_float", "monomial_k_bool", "monomial_m_string", "series_m_float",
            "series_max_degree_float", "nested_m_float"])
    def test_exponents_of_the_wrong_type_rejected(self, doc):
        with pytest.raises(ValueError, match="exponent|max_degree"):
            function_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"variant": "scalar_multiple", "params": {"c": True, "inner": {"variant": "identity"}}},
        {"variant": "scalar_multiple", "params": {"c": "0.5", "inner": {"variant": "identity"}}},
        {"variant": "herz_monomial", "params": {"alpha": "2", "m": 1, "k": 0}},
        {"variant": "herz_monomial", "params": {"alpha": False, "m": 1, "k": 0}},
        {"variant": "herz_series", "params": {"coeffs": [[1, 0, "1.0"]]}},
        {"variant": "herz_series", "params": {"coeffs": [[1, 0, None]]}},
    ], ids=["c_bool", "c_string", "alpha_string", "alpha_bool", "coefficient_string", "coefficient_null"])
    def test_reals_of_the_wrong_type_rejected(self, doc):
        with pytest.raises(ValueError, match="(c|alpha|coefficient) must be a number"):
            function_from_json(doc)

    def test_integer_reals_read_as_floats(self):
        f = function_from_json({"variant": "scalar_multiple",
                                "params": {"c": -1, "inner": {"variant": "herz_monomial",
                                                              "params": {"alpha": 2, "m": 1, "k": 0}}}})
        assert f.to_json() == ScalarMultiple(-1.0, HerzMonomial(2.0, 1, 0)).to_json()
        series = function_from_json({"variant": "herz_series", "params": {"coeffs": [[1, 0, 1], [2, 0, 0.5]]}})
        assert series.coeffs == {(1, 0): 1.0, (2, 0): 0.5}

    def test_series_term_listed_twice_rejected(self):
        # a dict would keep the last coefficient and read [[1, 0, 0.5], [1, 0, 0.5]] as 0.5 z, not z
        with pytest.raises(ValueError, match=r"term \(1, 0\) twice"):
            function_from_json({"variant": "herz_series", "params": {"coeffs": [[1, 0, 0.5], [1, 0, 0.5]]}})

    def test_custom_not_serializable(self):
        with pytest.raises(ValueError):
            Custom(lambda z: z).to_json()

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            function_from_json({"variant": "sine", "params": {}})
