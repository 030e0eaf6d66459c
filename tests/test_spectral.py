import math
import re
from fractions import Fraction

import numpy as np
import pytest

from decolab.model import BathModeSet, correlation_fn_discrete
from decolab.spectral import (
    COLLECTIVE_THRESHOLD,
    INDEPENDENT_THRESHOLD,
    LOWT_MAX_T_OVER_OMEGA_C,
    GaussianSpectrum,
    OhmicBath,
    _ohmic_integral,
    classify_regime,
    correlation,
    gaussian_correlation,
    ohmic_correlation_highT,
    ohmic_correlation_lowT,
    ohmic_correlation_quad,
    ohmic_spectrum_moments,
    spectrum,
    spectrum_moments,
)


def test_moments_single_pair_is_degenerate_point():
    modes = BathModeSet.symmetric([(1.4, 1.0, 0.1)], 0.0)
    spec = spectrum_moments(modes)
    assert abs(spec.k_bar - 1.4) < 1e-12
    assert spec.delta_k == 0.0
    with pytest.raises(ValueError):
        classify_regime(1.0, spec)


def test_moments_two_equal_pairs():
    k0, delta = 2.0, 0.3
    modes = BathModeSet.symmetric([(k0 - delta, 1.0, 0.1), (k0 + delta, 1.0, 0.1)], 0.0)
    spec = spectrum_moments(modes)
    assert abs(spec.k_bar - k0) < 1e-12
    assert abs(spec.delta_k - delta) < 1e-12
    assert abs(spec.x - correlation_fn_discrete(modes, 0.0)) < 1e-14


def test_moments_recover_gaussian_comb():
    k_bar, sigma = 5.0, 0.6
    ks = np.linspace(k_bar - 4 * sigma, k_bar + 4 * sigma, 64)
    gs = 0.05 * np.exp(-((ks - k_bar) ** 2) / (4 * sigma ** 2))  # g^2 carries the Gaussian
    modes = BathModeSet.symmetric([(k, 1.0, g) for k, g in zip(ks, gs)], 0.0)
    spec = spectrum_moments(modes)
    assert abs(spec.k_bar - k_bar) / k_bar < 0.02
    assert abs(spec.delta_k - sigma) / sigma < 0.02


def test_gaussian_correlation_values():
    spec = GaussianSpectrum(2.0, 0.5, 3.0)
    assert gaussian_correlation(spec, 0.0) == 3.0
    d_zero = (math.pi / 2) / spec.k_bar
    assert abs(gaussian_correlation(spec, d_zero)) < 1e-15
    for d in np.linspace(-4, 4, 33):
        assert abs(gaussian_correlation(spec, d)) <= spec.x * (1 + 1e-15)
        assert abs(gaussian_correlation(spec, d) - gaussian_correlation(spec, -d)) < 1e-15


def test_gaussian_matches_discrete_comb():
    k_bar, sigma = 5.0, 0.6
    ks = np.linspace(k_bar - 4 * sigma, k_bar + 4 * sigma, 64)
    gs = 0.05 * np.exp(-((ks - k_bar) ** 2) / (4 * sigma ** 2))
    modes = BathModeSet.symmetric([(k, 1.0, g) for k, g in zip(ks, gs)], 0.0)
    spec = spectrum_moments(modes)
    for d in np.linspace(0.0, 2.0 / sigma, 9):  # (delta_k * d) <= 2
        approx = gaussian_correlation(spec, d)
        exact = correlation_fn_discrete(modes, d)
        assert abs(approx - exact) <= 0.05 * spec.x


@pytest.mark.parametrize("dk_d,kbar_d,expected", [
    (50.0, 1.0, "independent"),
    (0.01, 0.01, "collective"),
    (1.0, 1.0, "intermediate"),
    (0.05, 5.0, "intermediate"),
])
def test_classify_regime_cases(dk_d, kbar_d, expected):
    d = 1.0
    report = classify_regime(d, GaussianSpectrum(kbar_d / d, dk_d / d, 1.0))
    assert report.regime == expected
    assert abs(report.dk_d - dk_d) < 1e-12
    assert abs(report.kbar_d - kbar_d) < 1e-12


@pytest.mark.parametrize("k_bar,delta_k", [(1e10, 1.0), (1.0, 1e10), (-1e10, 1.0)])
def test_classify_regime_rejects_ratios_beyond_the_float_range(k_bar, delta_k):
    # at d = 1e300 a ratio is infinite, whatever the bath kind: no inf cell reaches the output
    with pytest.raises(ValueError, match=r"at d = 1e\+300 is beyond the float range"):
        classify_regime(1e300, GaussianSpectrum(k_bar, delta_k, 1.0))
    assert classify_regime(1e290, GaussianSpectrum(k_bar, delta_k, 1.0)).regime == "independent"


def test_classify_thresholds_are_module_constants():
    assert INDEPENDENT_THRESHOLD == 10.0
    assert COLLECTIVE_THRESHOLD == 0.1


@pytest.mark.parametrize("u,ratio", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.1)])
def test_ohmic_high_temperature_profile(u, ratio):
    bath = OhmicBath(2.0, 1.0, 500.0)
    base = ohmic_correlation_highT(bath, 0.0)
    assert abs(base - bath.amplitude * 4 * bath.temperature * bath.omega_c) < 1e-9 * base
    val = ohmic_correlation_highT(bath, u * bath.v / bath.omega_c)
    assert abs(val / base - ratio) < 1e-12


def test_ohmic_low_temperature_profile():
    bath = OhmicBath(1.5, 2.0, 0.0, amplitude=0.8)
    assert abs(ohmic_correlation_lowT(bath, bath.v / bath.omega_c)) < 1e-15
    assert abs(ohmic_correlation_lowT(bath, 0.0) - 0.8 * 2 * bath.omega_c ** 2) < 1e-12
    u2 = ohmic_correlation_lowT(bath, 2 * bath.v / bath.omega_c)
    expected = 0.8 * 2 * bath.omega_c ** 2 * (-3.0 / 25.0)
    assert abs(u2 - expected) < 1e-12
    assert abs(u2 - ohmic_correlation_quad(bath, 2 * bath.v / bath.omega_c)) < 1e-9 * abs(expected)


@pytest.mark.parametrize("fn, temperature, form", [
    (ohmic_correlation_lowT, 0.0, "lowT"),
    (ohmic_correlation_highT, 1e100, "highT"),
], ids=["lowT", "highT"])
def test_closed_forms_keep_their_value_once_u_squared_overflows(fn, temperature, form):
    # u = omega_c d / v = 1e160: u^2 overflows, and w = omega_c / (1 + u^2) underflowed to a signed zero
    bath = OhmicBath(1e150, 1.0, temperature, form=form)
    wc = Fraction(1e150)
    u = wc * Fraction(1e10)
    w = wc / (1 + u * u)
    exact = 2 * w * wc * (1 - u * u) / (1 + u * u) if form == "lowT" else 4 * Fraction(temperature) * w
    assert fn(bath, 1e10) == pytest.approx(float(exact), rel=1e-12, abs=0.0)  # about -2e-20 and 4e-70


def test_lowT_keeps_its_value_where_omega_c_d_overflows():
    # omega_c d = 1e350 overflows before the division by v, so u is inf; the value, -2 (v/d)^2, fits
    bath = OhmicBath(1e150, 1e100, 0.0, form="lowT")
    u = Fraction(1e150) * Fraction(1e200) / Fraction(1e100)
    exact = 2 * Fraction(1e150) ** 2 * (1 - u * u) / (1 + u * u) ** 2
    assert float(exact) == pytest.approx(-2e-200, rel=1e-15)
    assert ohmic_correlation_lowT(bath, 1e200) == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert correlation(bath, -1e200) == ohmic_correlation_lowT(bath, 1e200)


@pytest.mark.parametrize("omega_c, v, temperature, d, value", [
    (1e150, 1e100, 1e100, 1e200, 4e-250),  # (v/d)^2 / omega_c = 1e-350 alone underflows
    (1e180, 1e10, 1e300, 1.0, 4e140),  # T v/d = 1e310 alone overflows
])
def test_highT_keeps_its_value_once_u_squared_overflows(omega_c, v, temperature, d, value):
    # u = omega_c d / v: u^2 (or u itself) overflows; the value, 4T (v/d)^2 / omega_c, fits
    bath = OhmicBath(omega_c, v, temperature, form="highT")
    u = Fraction(omega_c) * Fraction(d) / Fraction(v)
    exact = 4 * Fraction(temperature) * Fraction(omega_c) / (1 + u * u)
    assert float(exact) == pytest.approx(value, rel=1e-15)
    assert ohmic_correlation_highT(bath, d) == pytest.approx(float(exact), rel=1e-12, abs=0.0)
    assert correlation(bath, -d) == ohmic_correlation_highT(bath, d)


# --- reference: the Ohmic integrals by adaptive Gauss-Legendre panel quadrature -----------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# exp(-w / omega_c) is below 1e-19 beyond 44 omega_c
_CUTOFF_IN_OMEGA_C = 44.0


def _panel_sum(bath, d, s, n_panels):
    """Sum of I_s's integrand over n_panels equal panels, plus 8 panels of 5T each where exp(-w/T) varies."""
    t, omega_max = bath.temperature, _CUTOFF_IN_OMEGA_C * bath.omega_c
    edges = np.linspace(0.0, omega_max, n_panels + 1)
    if t > 0.0:
        edges = np.union1d(edges, np.linspace(0.0, min(40.0 * t, omega_max), 9))
    half = 0.5 * np.diff(edges)
    w = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel()
    coth = 1.0 / np.tanh(w / (2.0 * t)) if t > 0.0 else 1.0
    f = w ** (s - 1) * coth * np.exp(-w / bath.omega_c) * np.cos(w * d / bath.v)
    return float(f @ (half[:, None] * _GL_WEIGHTS).ravel())


def reference_ohmic_integral(bath, d, s, atol=None):
    """I_s(d) with the panel count doubled until two passes agree to atol (default 1e-14 of the value).

    The first pass's panels are half an oscillation period wide, or pi omega_c at small separation.
    """
    u = abs(bath.omega_c * d / bath.v)
    n = max(4, math.ceil(_CUTOFF_IN_OMEGA_C * max(u, 1.0) / math.pi))
    prev = _panel_sum(bath, d, s, n)
    for _ in range(6):
        n *= 2
        cur = _panel_sum(bath, d, s, n)
        if abs(cur - prev) <= (1e-14 * abs(cur) if atol is None else atol):
            return cur
        prev = cur
    raise AssertionError(f"reference quadrature did not converge at d = {d!r}")


@pytest.mark.parametrize("temperature", [0.0, 1e-3, 0.3, 1e3])
@pytest.mark.parametrize("omega_c, v", [(0.5, 1.5), (2.0, 0.7)])
def test_series_matches_the_panel_quadrature(omega_c, v, temperature):
    bath = OhmicBath(omega_c, v, temperature)
    for s in (2, 3, 4):
        scale = abs(reference_ohmic_integral(bath, 0.0, s))
        for d in (0.0, 0.5, 3.0, 40.0, 300.0):
            ref = reference_ohmic_integral(bath, d, s, atol=1e-14 * scale)
            assert abs(_ohmic_integral(bath, d, s) - ref) <= 1e-12 * scale, (s, d)


def test_quad_zero_temperature_zero_separation_moment():
    bath = OhmicBath(1.7, 1.0, 0.0, amplitude=1.3)
    got = ohmic_correlation_quad(bath, 0.0)
    assert abs(got - 1.3 * 2 * bath.omega_c ** 2) / got < 1e-12


_EVEN_FORMS = {
    "quad": (ohmic_correlation_quad, OhmicBath(1.0, 1.0, 0.3)),
    "highT": (ohmic_correlation_highT, OhmicBath(2.0, 0.7, 80.0, form="highT")),
    "lowT": (ohmic_correlation_lowT, OhmicBath(1.5, 2.0, 0.0, amplitude=0.8, form="lowT")),
    "gaussian": (gaussian_correlation, GaussianSpectrum(1.7, 0.4, 2.0)),
    "discrete": (correlation_fn_discrete, BathModeSet.symmetric([(0.9, 1.0, 0.05), (2.3, 1.4, 0.02)], 0.3)),
}


@pytest.mark.parametrize("form", sorted(_EVEN_FORMS))
def test_correlation_even_in_separation_bit_for_bit(form):
    # what lets a correlation memo key on |delta_r|
    fn, bath = _EVEN_FORMS[form]
    for d in (0.0, 1e-3, 0.5, 0.7, 1.0 / 3.0, 3.0, 40.0, 123.456):
        assert fn(bath, -d) == fn(bath, d)
        # the bath table dispatches to exactly this form
        assert correlation(bath, d) == fn(bath, d) and correlation(bath, -d) == fn(bath, -d)


def test_ohmic_bath_rejects_an_unknown_form():
    with pytest.raises(ValueError, match="form"):
        OhmicBath(1, 1, 0.3, form="bogus")


def test_quad_equal_baths_evaluate_their_own_memos_to_the_same_values():
    bath = OhmicBath(1.0, 1.0, 0.3)
    first = [correlation(bath, d) for d in (0.0, 0.5, 3.0, 0.5)]
    twin = OhmicBath(1.0, 1.0, 0.3)
    assert [correlation(twin, d) for d in (0.0, 0.5, 3.0, 0.5)] == first
    # the memos belong to the object: an equal bath computes its own
    assert twin._correlation is not bath._correlation
    assert spectrum(twin) == spectrum(bath) and spectrum(twin) is not spectrum(bath)


@pytest.mark.parametrize("bath", [OhmicBath(1.0, 1.0, 0.3), OhmicBath(2.0, 0.7, 5.0, amplitude=0.8),
                                  OhmicBath(0.5, 1.5, 1e3)], ids=lambda b: f"T{b.temperature:g}")
@pytest.mark.parametrize("u", [1e4, 1e8])
def test_quad_tends_to_the_highT_form_at_large_separation(bath, u):
    # at w << T the weight w coth(w/2T) is 2T + w^2/(6T): highT is the first term, and the second
    # adds the relative correction -(omega_c / T)^2 / (2 u^2), 5.6e-8 at T = 0.3 omega_c and u = 1e4
    d = u * bath.v / bath.omega_c
    high = ohmic_correlation_highT(bath, d)
    correction = (bath.omega_c / bath.temperature) ** 2 / (2.0 * u * u)
    for sep in (d, -d):
        quad = ohmic_correlation_quad(bath, sep)
        assert abs(quad - high * (1.0 - correction)) <= 1e-9 * high
        if correction < 1e-10:
            assert abs(quad - high) <= 1e-9 * high


def test_quad_matches_lowT_closed_form_at_zero_temperature():
    bath = OhmicBath(2.0, 1.5, 0.0, amplitude=0.7)
    for u in (0.0, 0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0):
        d = u * bath.v / bath.omega_c
        exact = ohmic_correlation_lowT(bath, d)
        quad = ohmic_correlation_quad(bath, d)
        assert abs(quad - exact) / abs(exact) < 1e-6


def test_lowT_holds_up_to_its_temperature_limit():
    # at the limit lowT stays within 1e-2 of quad, relative to Omega^2(0); above it the form is refused
    limit = LOWT_MAX_T_OVER_OMEGA_C * 2.0
    bath = OhmicBath(2.0, 1.5, limit, form="lowT")
    scale = ohmic_correlation_quad(bath, 0.0)
    worst = max(abs(ohmic_correlation_quad(bath, d) - ohmic_correlation_lowT(bath, d))
                for d in np.linspace(0.0, 10.0, 101) * bath.v / bath.omega_c) / scale
    assert worst < 1e-2
    with pytest.raises(ValueError, match="lowT form needs temperature <= 0.05 omega_c"):
        ohmic_correlation_lowT(OhmicBath(2.0, 1.5, 1.01 * limit, form="lowT"), 0.0)


def test_quad_high_temperature_convergence_trend():
    errs = []
    for t_ratio in (1e2, 1e3, 1e4):
        bath = OhmicBath(1.0, 1.0, t_ratio)
        worst = 0.0
        for u in (0.0, 1.0, 3.0):
            q = ohmic_correlation_quad(bath, u)
            h = ohmic_correlation_highT(bath, u)
            worst = max(worst, abs(q - h) / abs(h))
        errs.append(worst)
    assert errs[0] < 1e-2 and errs[1] < 1e-3 and errs[2] < 1e-4
    # error keeps shrinking at least linearly in omega_c / T
    assert errs[1] <= errs[0] / 5 and errs[2] <= errs[1] / 5


def test_quad_zero_crossing_at_u_equal_one():
    bath = OhmicBath(1.3, 0.9, 0.0)
    lo, hi = 0.5, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ohmic_correlation_quad(bath, mid * bath.v / bath.omega_c) > 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 1.0) < 1e-6


def test_ohmic_moments_zero_temperature_closed_form():
    bath = OhmicBath(2.0, 1.5, 0.0, amplitude=0.7)
    spec = ohmic_spectrum_moments(bath)
    assert abs(spec.k_bar - 2 * bath.omega_c / bath.v) < 1e-9
    assert abs(spec.delta_k - math.sqrt(2) * bath.omega_c / bath.v) < 1e-9
    assert abs(spec.x - 0.7 * 2 * bath.omega_c ** 2) < 1e-9


def test_regime_insensitive_to_temperature():
    v, omega_c = 1.0, 1.0
    for d_ratio in (0.01, 1.0, 100.0):
        d = d_ratio * v / omega_c
        labels = set()
        for t_ratio in np.logspace(-2, 2, 9):
            bath = OhmicBath(omega_c, v, t_ratio * omega_c)
            labels.add(classify_regime(d, ohmic_spectrum_moments(bath)).regime)
        assert len(labels) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, build", [
    pytest.param("omega_c", lambda v: OhmicBath(v, 1.0, 0.3), id="omega_c"),
    pytest.param("v", lambda v: OhmicBath(1.0, v, 0.3), id="v"),
    pytest.param("temperature", lambda v: OhmicBath(1.0, 1.0, v), id="temperature"),
    pytest.param("amplitude", lambda v: OhmicBath(1.0, 1.0, 0.3, amplitude=v), id="amplitude"),
    pytest.param("k_bar", lambda v: GaussianSpectrum(v, 0.5, 1.0), id="k_bar"),
    pytest.param("delta_k", lambda v: GaussianSpectrum(1.0, v, 1.0), id="delta_k"),
    pytest.param("x", lambda v: GaussianSpectrum(1.0, 0.5, v), id="x"),
])
def test_bath_inputs_must_be_finite(field, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be finite")):
        build(value)


def test_gaussian_spectrum_validation():
    with pytest.raises(ValueError):
        GaussianSpectrum(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        GaussianSpectrum(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        OhmicBath(0.0, 1.0, 0.0)


# --- property tests ----------------------------------------------------------

from hypothesis import given, strategies as st

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@given(k_bar=st.floats(0.0, 20.0), delta_k=st.floats(0.0, 10.0), x=st.floats(1e-6, 1e3), d=finite)
def test_gaussian_correlation_bounded_and_even(k_bar, delta_k, x, d):
    spec = GaussianSpectrum(k_bar, delta_k, x)
    val = gaussian_correlation(spec, d)
    assert abs(val) <= x * (1 + 1e-12)
    assert val == gaussian_correlation(spec, -d)


@given(k=st.floats(0.01, 10.0), omega=st.floats(0.1, 10.0), g=st.floats(0.0, 1.0),
       temperature=st.floats(0.0, 10.0), d=finite)
def test_discrete_correlation_dominated_by_zero_separation(k, omega, g, temperature, d):
    modes = BathModeSet.symmetric([(k, omega, g)], temperature)
    x = correlation_fn_discrete(modes, 0.0)
    assert abs(correlation_fn_discrete(modes, d)) <= x * (1 + 1e-12)
    assert correlation_fn_discrete(modes, d) == correlation_fn_discrete(modes, -d)
