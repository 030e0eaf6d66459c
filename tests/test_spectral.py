import math

import numpy as np
import pytest

from decolab.model import BathModeSet, correlation_fn_discrete
from decolab.spectral import (
    COLLECTIVE_THRESHOLD,
    INDEPENDENT_THRESHOLD,
    LOWT_MAX_T_OVER_OMEGA_C,
    GaussianSpectrum,
    OhmicBath,
    classify_regime,
    correlation,
    gaussian_correlation,
    ohmic_correlation_highT,
    ohmic_correlation_lowT,
    ohmic_correlation_quad,
    ohmic_spectrum_moments,
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


def test_quad_zero_temperature_zero_separation_moment():
    bath = OhmicBath(1.7, 1.0, 0.0, amplitude=1.3)
    got = ohmic_correlation_quad(bath, 0.0)
    assert abs(got - 1.3 * 2 * bath.omega_c ** 2) / got < 1e-12


def test_quad_even_in_separation_and_rule_read_only():
    from decolab.spectral import _gauss_legendre

    bath = OhmicBath(1.0, 1.0, 0.3)
    for d in (0.0, 0.5, 3.0, 40.0):
        assert ohmic_correlation_quad(bath, -d) == ohmic_correlation_quad(bath, d)
    # the rule is shared by every later integral, so no caller may write to it
    for arr in _gauss_legendre():
        with pytest.raises(ValueError):
            arr[0] = 0.0


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


def test_quad_scale_pass_runs_once_per_bath(monkeypatch):
    import decolab.spectral as spectral

    scale_passes = []
    refine = spectral._refine

    def counting(bath, delta_r, atol, extra_power=0):
        if atol == math.inf:
            scale_passes.append(bath)
        return refine(bath, delta_r, atol, extra_power)

    monkeypatch.setattr(spectral, "_refine", counting)
    bath = OhmicBath(1.0, 1.0, 0.3)
    first = [ohmic_correlation_quad(bath, d) for d in (0.0, 0.5, 3.0, 0.5)]
    ohmic_spectrum_moments(bath)
    assert len(scale_passes) == 1
    # the tolerance belongs to the object: an equal bath computes its own, to the same values
    twin = OhmicBath(1.0, 1.0, 0.3)
    assert [ohmic_correlation_quad(twin, d) for d in (0.0, 0.5, 3.0, 0.5)] == first
    assert len(scale_passes) == 2 and scale_passes[1] is twin


def test_quad_panel_budget_fails_before_any_pass(monkeypatch):
    import decolab.spectral as spectral
    from decolab.errors import ConvergenceError

    bath = OhmicBath(1.0, 1.0, 0.3)
    # ~1.1e9 panels (27e9 nodes) from the start: no pass of that size may be built
    assert spectral._panel_count(bath, 1e8) > spectral._QUAD_MAX_PANELS
    sizes = []
    integral = spectral._ohmic_panel_integral

    def guarded(bath_, delta_r, n_panels, extra_power=0):
        assert n_panels <= spectral._QUAD_MAX_PANELS
        sizes.append(n_panels)
        return integral(bath_, delta_r, n_panels, extra_power)

    monkeypatch.setattr(spectral, "_ohmic_panel_integral", guarded)
    for d in (1e8, -1e8):
        with pytest.raises(ConvergenceError, match="panels"):
            ohmic_correlation_quad(bath, d)
    assert max(sizes) < 100  # only the zero-separation scale pass ran


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
