"""Continuum spectral descriptions of the bath, the bath table and regime classification.

The bath table, :func:`correlation` and :func:`spectrum`, answers for a
``BathModeSet``, ``GaussianSpectrum`` or ``OhmicBath``: it is the only code
that chooses by bath kind, and ``OHMIC_FORMS`` the only list of Ohmic forms.

A bath's spatial correlation is a cosine transform of its (thermally
weighted) spectral distribution.  When that distribution is Gaussian with
carrier ``k_bar`` and width ``delta_k``, the correlation is
``x cos(k_bar d) exp(-(delta_k d)^2 / 2)`` and the decoherence type follows
from the two dimensionless ratios ``delta_k * d`` and ``k_bar * d``:
a delta-like correlation (large ``delta_k * d``) decoheres qubits
independently, a constant one (both ratios small) decoheres them
collectively.

The Ohmic bath has spectral weight ``w exp(-w / omega_c)`` with linear
dispersion ``w = v k``; its correlation admits closed forms in the high- and
low-temperature limits and is evaluated by quadrature in between.  The
quadrature's Gauss-Legendre rule is built once per process, on first use;
the quadrature tolerance, the spectrum moments and the correlation at each
``|delta_r|`` are computed once per ``OhmicBath`` object, which the points
of a ``d`` sweep share.  A pass never holds more than ``_QUAD_MAX_PANELS``
panels: a separation that needs more raises ``ConvergenceError`` instead of
building it.

Every correlation here is even in the separation, bit for bit, so a memo may
key on ``|delta_r|``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import BathModeSet, _check_finite, correlation_fn_discrete, thermal_occupation_factor

# "much greater / much smaller than one" thresholds for the regime ratios;
# at 10 the Gaussian envelope is ~2e-22 (delta-like), at 0.1 it is >= 0.995
INDEPENDENT_THRESHOLD = 10.0
COLLECTIVE_THRESHOLD = 0.1

# each name selects ohmic_correlation_<form>
OHMIC_FORMS = ("quad", "highT", "lowT")
# the lowT form's largest T / omega_c: there it stays within 1e-2 of quad, relative to Omega^2(0)
LOWT_MAX_T_OVER_OMEGA_C = 0.05

QUAD_REL_TOL = 1e-9
_QUAD_NODES = 24
_QUAD_MAX_HALVINGS = 10
# a pass materializes every node: 24 * 2^18 floats is 50 MB per temporary
_QUAD_MAX_PANELS = 1 << 18
# exp(-w/omega_c) below ~1e-12 contributes nothing at double precision
_CUTOFF_IN_OMEGA_C = math.log(1e12) + 8.0

REGIME_INDEPENDENT = "independent"
REGIME_COLLECTIVE = "collective"
REGIME_INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class GaussianSpectrum:
    """Gaussian spectral distribution: carrier k_bar, width delta_k, weight x.

    ``x`` is the zero-separation correlation (the overall rate scale).
    ``delta_k = 0`` is a degenerate point spectrum; it is representable but
    rejected by the regime classifier.
    """

    k_bar: float
    delta_k: float
    x: float

    def __post_init__(self):
        _check_finite({"k_bar": self.k_bar, "delta_k": self.delta_k, "x": self.x})
        if self.delta_k < 0:
            raise ValueError(f"delta_k must be >= 0, got {self.delta_k}")
        if self.x <= 0:
            raise ValueError(f"normalization x must be positive, got {self.x}")


@dataclass(frozen=True)
class OhmicBath:
    """Ohmic spectral weight with exponential cutoff and linear dispersion, evaluated by ``form``."""

    omega_c: float
    v: float
    temperature: float
    amplitude: float = 1.0
    form: str = "quad"

    def __post_init__(self):
        if self.form not in OHMIC_FORMS:
            raise ValueError(f"form must be one of {OHMIC_FORMS}, got {self.form!r}")
        _check_finite({"omega_c": self.omega_c, "v": self.v, "temperature": self.temperature,
                       "amplitude": self.amplitude})
        if self.omega_c <= 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if self.v <= 0:
            raise ValueError(f"velocity must be positive, got {self.v}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.amplitude <= 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")

    @functools.cached_property
    def _quad_atol(self) -> float:
        """QUAD_REL_TOL of the zero-separation integral, whose first refinement pass fixes the scale."""
        return QUAD_REL_TOL * abs(_refine(self, 0.0, atol=math.inf))

    @functools.cached_property
    def _correlation(self):
        """The form's correlation once per |delta_r|, looked up at call time so a rebound name is the one called."""
        return functools.cache(lambda d: globals()[f"ohmic_correlation_{self.form}"](self, d))

    @functools.cached_property
    def _spectrum(self) -> GaussianSpectrum:
        return ohmic_spectrum_moments(self)


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    dk_d: float
    kbar_d: float


def spectrum_moments(modes: BathModeSet) -> GaussianSpectrum:
    """Weight and (k >= 0 half-spectrum) moments of a discrete mode set.

    The normalization x sums over the full symmetric set; the carrier and
    width are moments over k >= 0 only, since the mirrored half would force
    the mean to zero and lose the carrier.
    """
    t = modes.temperature
    weights = np.array([2.0 * m.g * m.g * thermal_occupation_factor(m.omega, t) for m in modes.modes])
    x = float(weights.sum())
    if x <= 0:
        raise ValueError("mode set has zero spectral weight")
    ks = np.array([m.k for m in modes.modes])
    half = ks >= 0
    if not half.any():
        raise ValueError("mode set has no k >= 0 modes")
    w = weights[half]
    k = ks[half]
    w = w / w.sum()
    k_bar = float(w @ k)
    var = float(w @ (k - k_bar) ** 2)
    return GaussianSpectrum(k_bar, math.sqrt(max(var, 0.0)), x)


def gaussian_correlation(spec: GaussianSpectrum, delta_r: float) -> float:
    """x cos(k_bar d) exp(-(delta_k d)^2 / 2)."""
    d = float(delta_r)
    return spec.x * math.cos(spec.k_bar * d) * math.exp(-0.5 * (spec.delta_k * d) ** 2)


def classify_regime(d: float, spec: GaussianSpectrum) -> RegimeReport:
    """Independent / collective / intermediate decoherence at qubit spacing d."""
    if d <= 0:
        raise ValueError(f"spacing must be positive, got {d}")
    if spec.delta_k <= 0:
        raise ValueError("degenerate spectrum (delta_k = 0) cannot be classified")
    dk_d = spec.delta_k * d
    kbar_d = spec.k_bar * d
    if dk_d >= INDEPENDENT_THRESHOLD:
        regime = REGIME_INDEPENDENT
    elif dk_d <= COLLECTIVE_THRESHOLD and kbar_d <= COLLECTIVE_THRESHOLD:
        regime = REGIME_COLLECTIVE
    else:
        regime = REGIME_INTERMEDIATE
    return RegimeReport(regime, dk_d, kbar_d)


def ohmic_correlation_highT(bath: OhmicBath, delta_r: float) -> float:
    """High-temperature closed form: (4T/omega_c) omega_c^2 / (1 + u^2).

    Accurate only for T >> omega_c; at T = 0 it would vanish identically.
    """
    if bath.temperature == 0.0:
        raise ValueError("the highT form needs temperature > 0 (it holds for T >> omega_c)")
    u = bath.omega_c * delta_r / bath.v
    return bath.amplitude * (4.0 * bath.temperature / bath.omega_c) * bath.omega_c ** 2 / (1.0 + u * u)


def ohmic_correlation_lowT(bath: OhmicBath, delta_r: float) -> float:
    """Low-temperature closed form: 2 omega_c^2 (1 - u^2) / (1 + u^2)^2.

    Exact at T = 0 (Laplace transform of the cutoff weight); changes sign at
    u = 1, where separated sites become anti-correlated.
    """
    if bath.temperature > LOWT_MAX_T_OVER_OMEGA_C * bath.omega_c:
        raise ValueError(f"the lowT form needs temperature <= {LOWT_MAX_T_OVER_OMEGA_C:g} omega_c "
                         f"(it holds for T << omega_c), got T = {bath.temperature!r}")
    u = bath.omega_c * delta_r / bath.v
    return bath.amplitude * 2.0 * bath.omega_c ** 2 * (1.0 - u * u) / (1.0 + u * u) ** 2


def _thermal_weight(omega: np.ndarray, temperature: float) -> np.ndarray:
    """omega * coth(omega / 2T), continuous at omega -> 0 (limit 2T)."""
    if temperature == 0.0:
        return omega
    y = omega / (2.0 * temperature)
    out = np.empty_like(omega)
    small = y < 1e-4
    ys = y[small]
    out[small] = 2.0 * temperature * (1.0 + ys * ys / 3.0 - ys ** 4 / 45.0)
    out[~small] = omega[~small] / np.tanh(y[~small])
    return out


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the _QUAD_NODES-point rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _ohmic_panel_integral(bath: OhmicBath, delta_r: float, n_panels: int,
                          extra_power: int = 0) -> float:
    """Gauss-Legendre sum of w^extra_power * thermal_weight(w) e^(-w/wc) cos(w d / v)."""
    omega_max = _CUTOFF_IN_OMEGA_C * bath.omega_c
    nodes, gl_weights = _gauss_legendre()
    edges = np.linspace(0.0, omega_max, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    omega = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
    f = _thermal_weight(omega, bath.temperature) * np.exp(-omega / bath.omega_c)
    f = f * np.cos(omega * delta_r / bath.v)
    if extra_power:
        f = f * omega ** extra_power
    w = (half[:, None] * gl_weights[None, :]).reshape(-1)
    return float(f @ w)


def _panel_count(bath: OhmicBath, delta_r: float) -> int:
    # panels must resolve both the cutoff (scale omega_c) and the oscillation
    # (half-period pi v / |d|); width = pi omega_c / max(u, 1)
    u = abs(bath.omega_c * delta_r / bath.v)
    width = math.pi * bath.omega_c / max(u, 1.0)
    return max(4, math.ceil(_CUTOFF_IN_OMEGA_C * bath.omega_c / width))


def _refine(bath: OhmicBath, delta_r: float, atol: float, extra_power: int = 0) -> float:
    n = _panel_count(bath, delta_r)
    prev = err = None
    for _ in range(_QUAD_MAX_HALVINGS + 1):
        if n > _QUAD_MAX_PANELS:
            raise ConvergenceError(f"quadrature at separation {delta_r!r} needs more than "
                                   f"{_QUAD_MAX_PANELS} panels", achieved=err)
        cur = _ohmic_panel_integral(bath, delta_r, n, extra_power)
        if prev is not None:
            err = abs(cur - prev)
            if err <= atol:
                return cur
        prev = cur
        n *= 2
    raise ConvergenceError("quadrature did not converge", achieved=err)


def ohmic_correlation_quad(bath: OhmicBath, delta_r: float) -> float:
    """Correlation at any temperature: 2 * integral of the thermal Ohmic weight.

    Adaptive panel quadrature with oscillation-aware panel widths; converged
    to 1e-9 relative to the zero-separation value.
    """
    return bath.amplitude * 2.0 * _refine(bath, delta_r, bath._quad_atol)


def ohmic_spectrum_moments(bath: OhmicBath) -> GaussianSpectrum:
    """Carrier, width and weight of the thermally weighted Ohmic spectrum.

    Moments are taken in frequency and mapped to wavevectors through the
    linear dispersion: k_bar = <w>/v, delta_k = std(w)/v.
    """
    atol = bath._quad_atol
    m0 = _refine(bath, 0.0, atol)
    m1 = _refine(bath, 0.0, atol * bath.omega_c, extra_power=1)
    m2 = _refine(bath, 0.0, atol * bath.omega_c ** 2, extra_power=2)
    mean = m1 / m0
    var = max(m2 / m0 - mean * mean, 0.0)
    return GaussianSpectrum(mean / bath.v, math.sqrt(var) / bath.v, bath.amplitude * 2.0 * m0)


def correlation(bath, delta_r: float) -> float:
    """The spatial correlation Omega^2(delta_r) of any bath, evaluated at |delta_r|."""
    d = abs(delta_r)
    if isinstance(bath, BathModeSet):
        return correlation_fn_discrete(bath, d)
    if isinstance(bath, GaussianSpectrum):
        return gaussian_correlation(bath, d)
    return bath._correlation(d)


def spectrum(bath) -> GaussianSpectrum:
    """Weight, carrier and width of any bath's spectrum, as the regime classifier takes them."""
    if isinstance(bath, BathModeSet):
        return spectrum_moments(bath)
    if isinstance(bath, GaussianSpectrum):
        return bath
    return bath._spectrum
