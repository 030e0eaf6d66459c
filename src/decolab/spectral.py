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
low-temperature limits, and at any temperature it and the spectrum moments
are exact series in the Hurwitz zeta function (``_ohmic_integral``).  The
spectrum moments and the correlation at each ``|delta_r|`` are computed
once per ``OhmicBath`` object, which the points of a ``d`` sweep share.  One
that leaves the float range raises ConfigError naming ``bath.ohmic``.

Every correlation here is even in the separation, bit for bit, so a memo may
key on ``|delta_r|``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import BathModeSet, _check_finite, correlation_fn_discrete, thermal_occupation_factor

# "much greater / much smaller than one" thresholds for the regime ratios;
# at 10 the Gaussian envelope is ~2e-22 (delta-like), at 0.1 it is >= 0.995
INDEPENDENT_THRESHOLD = 10.0
COLLECTIVE_THRESHOLD = 0.1

# each name selects ohmic_correlation_<form>
OHMIC_FORMS = ("quad", "highT", "lowT")
# the lowT form's largest T / omega_c: there it stays within 1e-2 of quad, relative to Omega^2(0)
LOWT_MAX_T_OVER_OMEGA_C = 0.05

# B_2k / (2k)! for k = 1..8, the Euler-Maclaurin coefficients of the Hurwitz zeta tail
_EULER_MACLAURIN = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510), start=1))

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
    def _correlation(self):
        """The form's correlation once per |delta_r|, looked up at call time so a rebound name is the one called.
        Omega^2(0) is positive, so a 0 there has underflowed."""
        return functools.cache(lambda d: _in_float_range(
            f"Omega^2({d!r})", d == 0.0, lambda: globals()[f"ohmic_correlation_{self.form}"](self, d)))

    @functools.cached_property
    def _spectrum(self) -> GaussianSpectrum:
        return ohmic_spectrum_moments(self)


def _in_float_range(what: str, positive: bool, evaluate):
    """``evaluate()``, a float or a tuple of floats; ConfigError naming ``bath.ohmic`` if it overflows, divides by
    an underflowed 0, or has a value that is not finite or, with ``positive``, not above 0."""
    try:
        value = evaluate()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not all(math.isfinite(v) and (v > 0.0 or not positive) for v in np.atleast_1d(value)):
        raise ConfigError("bath.ohmic", f"{what} = {value} is beyond the float range")
    return value


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
    if not (math.isfinite(dk_d) and math.isfinite(kbar_d)):
        raise ValueError(f"(kbar_d, dk_d) = ({kbar_d}, {dk_d}) at d = {d!r} is beyond the float range")
    if dk_d >= INDEPENDENT_THRESHOLD:
        regime = REGIME_INDEPENDENT
    elif dk_d <= COLLECTIVE_THRESHOLD and kbar_d <= COLLECTIVE_THRESHOLD:
        regime = REGIME_COLLECTIVE
    else:
        regime = REGIME_INTERMEDIATE
    return RegimeReport(regime, dk_d, kbar_d)


def ohmic_correlation_highT(bath: OhmicBath, delta_r: float) -> float:
    """High-temperature closed form: (4T/omega_c) omega_c^2 / (1 + u^2), as 4T w (``_lorentzian``).

    Accurate only for T >> omega_c; at T = 0 it would vanish identically.  Once u^2 overflows it is its limit
    4 T r^2 / omega_c (r = v / delta_r), formed without u, and from T r first unless T r overflows.
    """
    if bath.temperature == 0.0:
        raise ValueError("the highT form needs temperature > 0 (it holds for T >> omega_c)")
    u, w = _lorentzian(bath, delta_r)
    if u * u < math.inf:
        return bath.amplitude * 4.0 * (bath.temperature * w)
    r = bath.v / delta_r
    tr = bath.temperature * r
    limit = tr * (r / bath.omega_c) if math.isfinite(tr) else bath.temperature * (r * (r / bath.omega_c))
    return bath.amplitude * 4.0 * limit


def ohmic_correlation_lowT(bath: OhmicBath, delta_r: float) -> float:
    """Low-temperature closed form: 2 omega_c^2 (1 - u^2) / (1 + u^2)^2.

    Exact at T = 0 (Laplace transform of the cutoff weight); changes sign at u = 1, where separated sites become
    anti-correlated.  As 2w omega_c (1 - u^2) / (1 + u^2) (``_lorentzian``), it overflows only where its value
    does; once u^2 overflows it is its limit -2 (v / delta_r)^2, which underflows only where its value does.
    """
    if bath.temperature > LOWT_MAX_T_OVER_OMEGA_C * bath.omega_c:
        raise ValueError(f"the lowT form needs temperature <= {LOWT_MAX_T_OVER_OMEGA_C:g} omega_c "
                         f"(it holds for T << omega_c), got T = {bath.temperature!r}")
    u, w = _lorentzian(bath, delta_r)
    if u * u < math.inf:
        return bath.amplitude * 2.0 * w * (bath.omega_c * ((1.0 - u * u) / (1.0 + u * u)))
    return bath.amplitude * -2.0 * (bath.v / delta_r) ** 2


def _lorentzian(bath: OhmicBath, delta_r: float) -> tuple[float, float]:
    """``u = omega_c delta_r / v`` and ``w = omega_c / (1 + u^2)``; once u^2 overflows, each caller takes its own
    limit without u or w."""
    u = bath.omega_c * delta_r / bath.v
    return u, bath.omega_c / (1.0 + u * u)


def _hurwitz_zeta(s: int, q: complex, h: float) -> complex:
    """sum_{m >= 0} (q + m h)^(-s) = h^(-s) zeta(s, q / h), the Hurwitz zeta function in steps of h.

    Needs an integer s >= 2, h > 0 and Re q >= h.  The first terms are
    summed directly until |q| >= 20 h (at most 20 steps), and the rest is the
    Euler-Maclaurin tail with the Bernoulli numbers B_2..B_16 (DLMF §25.11).
    Every power is taken of a reciprocal, so a large |q| underflows instead
    of overflowing.
    """
    head = 0j
    while abs(q) < 20.0 * h:
        head += (1.0 / q) ** s
        q += h
    r = 1.0 / q
    x = h * r
    tail = 0.5 + sum(b * math.perm(s + 2 * k - 2, 2 * k - 1) * x ** (2 * k - 1)
                     for k, b in enumerate(_EULER_MACLAURIN, start=1))
    return head + r ** (s - 1) / (h * (s - 1)) + r ** s * tail


def _ohmic_integral(bath: OhmicBath, d: float, s: int) -> float:
    """I_s(d) = integral over w > 0 of w^(s-1) coth(w / 2T) exp(-w / omega_c) cos(w d / v).

    With coth(w / 2T) = 1 + 2 sum_{m >= 1} exp(-m w / T) every term is a
    Laplace transform: I_s = (s-1)! Re[z^(-s) + 2 sum_{m >= 1} (z + m / T)^(-s)],
    z = 1 / omega_c - i d / v, and the sum is 2 T^s zeta(s, 1 + T z).  It is
    evaluated as c^s zeta in steps of c / T with c = min(T, 1), so neither
    T^s nor 1 / T can overflow.
    """
    z = complex(1.0 / bath.omega_c, -d / bath.v)
    total = (1.0 / z) ** s
    t = bath.temperature
    if t > 0.0:
        c = min(t, 1.0)
        h = c / t
        # c z + h by parts: a complex product would make 0 * inf = nan of an infinite d / v
        total += 2.0 * c ** s * _hurwitz_zeta(s, complex(c * z.real + h, c * z.imag), h)
    return math.factorial(s - 1) * total.real


def ohmic_correlation_quad(bath: OhmicBath, delta_r: float) -> float:
    """Correlation at any temperature: 2 amplitude I_2(|delta_r|), the thermal Ohmic weight's cosine transform.

    Exact up to rounding, from the Hurwitz-zeta series of :func:`_ohmic_integral`.
    """
    return bath.amplitude * 2.0 * _ohmic_integral(bath, abs(delta_r), 2)


def ohmic_spectrum_moments(bath: OhmicBath) -> GaussianSpectrum:
    """Carrier, width and weight of the thermally weighted Ohmic spectrum.

    The frequency moments m0, m1, m2 are I_2, I_3, I_4 at zero separation,
    mapped to wavevectors through the linear dispersion:
    k_bar = <w>/v, delta_k = std(w)/v.
    """
    def moments():
        m0, m1, m2 = (_ohmic_integral(bath, 0.0, s) for s in (2, 3, 4))
        mean = m1 / m0
        var = max(m2 / m0 - mean * mean, 0.0)
        return mean / bath.v, math.sqrt(var) / bath.v, bath.amplitude * 2.0 * m0
    return GaussianSpectrum(*_in_float_range("(k_bar, delta_k, x)", True, moments))


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
