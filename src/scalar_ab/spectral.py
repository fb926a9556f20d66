"""FM sideband and temporal-Bloch (Floquet) spectral machinery.

A state evolving under a periodic potential energy U(t) factors into
exp(-i*E*t/hbar) times a periodic function, whose Fourier coefficients c_n
populate a quasi-energy ladder E_n = E + n*hbar*omega.  For the sinusoidal
case U = U0*cos(omega*t) the coefficients are Bessel functions J_n(alpha)
with modulation depth alpha = U0/(hbar*omega) (Jacobi-Anger expansion).

Bessel functions are evaluated in-house in two regimes.  Rows (and
``bessel_j`` in general) come from Miller's backward recurrence with
sum-rule normalization, O(alpha) steps.  ``bessel_j`` at alpha >= 1e3 and
|n| <= alpha/2 instead takes J_0 and J_1 from Hankel's asymptotic expansion
(DLMF 10.17.3) and climbs to J_n by forward recurrence, which is stable
below the turning point n = alpha: O(n) steps.  ``fm_spectrum_via_fft`` is
the independent brute force oracle used to cross-validate both the Bessel
route and the general Floquet decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .core import (_NORM_TOL, HBAR, DriveWaveform, SidebandSpectrum, _check_norm,
                   _Coefficients, _require)

if TYPE_CHECKING:
    from .ab_phase import PhaseHistory

__all__ = [
    "FloquetDecomposition",
    "bessel_j",
    "jacobi_anger_coeffs",
    "required_truncation",
    "quasi_energy_ladder",
    "floquet_decompose",
    "fm_spectrum_via_fft",
]

BESSEL_MAX_ARG = 1e6
_RESCALE_THRESHOLD = 1e250
_HANKEL_MIN_ARG = 1e3
_HANKEL_TERMS = 24
_FLOQUET_MAX_N = 4096  # floquet_decompose doubles its truncation up to this


def _bessel_row_tiny(alpha: float, n_max: int) -> np.ndarray:
    """Leading-order series for |alpha| < ~1e-30, where the backward
    recurrence factor 2k/alpha would overflow."""
    row = np.zeros(n_max + 1)
    row[0] = 1.0 - 0.25 * alpha * alpha
    term = 1.0
    for n in range(1, n_max + 1):
        term *= 0.5 * alpha / n  # (alpha/2)^n / n!, underflows harmlessly to 0
        if term == 0.0:
            break
        row[n] = term
    return row


def _bessel_row(alpha: float, n_max: int) -> np.ndarray:
    """J_0(alpha)..J_n_max(alpha) for alpha >= 0 by backward recurrence.

    Start index sits far enough beyond the J_n turning point (offset scales
    like alpha^(1/3)) that the minimal solution dominates; the row is then
    normalized with J_0 + 2*sum J_2k = 1.  Absolute accuracy is ~1e-13 over
    the supported range.
    """
    if alpha == 0.0:
        row = np.zeros(n_max + 1)
        row[0] = 1.0
        return row
    if alpha < 1e-30:
        return _bessel_row_tiny(alpha, n_max)
    start = max(n_max + 20,
                int(math.ceil(alpha + 14.0 * alpha ** (1.0 / 3.0))) + 20)
    if start % 2:
        start += 1
    row = np.zeros(n_max + 1)
    f_above = 0.0      # f_{k+1}
    f_k = 1e-300       # seed value; scaled out by the normalization
    norm = 0.0
    # Above n_max nothing is stored.  Each pass takes the steps k (even) and
    # k - 1, so the norm term f_{k-2} needs no parity test; mid-pass the two
    # names swap roles (f_above holds f_{k-1}, f_k holds f_k).
    k_store = n_max + 2 - n_max % 2
    for k in range(start, k_store, -2):
        f_above = (2.0 * k / alpha) * f_k - f_above
        if abs(f_above) > _RESCALE_THRESHOLD:
            f_above *= 1e-250
            f_k *= 1e-250
            norm *= 1e-250
        f_k = (2.0 * (k - 1) / alpha) * f_above - f_k
        if abs(f_k) > _RESCALE_THRESHOLD:
            f_k *= 1e-250
            f_above *= 1e-250
            norm *= 1e-250
        norm += 2.0 * f_k
    for k in range(k_store, 0, -1):
        f_below = (2.0 * k / alpha) * f_k - f_above
        if abs(f_below) > _RESCALE_THRESHOLD:
            f_below *= 1e-250
            f_k *= 1e-250
            norm *= 1e-250
            row *= 1e-250
        f_above, f_k = f_k, f_below
        if k - 1 <= n_max:
            row[k - 1] = f_k
        if (k - 1) > 0 and (k - 1) % 2 == 0:
            norm += 2.0 * f_k
    norm += f_k  # f_0
    return row / norm


def _hankel_pq(mu: float, alpha: float) -> tuple[float, float]:
    """P and Q of Hankel's expansion of J_nu(alpha), mu = 4*nu^2 (DLMF 10.17.3),
    each summed to _HANKEL_TERMS terms; term k is a_k(nu)/alpha^k, with
    a_k = a_{k-1} * (mu - (2k-1)^2) / (8k) and the sign of P, Q alternating."""
    p = q = 0.0
    term = 1.0
    for k in range(0, 2 * _HANKEL_TERMS, 2):
        p += term
        term *= (mu - (2 * k + 1) ** 2) / (8.0 * (k + 1) * alpha)
        q += term
        term *= -(mu - (2 * k + 3) ** 2) / (8.0 * (k + 2) * alpha)
    return p, q


def _bessel_j_large(n: int, alpha: float) -> float:
    """J_n(alpha) for alpha >= 1e3 and 0 <= n <= alpha/2: Hankel's expansion
    for J_0 and J_1, then forward recurrence.  cos/sin of alpha - pi/4 and
    alpha - 3*pi/4 are built from cos(alpha) and sin(alpha), so the large
    argument is never rounded by a subtraction; the 1/sqrt(2) they carry is
    folded into the 1/sqrt(pi*alpha) prefactor."""
    c, s = math.cos(alpha), math.sin(alpha)
    scale = 1.0 / math.sqrt(math.pi * alpha)
    p0, q0 = _hankel_pq(0.0, alpha)
    p1, q1 = _hankel_pq(4.0, alpha)
    j_prev = scale * (p0 * (c + s) + q0 * (c - s))   # J_0
    j = scale * (p1 * (s - c) + q1 * (s + c))        # J_1
    if n == 0:
        return j_prev
    for k in range(1, n):
        j_prev, j = j, (2.0 * k / alpha) * j - j_prev
    return j


def _check_bessel_arg(op: str, name: str, alpha: float) -> None:
    """Reject |alpha| >= BESSEL_MAX_ARG (and NaN) before any row is allocated."""
    if not abs(alpha) < BESSEL_MAX_ARG:
        raise ValueError(f"{op}: |{name}| must be < {BESSEL_MAX_ARG:g}, got {alpha!r}")


def bessel_j(n: int, alpha: float) -> float:
    """Bessel function J_n(alpha) for integer n, |alpha| < 1e6.

    Satisfies J_{-n}(alpha) = (-1)^n J_n(alpha) and
    J_n(-alpha) = (-1)^n J_n(alpha) exactly by construction: both are
    reduced to n, alpha >= 0 before either regime runs.  |alpha| >= 1e3 with
    |n| <= |alpha|/2 takes Hankel's expansion and O(n) forward steps; every
    other input takes the Miller row.
    """
    _check_bessel_arg("bessel_j", "alpha", alpha)
    n = int(n)
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if alpha < 0.0:
        alpha = -alpha
        if n % 2:
            sign = -sign
    # |J_n(a)| <= (a/2)^n / n! <= (a*e/2n)^n: skip the recurrence (and its
    # O(n) row) once the bound underflows even the subnormal range.
    if n > 0 and (alpha == 0.0
                  or n * (math.log(alpha) - math.log(2.0) + 1.0 - math.log(n)) < -745.0):
        return sign * 0.0
    if alpha >= _HANKEL_MIN_ARG and n <= 0.5 * alpha:
        return sign * _bessel_j_large(n, alpha)
    return sign * float(_bessel_row(alpha, n)[n])


def required_truncation(alpha: float) -> int:
    """Smallest truncation this module accepts for modulation depth alpha.

    ceil(|alpha|) + 10 captures the dominant sidebands; the extra
    alpha^(1/3)-scaled margin keeps the retained sum of |J_n|^2 within 1e-9
    of unity for large depths.
    """
    a = abs(alpha)
    return int(math.ceil(a)) + max(10, 3 + int(math.ceil(4.0 * a ** (1.0 / 3.0))))


def default_truncation(alpha: float) -> int:
    return max(int(math.ceil(abs(alpha))) + 20, required_truncation(alpha))


def jacobi_anger_coeffs(alpha: float, truncation_n: int, *,
                        omega: float = 1.0) -> SidebandSpectrum:
    """Sideband spectrum of exp(-i*alpha*sin(omega*t)): coefficients J_n(alpha),
    on a ladder with base energy 0.

    ``truncation_n`` must be at least :func:`required_truncation` (dominant
    sidebands plus a normalization-safe margin); too-small truncations are
    rejected with the required minimum, and |alpha| >= 1e6 with the cap.
    """
    _check_bessel_arg("jacobi_anger_coeffs", "alpha", alpha)
    needed = required_truncation(alpha)
    if truncation_n < needed:
        raise ValueError(
            f"jacobi_anger_coeffs: truncation_n={truncation_n} too small for "
            f"alpha={alpha:g}; need >= {needed}")
    row = _bessel_row(abs(alpha), truncation_n)
    flipped = row.copy()
    np.negative(flipped[1::2], out=flipped[1::2])   # (-1)^n J_n, every -0.0 kept
    # J_{-n}(a) = (-1)^n J_n(a) and J_n(-a) = (-1)^n J_n(a): for alpha < 0 the
    # flipped row is the positive half and the plain row the negative half.
    neg, pos = (row, flipped) if alpha < 0.0 else (flipped, row)
    values = np.concatenate((neg[:0:-1], pos)).astype(complex)
    ns = np.arange(-truncation_n, truncation_n + 1)
    return SidebandSpectrum(base_energy=0.0, omega=omega,
                            coefficients=_Coefficients(ns, values),
                            truncation_n=truncation_n)


def quasi_energy_ladder(base_energy: float, omega: float,
                        n_range: tuple[int, int]) -> list[tuple[int, float]]:
    """Quasi-energy levels E_n = base_energy + n*hbar*omega over n_range
    (inclusive).  Pure arithmetic on a single precomputed hbar*omega."""
    n_lo, n_hi = int(n_range[0]), int(n_range[1])
    _require(n_lo <= n_hi, "quasi_energy_ladder n_range must satisfy lo <= hi")
    hw = HBAR * omega
    return [(n, base_energy + n * hw) for n in range(n_lo, n_hi + 1)]


@dataclass(frozen=True)
class FloquetDecomposition:
    """Periodic-potential decomposition: quasi-energy plus harmonic amplitudes.

    ``quasi_energy`` absorbs the one-period mean of the potential so that the
    coefficients describe only the purely periodic factor and satisfy
    sum |c_n|^2 = 1 within max(1e-9, residual_tol^2).  ``residual`` is the
    max reconstruction error of that periodic factor at the stored
    truncation.
    """

    quasi_energy: float                  # J, base energy + mean potential
    omega: float                         # rad/s
    coefficients: Mapping[int, complex]  # n -> c_n
    truncation_n: int
    residual: float
    residual_tol: float = 1e-8

    def __post_init__(self) -> None:
        coeffs = _Coefficients.of(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        _require(self.omega > 0.0, "FloquetDecomposition.omega must be positive")
        # Parseval on the analysis grid: 1 - sum |c_n|^2 <= residual^2, so a
        # residual_tol looser than ~3e-5 loosens the norm bound with it.
        norm_tol = max(_NORM_TOL, self.residual_tol ** 2)
        _check_norm("FloquetDecomposition", coeffs.c, norm_tol,
                    "1e-9" if norm_tol == _NORM_TOL else "residual_tol^2={tol:g}")
        _require(self.residual <= self.residual_tol,
                 f"FloquetDecomposition residual {self.residual:.3g} exceeds "
                 f"residual_tol {self.residual_tol:.3g}")

    def amplitude(self, n: int) -> complex:
        return self.coefficients.get(n, 0.0 + 0.0j)

    def to_dict(self) -> dict:
        return {
            "quasi_energy_J": self.quasi_energy,
            "omega_rad_per_s": self.omega,
            "truncation_n": self.truncation_n,
            "residual": self.residual,
            "coefficients": self.coefficients.to_list(),
        }


def _periodic_factor(potential: DriveWaveform, truncation_n: int,
                     n_samples: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Fourier-analyze u(t) = exp(-i*phase_p(t)) over one period.

    phase_p is the zero-mean part of (1/hbar) * integral U dt, evaluated
    exactly per sample (analytically for sinusoids, piecewise-quadratic for
    sampled waveforms).  Returns (n values, c_n, mean potential, residual)
    where residual is the max reconstruction error of the |n| <= truncation_n
    series on the (>= 16x oversampled) analysis grid.
    """
    period = potential.period
    mean_u = potential.mean()
    t0 = potential.samples[0][0] if potential.samples is not None else 0.0
    t = t0 + period * np.arange(n_samples) / n_samples
    phase = (potential.antiderivative(t) - mean_u * (t - t0)) / HBAR
    u = np.exp(-1j * phase)
    spectrum = np.fft.fft(u) / n_samples
    ns = np.arange(-truncation_n, truncation_n + 1)
    coeffs = spectrum[(-ns) % n_samples]
    mask = np.zeros(n_samples, dtype=bool)
    mask[(-ns) % n_samples] = True
    u_rec = np.fft.ifft(np.where(mask, spectrum, 0.0)) * n_samples
    residual = float(np.max(np.abs(u_rec - u)))
    return ns, coeffs, mean_u, residual


def _analysis_samples(potential: DriveWaveform, truncation_n: int) -> int:
    n_samples = 1 << max(12, int(math.ceil(math.log2(16 * max(truncation_n, 1)))) + 1)
    if potential.samples is not None:
        n_samples = max(n_samples,
                        1 << int(math.ceil(math.log2(8 * len(potential.samples)))))
    return n_samples


def floquet_decompose(potential: DriveWaveform, base_energy: float,
                      truncation_n: int | None = None, *,
                      residual_tol: float = 1e-8) -> FloquetDecomposition:
    """Decompose evolution under an arbitrary periodic potential energy (J).

    The accumulated phase (1/hbar) * integral U dt splits into a mean-slope
    part, absorbed into ``quasi_energy = base_energy + mean(U)``, and a
    periodic remainder whose exponential is Fourier-analyzed.  With
    ``truncation_n=None`` the truncation doubles (up to 4096) until
    the reconstruction residual meets ``residual_tol``; an explicit
    truncation that cannot meet the residual is rejected, quoting the
    truncation that can when one exists.

    The phases of the c_n depend on the waveform's time origin and phase
    offset; only the magnitudes |c_n| are convention-free, and cross-checks
    against other routes should compare magnitudes.
    """
    _require(residual_tol > 0.0, "floquet_decompose residual_tol must be positive")
    if potential.is_sinusoid:
        start_n = default_truncation(potential.amplitude / (HBAR * potential.omega))
    else:
        start_n = 32
    explicit = truncation_n is not None
    n_try = truncation_n if explicit else start_n
    _require(n_try >= 0, "floquet_decompose truncation_n must be >= 0")
    _require(n_try <= 65536,
             "floquet_decompose truncation_n above 65536 is not supported "
             "(the analysis grid would not fit in memory)")

    while True:
        ns, coeffs, mean_u, residual = _periodic_factor(
            potential, n_try, _analysis_samples(potential, n_try))
        if residual <= residual_tol:
            break
        if explicit:
            hint = _minimum_truncation(potential, residual_tol)
            raise ValueError(
                f"floquet_decompose: residual {residual:.3g} exceeds "
                f"residual_tol={residual_tol:g} at truncation_n={n_try}; "
                + (f"need truncation_n >= {hint}" if hint is not None else
                   f"tolerance unreachable within the truncation cap {_FLOQUET_MAX_N} "
                   "(non-smooth waveform); relax residual_tol"))
        if 2 * n_try > _FLOQUET_MAX_N:
            raise ValueError(
                f"floquet_decompose: residual {residual:.3g} still exceeds "
                f"residual_tol={residual_tol:g} at the truncation cap "
                f"{_FLOQUET_MAX_N} (non-smooth waveform); relax residual_tol")
        n_try *= 2

    return FloquetDecomposition(quasi_energy=base_energy + mean_u,
                                omega=potential.omega,
                                coefficients=_Coefficients(ns, coeffs),
                                truncation_n=n_try,
                                residual=residual,
                                residual_tol=residual_tol)


def _minimum_truncation(potential: DriveWaveform, residual_tol: float) -> int | None:
    try:
        auto = floquet_decompose(potential, 0.0, None, residual_tol=residual_tol)
    except ValueError:
        return None
    return auto.truncation_n


def fm_spectrum_via_fft(phase_history: PhaseHistory, omega: float,
                        truncation_n: int) -> SidebandSpectrum:
    """Brute-force sideband oracle: DFT of exp(-i*phi(t)), on a ladder with
    base energy 0.

    The phase history must cover an integer number of periods 2*pi/omega on
    a uniform grid (inclusive of both endpoints) with at least
    16*truncation_n samples per period; anything else is rejected to guard
    against spectral leakage.  Bin n*P of the DFT (P = period count) maps to
    harmonic index n.
    """
    _require(omega > 0.0, "fm_spectrum_via_fft omega must be positive")
    _require(truncation_n >= 0, "fm_spectrum_via_fft truncation_n must be >= 0")
    times = phase_history.times
    _require(len(times) >= 2, "fm_spectrum_via_fft needs >= 2 samples")
    steps = np.diff(times)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("fm_spectrum_via_fft requires a uniform time grid")
    span = float(times[-1] - times[0])
    period = 2.0 * math.pi / omega
    n_periods = span / period
    if abs(n_periods - round(n_periods)) > 1e-9 * max(n_periods, 1.0) or round(n_periods) < 1:
        raise ValueError(
            f"fm_spectrum_via_fft requires an integer number of periods; grid spans "
            f"{n_periods!r} periods of 2*pi/omega")
    p = int(round(n_periods))
    m = len(times) - 1  # endpoint sample duplicates t=0 and is dropped
    if truncation_n > 0 and m < 16 * truncation_n * p:
        raise ValueError(
            f"fm_spectrum_via_fft needs >= 16*truncation_n samples per period "
            f"(got {m / p:.1f}, need {16 * truncation_n})")
    u = np.exp(-1j * phase_history.phase[:m])
    spectrum = np.fft.fft(u) / m
    ns = np.arange(-truncation_n, truncation_n + 1)
    return SidebandSpectrum(base_energy=0.0, omega=omega,
                            coefficients=_Coefficients(ns, spectrum[(-ns * p) % m]),
                            truncation_n=truncation_n)
