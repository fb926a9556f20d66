"""Bessel evaluation, sideband spectra, quasi-energy ladders, and the
Floquet decomposition, cross-validated by independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_ab import spectral
from scalar_ab.ab_phase import PhaseHistory
from scalar_ab.core import HBAR, PLANCK_H, DriveWaveform, SidebandSpectrum
from scalar_ab.spectral import (FloquetDecomposition, _bessel_row, bessel_j, default_truncation,
                                floquet_decompose, fm_spectrum_via_fft,
                                jacobi_anger_coeffs, quasi_energy_ladder,
                                required_truncation)

# Frozen from the truncated power series sum_k (-1)^k (1/2)^(2k) / (k!)^2.
J0_OF_1 = 0.7651976865579666


def bessel_series(n, alpha, terms=60):
    """Independent power-series oracle sum_k (-1)^k (a/2)^(n+2k)/(k!(n+k)!)."""
    total = 0.0
    for k in range(terms):
        total += ((-1) ** k * (alpha / 2.0) ** (n + 2 * k)
                  / (math.factorial(k) * math.factorial(n + k)))
    return total


def bessel_series_hp(n, alpha, terms=80):
    """The same series in 40-digit arithmetic; the alternating terms cancel
    catastrophically in doubles once alpha exceeds ~10."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(alpha) / 2
        total = mpmath.mpf(0)
        for k in range(terms):
            total += ((-1) ** k * a ** (n + 2 * k)
                      / (mpmath.factorial(k) * mpmath.factorial(n + k)))
        return float(total)


def sin_phase_history(alpha, omega, periods=1, samples_per_period=4096):
    m = periods * samples_per_period
    t = np.linspace(0.0, periods * 2 * math.pi / omega, m + 1)
    return PhaseHistory(times=t, phase=alpha * np.sin(omega * t))


def exact_omega_for(target_hw):
    """Angular frequency whose product with hbar rounds exactly to target_hw."""
    omega = target_hw / HBAR
    for _ in range(128):
        if HBAR * omega == target_hw:
            return omega
        omega = np.nextafter(omega, math.inf if HBAR * omega < target_hw else -math.inf)
    raise AssertionError("no exactly-representable omega found")


class TestBesselJ:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_jn_at_zero(self):
        assert bessel_j(3, 0.0) == 0.0

    def test_subnormal_argument_underflows_to_zero(self):
        # alpha/2 underflows to 0 here; the underflow guard must not take log(0)
        assert bessel_j(1, 5e-324) == 0.0
        assert bessel_j(-1, -5e-324) == 0.0

    def test_j0_of_one_matches_series_oracle(self):
        assert bessel_series(0, 1.0) == pytest.approx(J0_OF_1, abs=1e-15)
        assert bessel_j(0, 1.0) == pytest.approx(J0_OF_1, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    @pytest.mark.parametrize("alpha", [1e-8, 0.1, 1.0, 5.0, 10.0])
    def test_matches_series_oracle(self, n, alpha):
        assert bessel_j(n, alpha) == pytest.approx(bessel_series(n, alpha), abs=1e-12)

    def test_large_argument_against_series(self):
        # n = alpha regime, still within the series oracle's reach
        assert bessel_j(30, 25.0) == pytest.approx(bessel_series(30, 25.0), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="1e\\+06"):
            bessel_j(0, 2e6)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(-40, 40), alpha=st.floats(-30.0, 30.0))
    def test_negative_index_symmetry(self, n, alpha):
        assert bessel_j(-n, alpha) == (-1.0) ** n * bessel_j(n, alpha)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 25), alpha=st.floats(0.0, 20.0))
    def test_series_oracle_property(self, n, alpha):
        assert bessel_j(n, alpha) == pytest.approx(bessel_series_hp(n, alpha),
                                                   abs=1e-12)


class TestBesselJLargeArgument:
    """alpha >= 1e3 with |n| <= alpha/2: Hankel's expansion and forward
    recurrence instead of the Miller row."""

    @pytest.mark.parametrize("n", [0, 1, 2, 81, 499])
    @pytest.mark.parametrize("alpha", [1e3, 1e4, 1e5, 9.9e5])
    def test_matches_mpmath(self, n, alpha):
        import mpmath

        with mpmath.workdps(30):
            want = float(mpmath.besselj(n, mpmath.mpf(alpha), maxprec=40000))
        assert abs(bessel_j(n, alpha) - want) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 81, 498, 499, 999])
    def test_symmetries_exact(self, n):
        alpha = 9.9e5
        sign = (-1.0) ** n
        j = bessel_j(n, alpha)
        assert bessel_j(-n, alpha) == sign * j
        assert bessel_j(n, -alpha) == sign * j
        assert bessel_j(-n, -alpha) == j

    @pytest.mark.parametrize("alpha", [math.nextafter(1e3, 0.0), 1e3,
                                       math.nextafter(1e3, 2e3), 1002.0])
    def test_agrees_with_row_across_the_regime_edges(self, alpha):
        half = int(alpha // 2)
        ns = [0, 1, 2, half - 1, half, half + 1]
        row = _bessel_row(alpha, half + 1)
        for n in ns:
            assert abs(bessel_j(n, alpha) - row[n]) <= 1e-15, n
        if alpha < 1e3:
            # below the edge every index is read off the Miller row
            assert [bessel_j(n, alpha) for n in ns] == [float(row[n]) for n in ns]

    def test_large_index_skips_the_row(self, monkeypatch):
        want = bessel_j(999, 9.9e5)

        def no_row(alpha, n_max):
            raise AssertionError("_bessel_row called")

        monkeypatch.setattr(spectral, "_bessel_row", no_row)
        assert bessel_j(999, 9.9e5) == want
        assert bessel_j(-999, -9.9e5) == want
        with pytest.raises(AssertionError, match="_bessel_row called"):
            bessel_j(501, 1e3)   # above alpha/2: the row


def single_loop_bessel_row(alpha, n_max):
    """The one-loop Miller recurrence that ``_bessel_row`` splits in two,
    kept verbatim (alpha >= 1e-30).  Also returns whether a rescale fell
    inside the stored range k - 1 <= n_max."""
    start = max(n_max + 20,
                int(math.ceil(alpha + 14.0 * alpha ** (1.0 / 3.0))) + 20)
    if start % 2:
        start += 1
    row = np.zeros(n_max + 1)
    f_above = 0.0      # f_{k+1}
    f_k = 1e-300       # seed value; scaled out by the normalization
    norm = 0.0
    stored_rescale = False
    for k in range(start, 0, -1):
        f_below = (2.0 * k / alpha) * f_k - f_above
        if abs(f_below) > 1e250:
            f_below *= 1e-250
            f_k *= 1e-250
            norm *= 1e-250
            row *= 1e-250
            stored_rescale = stored_rescale or k - 1 <= n_max
        f_above, f_k = f_k, f_below
        if k - 1 <= n_max:
            row[k - 1] = f_k
        if (k - 1) > 0 and (k - 1) % 2 == 0:
            norm += 2.0 * f_k
    norm += f_k  # f_0
    return row / norm, stored_rescale


def recurrence_cases():
    rng = np.random.default_rng(20261018)
    cases = [(9.9e5, 81), (9.9e5, 0), (1e5, 7), (1e-30, 3), (0.5, 0), (0.5, 1),
             (20.0, 19), (20.0, 20), (20.0, 21)]
    for _ in range(300):
        alpha = float(10.0 ** rng.uniform(-3.0, 4.0))
        cases.append((alpha, int(rng.integers(0, 1000))))
    return cases


class TestBesselRow:
    def test_bit_identical_to_single_loop(self):
        stored_rescales = 0
        for alpha, n_max in recurrence_cases():
            want, rescaled = single_loop_bessel_row(alpha, n_max)
            got = _bessel_row(alpha, n_max)
            assert got.tobytes() == want.tobytes(), (alpha, n_max)
            stored_rescales += rescaled
        # The cases must exercise rescaling inside the stored range too.
        assert stored_rescales >= 100

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 15.0, 1e4, 9.9e5])
    def test_matches_scipy_jv(self, alpha):
        from scipy.special import jv

        n_max = required_truncation(alpha)
        ns = np.arange(n_max + 1) if alpha < 1e5 else np.arange(0, n_max + 1, 97)
        got = _bessel_row(alpha, n_max)[ns]
        assert np.max(np.abs(got - jv(ns, alpha))) <= 1e-10

    @pytest.mark.parametrize("alpha", [-15.0, -1.0, 0.1, 15.0])
    def test_signed_coefficients_match_scipy_jv(self, alpha):
        from scipy.special import jv

        n_max = required_truncation(alpha)
        s = jacobi_anger_coeffs(alpha, n_max)
        ns = np.arange(-n_max, n_max + 1)
        got = np.array([s.amplitude(n) for n in ns])
        assert np.max(np.abs(got - jv(ns, alpha))) <= 1e-10
        assert not got.imag.any()

    @pytest.mark.parametrize("alpha", [1e6, -1e6, 4.8e14, 1e300, math.inf, math.nan])
    def test_depth_cap_rejected_before_allocation(self, alpha):
        with pytest.raises(ValueError, match=r"\|alpha\| must be < 1e\+06"):
            jacobi_anger_coeffs(alpha, 10)


class TestJacobiAnger:
    def test_zero_depth_is_pure_carrier(self):
        s = jacobi_anger_coeffs(0.0, 12)
        assert s.amplitude(0) == 1.0
        assert all(s.amplitude(n) == 0.0 for n in range(1, 13))

    def test_dominant_sideband_near_depth_five(self):
        s = jacobi_anger_coeffs(5.0, 25)
        positive = {n: abs(s.amplitude(n)) for n in range(1, 26)}
        assert max(positive, key=positive.get) in (4, 5)

    def test_coefficients_are_bessel_values(self):
        s = jacobi_anger_coeffs(1.0, 15)
        for n in range(-15, 16):
            assert s.amplitude(n) == complex(bessel_j(n, 1.0), 0.0)

    def test_rejects_small_truncation_with_minimum(self):
        needed = required_truncation(5.0)
        with pytest.raises(ValueError, match=f"need >= {needed}"):
            jacobi_anger_coeffs(5.0, needed - 1)

    def test_equals_a_dict_built_spectrum(self):
        s = jacobi_anger_coeffs(-3.0, 20, omega=2.0)
        rebuilt = SidebandSpectrum(base_energy=0.0, omega=2.0,
                                   coefficients=dict(s.coefficients), truncation_n=20)
        assert s == rebuilt == jacobi_anger_coeffs(-3.0, 20, omega=2.0)
        assert s != jacobi_anger_coeffs(3.0, 20, omega=2.0)
        assert s != SidebandSpectrum(base_energy=1e-24, omega=2.0,
                                     coefficients=s.coefficients, truncation_n=20)
        assert list(s.coefficients) == list(range(-20, 21))

    def test_normalization(self):
        for alpha in (0.3, 2.0, 9.5):
            s = jacobi_anger_coeffs(alpha, default_truncation(alpha))
            total = sum(abs(c) ** 2 for c in s.coefficients.values())
            assert total == pytest.approx(1.0, abs=1e-9)


class TestQuasiEnergyLadder:
    def test_zero_base_zero_index(self):
        assert quasi_energy_ladder(0.0, 123.0, (0, 0)) == [(0, 0.0)]

    def test_tenth_joule_steps(self):
        omega = exact_omega_for(0.1)
        ladder = quasi_energy_ladder(1.0, omega, (-2, 2))
        assert [e for _, e in ladder] == [0.8, 0.9, 1.0, 1.1, 1.2]

    def test_spacing_is_hbar_omega_bit_exact(self):
        omega = exact_omega_for(0.125)
        ladder = quasi_energy_ladder(1.0, omega, (-64, 64))
        hw = HBAR * omega
        assert all(ladder[i + 1][1] - ladder[i][1] == hw
                   for i in range(len(ladder) - 1))

    @settings(max_examples=60, deadline=None)
    @given(base=st.floats(-1e-20, 1e-20), omega=st.floats(1e3, 1e12))
    def test_spacing_constant_within_rounding(self, base, omega):
        ladder = quasi_energy_ladder(base, omega, (-8, 8))
        hw = HBAR * omega
        spacings = [ladder[i + 1][1] - ladder[i][1] for i in range(len(ladder) - 1)]
        span = max(abs(e) for _, e in ladder)  # rounding scales with ladder span
        assert all(abs(s - hw) <= 4 * np.finfo(float).eps * span for s in spacings)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            quasi_energy_ladder(0.0, 1.0, (3, -3))


class TestFloquetDecompose:
    OMEGA = 2 * math.pi * 1e6

    def test_sinusoid_reduces_to_jacobi_anger(self):
        alpha = 2.3
        potential = DriveWaveform.sinusoid(alpha * HBAR * self.OMEGA, self.OMEGA)
        decomp = floquet_decompose(potential, base_energy=1e-24)
        assert decomp.quasi_energy == 1e-24  # zero-mean drive
        reference = jacobi_anger_coeffs(alpha, decomp.truncation_n)
        for n in range(-decomp.truncation_n, decomp.truncation_n + 1):
            assert decomp.amplitude(n) == pytest.approx(reference.amplitude(n),
                                                        abs=1e-10)

    def test_decompositions_compare_by_value(self):
        potential = DriveWaveform.sinusoid(2.3 * HBAR * self.OMEGA, self.OMEGA)
        decomp = floquet_decompose(potential, base_energy=1e-24)
        assert decomp == floquet_decompose(potential, base_energy=1e-24)
        assert decomp != floquet_decompose(potential, base_energy=2e-24)
        # a spectrum rebuilt from a plain dict of the coefficients stores them equal
        rebuilt = SidebandSpectrum(base_energy=decomp.quasi_energy, omega=decomp.omega,
                                   coefficients=dict(decomp.coefficients),
                                   truncation_n=decomp.truncation_n)
        assert rebuilt.coefficients == decomp.coefficients
        assert rebuilt.to_dict()["coefficients"] == decomp.to_dict()["coefficients"]

    def test_constant_potential_is_pure_energy_shift(self):
        u0 = 3.7e-25
        period = 1e-6
        potential = DriveWaveform.sampled([0.0, period], [u0, u0])
        decomp = floquet_decompose(potential, base_energy=1e-24, truncation_n=4)
        assert decomp.quasi_energy == pytest.approx(1e-24 + u0, rel=1e-12, abs=0.0)
        assert abs(decomp.amplitude(0)) == pytest.approx(1.0, abs=1e-12)
        assert decomp.residual < 1e-12

    def test_square_wave_matches_fft_oracle(self):
        # Zero-mean square wave sampled densely; the kinked phase makes the
        # strict default residual unreachable, so it is relaxed explicitly
        # and the coefficients are checked against the independent oracle.
        period = 1e-6
        omega = 2 * math.pi / period
        m = 512
        t = np.linspace(0.0, period, m + 1)
        u0 = 0.6 * HBAR * omega
        values = np.where((t % period) < 0.5 * period, u0, -u0)
        values[-1] = values[0]
        potential = DriveWaveform.sampled(t, values)
        decomp = floquet_decompose(potential, 0.0, truncation_n=320,
                                   residual_tol=0.02)

        grid = np.linspace(0.0, period, 16 * 4096 + 1)
        phase = (potential.antiderivative(grid) - potential.mean() * grid) / HBAR
        history = PhaseHistory(times=grid, phase=phase)
        oracle = fm_spectrum_via_fft(history, omega, 320)
        for n in range(-320, 321):
            assert decomp.amplitude(n) == pytest.approx(oracle.amplitude(n),
                                                        abs=1e-8)

    def test_truncation_cap_is_fixed_and_named(self):
        # a kinked phase never meets the default residual_tol, so both the
        # automatic and the explicit path end at the cap
        t = np.linspace(0.0, 1e-6, 513)
        values = np.where(t < 0.5e-6, 1.0, -1.0) * 0.6 * HBAR * 2 * math.pi / 1e-6
        values[-1] = values[0]
        potential = DriveWaveform.sampled(t, values)
        with pytest.raises(ValueError, match="at the truncation cap 4096"):
            floquet_decompose(potential, 0.0)
        with pytest.raises(ValueError, match="unreachable within the truncation cap 4096"):
            floquet_decompose(potential, 0.0, truncation_n=320)
        with pytest.raises(TypeError, match="n_max_cap"):
            floquet_decompose(potential, 0.0, n_max_cap=8192)

    def test_explicit_truncation_too_small_names_requirement(self):
        potential = DriveWaveform.sinusoid(6.0 * HBAR * self.OMEGA, self.OMEGA)
        with pytest.raises(ValueError, match="need truncation_n >="):
            floquet_decompose(potential, 0.0, truncation_n=4)

    def test_rejects_nonperiodic_samples(self):
        with pytest.raises(ValueError, match="first and last"):
            DriveWaveform.sampled([0.0, 0.5, 1.0], [0.0, 1.0, 0.3])

    def test_normalization_and_residual_invariants(self):
        rng = np.random.default_rng(7)
        period = 2e-6
        t = np.linspace(0.0, period, 257)
        base = sum(rng.normal() * np.cos(2 * math.pi * k * t / period + rng.normal())
                   for k in range(1, 5))
        values = 1e-28 * base
        values[-1] = values[0]
        potential = DriveWaveform.sampled(t, values)
        decomp = floquet_decompose(potential, 0.0)
        total = sum(abs(c) ** 2 for c in decomp.coefficients.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert decomp.residual < 1e-8

    def test_loose_residual_tol_loosens_the_norm_bound(self):
        # Parseval on the analysis grid: 1 - sum |c_n|^2 <= residual^2
        t = np.linspace(0.0, 10e-9, 5)
        u = 1e9 * PLANCK_H * np.array([0.0, 0.2, -0.1, 0.05, 0.0])
        decomp = floquet_decompose(DriveWaveform.sampled(t, u), 0.0, residual_tol=1e-3)
        deficit = 1.0 - sum(abs(c) ** 2 for c in decomp.coefficients.values())
        assert 1e-9 < deficit <= decomp.residual ** 2

    def test_norm_bound_is_max_of_1e9_and_residual_tol_squared(self):
        def decomposition(deficit, residual_tol):
            coeffs = {0: complex(math.sqrt(1.0 - deficit)), 1: 0j}
            return FloquetDecomposition(quasi_energy=0.0, omega=1.0, coefficients=coeffs,
                                        truncation_n=1, residual=0.0,
                                        residual_tol=residual_tol)

        decomposition(5e-7, 1e-3)
        with pytest.raises(ValueError, match=r"more than 1e-9$"):
            decomposition(5e-7, 1e-8)
        with pytest.raises(ValueError, match=r"more than residual_tol\^2=1e-06$"):
            decomposition(5e-6, 1e-3)


class TestFmSpectrumViaFft:
    OMEGA = 2 * math.pi * 5e5

    def test_zero_phase_concentrates_at_carrier(self):
        history = sin_phase_history(0.0, self.OMEGA)
        s = fm_spectrum_via_fft(history, self.OMEGA, 8)
        assert abs(s.amplitude(0)) == pytest.approx(1.0, abs=1e-12)
        assert all(abs(s.amplitude(n)) < 1e-12 for n in range(1, 9))

    def test_unit_depth_matches_bessel_to_1e10(self):
        history = sin_phase_history(1.0, self.OMEGA, samples_per_period=4096)
        s = fm_spectrum_via_fft(history, self.OMEGA, 21)
        for n in range(-21, 22):
            assert s.amplitude(n) == pytest.approx(bessel_j(n, 1.0), abs=1e-10)

    def test_two_tone_matches_convolution_oracle(self):
        # phi = a sin(wt) + b sin(2wt): c_n = sum_k J_k(b) J_{n-2k}(a).
        a, b = 1.0, 0.6
        m = 8192
        t = np.linspace(0.0, 2 * math.pi / self.OMEGA, m + 1)
        history = PhaseHistory(
            times=t, phase=a * np.sin(self.OMEGA * t) + b * np.sin(2 * self.OMEGA * t))
        s = fm_spectrum_via_fft(history, self.OMEGA, 30)

        def convolution(n):
            return sum(bessel_j(k, b) * bessel_j(n - 2 * k, a)
                       for k in range(-20, 21))

        for n in range(-15, 16):
            assert s.amplitude(n) == pytest.approx(convolution(n), abs=1e-10)

    def test_rejects_a_single_sample(self):
        # one sample has no step to take the grid spacing from
        with pytest.raises(ValueError, match="needs >= 2 samples"):
            fm_spectrum_via_fft(PhaseHistory(times=[0.0], phase=[0.0]), self.OMEGA, 0)

    def test_rejects_nonuniform_grid(self):
        t = np.linspace(0.0, 2 * math.pi / self.OMEGA, 4097)
        t[5] += 0.3 * (t[1] - t[0])  # still monotonic, no longer uniform
        with pytest.raises(ValueError, match="uniform"):
            fm_spectrum_via_fft(PhaseHistory(times=t, phase=np.zeros_like(t)),
                                self.OMEGA, 4)

    def test_rejects_fractional_period_count(self):
        t = np.linspace(0.0, 1.37 * 2 * math.pi / self.OMEGA, 4097)
        with pytest.raises(ValueError, match="integer number of periods"):
            fm_spectrum_via_fft(PhaseHistory(times=t, phase=np.zeros_like(t)),
                                self.OMEGA, 4)

    def test_rejects_undersampled_history(self):
        history = sin_phase_history(1.0, self.OMEGA, samples_per_period=64)
        with pytest.raises(ValueError, match="16\\*truncation_n"):
            fm_spectrum_via_fft(history, self.OMEGA, 32)

    def test_leakage_guard_via_normalization(self):
        # A linear (non-periodic) phase drifts energy off the harmonic bins;
        # the spectrum type's normalization invariant then rejects it.
        t = np.linspace(0.0, 2 * math.pi / self.OMEGA, 4097)
        history = PhaseHistory(times=t, phase=0.41 * self.OMEGA * t)
        with pytest.raises(ValueError, match="normalization"):
            fm_spectrum_via_fft(history, self.OMEGA, 8)


class TestSpectrumProperties:
    def test_parseval_across_operations(self):
        omega = 2 * math.pi * 1e6
        for alpha in (0.1, 1.0, 5.0, 10.0):
            jac = jacobi_anger_coeffs(alpha, default_truncation(alpha))
            fft = fm_spectrum_via_fft(sin_phase_history(alpha, omega),
                                      omega, default_truncation(alpha))
            for s in (jac, fft):
                total = sum(abs(c) ** 2 for c in s.coefficients.values())
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_pure_sine_symmetry(self):
        omega = 2 * math.pi * 1e6
        s = fm_spectrum_via_fft(sin_phase_history(2.0, omega), omega, 25)
        for n in range(0, 26):
            assert abs(s.amplitude(-n) - (-1.0) ** n * s.amplitude(n)) < 1e-10

    def test_oracle_equivalence_sample(self):
        omega = 2 * math.pi * 1e6
        alpha = 5.0
        n_max = math.ceil(alpha) + 20
        jac = jacobi_anger_coeffs(alpha, n_max)
        fft = fm_spectrum_via_fft(sin_phase_history(alpha, omega), omega, n_max)
        for n in range(-n_max, n_max + 1):
            assert abs(jac.amplitude(n) - fft.amplitude(n)) < 1e-8
