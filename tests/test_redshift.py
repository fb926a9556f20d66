"""Shell potential, mass-energy bookkeeping, redshift, FM sideband spectra,
and the charged-system cancellation check."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from scalar_ab.ab_phase import PhaseHistory, accumulate_grav_phase
from scalar_ab.core import (C_LIGHT, E_CHARGE, G_NEWTON, HBAR, PLANCK_H, MassShell,
                            SidebandSpectrum, TwoLevelAtom)
from scalar_ab.redshift import (TransitionSpectrum, exploding_shell_phase,
                                exploding_shell_potential, ion_cancellation_check,
                                modulation_indices, redshifted_frequency, sideband_record,
                                transition_sideband_spectrum)
from scalar_ab.spectral import fm_spectrum_via_fft, required_truncation

H, E, C, G = PLANCK_H, E_CHARGE, C_LIGHT, G_NEWTON

# Earth-like shell: Phi = -G*M/r evaluates to -6.2563e7 J/kg and a
# fractional redshift |Phi|/c^2 / (1 + |Phi|/c^2) of 6.9611e-10.
EARTH_MASS = 5.972e24
EARTH_RADIUS = 6.371e6
EARTH_POTENTIAL = -62563050.69847748
EARTH_FRACTIONAL_SHIFT = 6.961078181808973e-10


GOLDEN = Path(__file__).parent / "golden"


def earth_shell(m1=0.0, omega=2 * math.pi * 1e-3):
    return MassShell(m0=EARTH_MASS, m1=m1, radius=EARTH_RADIUS, omega=omega)


class TestShellPotential:
    def test_empty_shell_is_zero(self):
        assert exploding_shell_potential(0.0, lambda t: 1.0, [0.3]) == [(0.3, 0.0)]

    def test_earth_preset_value(self):
        [(_, potential)] = exploding_shell_potential(EARTH_MASS, lambda t: EARTH_RADIUS, [0.0])
        assert potential == pytest.approx(EARTH_POTENTIAL, rel=1e-12, abs=0.0)
        assert potential == pytest.approx(-6.26e7, rel=1e-3, abs=0.0)

    def test_half_period_flips_ac_sign(self):
        # The interior potential depends on M/r only, so a radius of
        # r0 / (1 + (m1/m0)*cos(omega*t)) gives the mass-modulated shell's
        # -G*(m0 + m1*cos(omega*t))/r0.
        shell = earth_shell(m1=1e20)
        t_half = math.pi / shell.omega
        samples = exploding_shell_potential(
            shell.m0, lambda t: shell.radius / (1 + shell.m1 / shell.m0 * math.cos(shell.omega * t)),
            [0.0, t_half])
        assert samples[0][1] == pytest.approx(-G * (shell.m0 + shell.m1) / shell.radius,
                                              rel=1e-9, abs=0.0)
        assert samples[1][1] == pytest.approx(-G * (shell.m0 - shell.m1) / shell.radius,
                                              rel=1e-9, abs=0.0)

    def test_vectorized_over_time(self):
        t = np.linspace(0.0, 1e3, 64)
        samples = exploding_shell_potential(EARTH_MASS, lambda t: EARTH_RADIUS + t, t)
        assert [time for time, _ in samples] == t.tolist()
        assert all(potential < 0.0 for _, potential in samples)

    def test_rejects_a_negative_mass(self):
        with pytest.raises(ValueError, match="mass must be non-negative"):
            exploding_shell_potential(-1.0, lambda t: 1.0, [0.0])

    def test_exploding_shell_samples(self):
        grid = np.linspace(0.0, 10.0, 11)
        samples = exploding_shell_potential(2.8e30, lambda t: 7e8 + 1e7 * t, grid)
        assert samples[0][1] == pytest.approx(-G * 2.8e30 / 7e8, rel=1e-12, abs=0.0)
        assert samples[-1][1] > samples[0][1]  # shallower as the shell expands
        history = accumulate_grav_phase([(0.0, 1e-25), (10.0, 1e-25)], samples, grid)
        assert history.phase[-1] < 0.0


class TestRestMassInPotential:
    """Mass-energy bookkeeping of a transition inside a potential: the rest
    mass difference is E/c^2, and a potential rescales its energy, and so
    its line, by 1/(1 - Phi/c^2)."""

    def test_zero_potential_is_einstein_relation(self):
        assert TwoLevelAtom(rest_mass_i=1.0, transition_energy=9e16).delta_m == 9e16 / C ** 2

    def test_negative_potential_rescales_like_redshift(self):
        # the carrier is the transition's E/h divided by 1 + |Phi|/c^2
        atom = TwoLevelAtom(rest_mass_i=1e-25, transition_energy=14.4e3 * E)
        base = atom.transition_energy / H
        inside = transition_sideband_spectrum(atom, earth_shell(),
                                              required_truncation(0.0)).carrier_frequency
        assert inside == pytest.approx(base / (1.0 - EARTH_POTENTIAL / C ** 2),
                                       rel=1e-15, abs=0.0)
        assert inside != base

    def test_zero_energy_zero_mass(self):
        # no transition energy carries no mass difference and no line to shift
        assert redshifted_frequency(0.0, EARTH_POTENTIAL) == 0.0

    def test_rejects_relativistic_potential(self):
        with pytest.raises(ValueError, match="weak-potential"):
            redshifted_frequency(1.0, -C ** 2)


class TestRedshiftedFrequency:
    @pytest.mark.parametrize("potential", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_potential(self, potential):
        with pytest.raises(ValueError, match="weak-potential"):
            redshifted_frequency(1e15, potential)

    def test_zero_potential_is_identity(self):
        assert redshifted_frequency(1e15, 0.0) == 1e15

    def test_earth_fractional_shift(self):
        f_local = 1e15
        f_far = redshifted_frequency(f_local, EARTH_POTENTIAL)
        assert f_far < f_local  # redshift for a negative potential
        shift = (f_local - f_far) / f_local
        assert shift == pytest.approx(EARTH_FRACTIONAL_SHIFT, rel=1e-6, abs=0.0)

    def test_small_potential_shift_is_linear(self):
        f_local = 1e15

        def shift(potential):
            return (f_local - redshifted_frequency(f_local, potential)) / f_local

        ratio = shift(2 * EARTH_POTENTIAL) / shift(EARTH_POTENTIAL)
        assert ratio == pytest.approx(2.0, rel=1e-3, abs=0.0)


class TestModulationIndices:
    def test_static_shell_gives_zero(self):
        atom = TwoLevelAtom.from_transition(1e-26, 1.0 * E)
        indices = modulation_indices(atom, earth_shell(m1=0.0))
        assert indices == (0.0, 0.0, 0.0)

    def test_degenerate_masses_still_split(self):
        # A transition too small to change the upper level's double-precision
        # rest mass: the splitting comes from delta_m itself, so it survives
        # although the two masses, and the two depths, are equal.
        atom = TwoLevelAtom(rest_mass_i=1e-25, transition_energy=1e-25)
        shell = earth_shell(m1=1e20)
        indices = modulation_indices(atom, shell)
        assert atom.rest_mass_f == atom.rest_mass_i
        assert indices.alpha_i == indices.alpha_f != 0.0
        scale = G * shell.m1 / (HBAR * shell.omega * shell.radius)
        assert indices.delta_alpha == scale * (1e-25 / C ** 2) != 0.0

    def test_two_path_evaluation_agrees(self):
        # 1 eV transition, M1 = 1 kg, r0 = 1 m, omega = 2*pi*1 Hz.
        atom = TwoLevelAtom.from_transition(1e-26, 1.0 * E)
        shell = MassShell(m0=2.0, m1=1.0, radius=1.0, omega=2 * math.pi)
        indices = modulation_indices(atom, shell)
        # delta_alpha is 1.8e-13 here: approx's default abs=1e-12 would pass anything
        delta_m = atom.transition_energy / C ** 2
        independent = G * shell.m1 * delta_m / (HBAR * shell.omega * shell.radius)
        assert indices.delta_alpha == pytest.approx(independent, rel=1e-9, abs=0.0)
        # alpha_f - alpha_i cancels ten digits (delta_m/m_i = 1.8e-10)
        assert indices.delta_alpha == pytest.approx(
            indices.alpha_f - indices.alpha_i, rel=1e-5, abs=0.0)

    def test_scaling_laws(self):
        atom = TwoLevelAtom.from_transition(1e-26, 2.0 * E)
        base = MassShell(m0=10.0, m1=1.0, radius=2.0, omega=4 * math.pi)
        d0 = modulation_indices(atom, base).delta_alpha
        for factor in (2.0, 5.0, 10.0):
            up_m1 = MassShell(m0=10.0, m1=factor * 1.0, radius=2.0, omega=4 * math.pi)
            assert modulation_indices(atom, up_m1).delta_alpha == pytest.approx(
                factor * d0, rel=1e-9, abs=0.0)
            up_omega = MassShell(m0=10.0, m1=1.0, radius=2.0,
                                 omega=factor * 4 * math.pi)
            assert modulation_indices(atom, up_omega).delta_alpha == pytest.approx(
                d0 / factor, rel=1e-9, abs=0.0)
            up_radius = MassShell(m0=10.0, m1=1.0, radius=factor * 2.0,
                                  omega=4 * math.pi)
            assert modulation_indices(atom, up_radius).delta_alpha == pytest.approx(
                d0 / factor, rel=1e-9, abs=0.0)


def synthetic_atom_and_shell(delta_alpha, m0=1e6):
    """Pick shell parameters that realize the requested splitting index."""
    atom = TwoLevelAtom(rest_mass_i=1e-11, transition_energy=1e-12 * C ** 2)
    omega = 2 * math.pi
    m1 = delta_alpha * HBAR * omega * 1.0 / (G * 1e-12)
    shell = MassShell(m0=max(m0, abs(m1)), m1=m1, radius=1.0, omega=omega)
    return atom, shell


class TestTransitionSidebandSpectrum:
    def test_unmodulated_shell_single_line(self):
        atom = TwoLevelAtom.from_transition(1.44316060e-25, 1.589 * E)
        spectrum = transition_sideband_spectrum(atom, earth_shell(m1=0.0), 12)
        assert spectrum.amplitude(0) == 1.0
        assert len(spectrum.lines_above(0.0)) == 1
        local = atom.transition_energy / H
        assert (local - spectrum.carrier_frequency) / local == pytest.approx(
            EARTH_FRACTIONAL_SHIFT, rel=1e-6, abs=0.0)

    def test_depth_five_splitting(self):
        atom, shell = synthetic_atom_and_shell(5.0)
        spectrum = transition_sideband_spectrum(atom, shell, 25)
        assert spectrum.delta_alpha == pytest.approx(5.0, rel=1e-9, abs=0.0)
        strong = spectrum.lines_above(0.01)
        assert len(strong) >= 9
        positive = {n: a for n, _, a in spectrum.sideband_lines if n > 0}
        assert max(positive, key=positive.get) in (4, 5)

    def test_amplitudes_match_fft_oracle(self):
        atom, shell = synthetic_atom_and_shell(5.0)
        spectrum = transition_sideband_spectrum(atom, shell, 25)
        omega = shell.omega
        m = 4096
        t = np.linspace(0.0, 2 * math.pi / omega, m + 1)
        history = PhaseHistory(times=t, phase=5.0 * np.sin(omega * t))
        oracle = fm_spectrum_via_fft(history, omega, 25)
        for n in range(-25, 26):
            assert spectrum.amplitude(n) == pytest.approx(abs(oracle.amplitude(n)),
                                                          abs=1e-8)

    def test_line_frequencies_follow_ladder(self):
        atom, shell = synthetic_atom_and_shell(1.0)
        spectrum = transition_sideband_spectrum(atom, shell, 15)
        spacing = shell.omega / (2 * math.pi)
        for n, freq, _ in spectrum.sideband_lines:
            assert freq == pytest.approx(spectrum.carrier_frequency + n * spacing,
                                         rel=1e-12, abs=0.0)

    def test_rejects_small_truncation(self):
        atom, shell = synthetic_atom_and_shell(8.0)
        with pytest.raises(ValueError, match="need >="):
            transition_sideband_spectrum(atom, shell, 5)

    def test_normalization(self):
        for depth in (0.2, 1.7, 6.3):
            atom, shell = synthetic_atom_and_shell(depth)
            spectrum = transition_sideband_spectrum(atom, shell, 40)
            total = sum(a ** 2 for _, _, a in spectrum.sideband_lines)
            assert total == pytest.approx(1.0, abs=1e-9)


def scan_amplitude(lines, n):
    """The linear scan that line lookup replaced: first match, else 0."""
    for m, _, a in lines:
        if m == n:
            return a
    return 0.0


class TestLineStorage:
    def test_every_lookup_on_a_20181_line_spectrum(self):
        atom, shell = synthetic_atom_and_shell(1e4)
        n_max = required_truncation(modulation_indices(atom, shell).delta_alpha)
        spectrum = transition_sideband_spectrum(atom, shell, n_max)
        lines = list(spectrum.sideband_lines)
        assert len(lines) == 2 * n_max + 1 == 20181
        assert [spectrum.amplitude(n) for n, _, _ in lines] == [a for _, _, a in lines]
        for n in (-n_max - 1, n_max + 1, 10 ** 30, -10 ** 30, 0.5, math.inf, math.nan):
            assert spectrum.amplitude(n) == 0.0
        assert spectrum.amplitude(np.int64(7)) == spectrum.amplitude(7.0) == lines[n_max + 7][2]

    def test_amplitude_is_the_line_amplitude_for_every_n(self):
        for spectrum in (transition_sideband_spectrum(*rb87_in_earth_shell(), 21),
                         transition_sideband_spectrum(*synthetic_atom_and_shell(-5.0), 25)):
            amplitude = {n: a for n, _, a in spectrum.sideband_lines}
            assert amplitude == {n: abs(c) for n, c in spectrum.spectrum.coefficients.items()}
            n_max = spectrum.spectrum.truncation_n
            for n in range(-n_max - 3, n_max + 4):
                assert spectrum.amplitude(n) == amplitude.get(n, 0.0)

    def test_sparse_spectrum_looks_up_like_the_scan(self):
        sparse = SidebandSpectrum(base_energy=0.0, omega=2 * math.pi, truncation_n=3,
                                  coefficients={2: 0.6 + 0j, -1: 0j, 0: 0j, -3: 0.8j})
        spectrum = TransitionSpectrum(carrier_frequency=100.0, delta_alpha=1.0,
                                      spectrum=sparse)
        lines = [(-3, 97.0, 0.8), (-1, 99.0, 0.0), (0, 100.0, 0.0), (2, 102.0, 0.6)]
        assert spectrum.sideband_lines == lines
        for n in range(-5, 6):
            assert spectrum.amplitude(n) == scan_amplitude(lines, n)
        assert spectrum.lines_above(0.5) == [lines[0], lines[3]]
        dumped = [(e["n"], e["offset_Hz"], e["frequency_Hz"], e["relative_amplitude"])
                  for e in spectrum.to_dict()["sideband_lines"]]
        assert dumped == [(n, float(n), f, a) for n, f, a in lines]

    def test_spectra_compare_by_value(self):
        atom, shell = synthetic_atom_and_shell(5.0)
        a = transition_sideband_spectrum(atom, shell, 25)
        assert a == transition_sideband_spectrum(atom, shell, 25)
        copy = SidebandSpectrum(base_energy=0.0, omega=a.omega, truncation_n=25,
                                coefficients=dict(a.spectrum.coefficients))
        assert a == TransitionSpectrum(carrier_frequency=a.carrier_frequency,
                                       delta_alpha=a.delta_alpha, spectrum=copy)
        assert a != transition_sideband_spectrum(atom, shell, 26)

    def test_depth_cap_rejected_before_allocation(self):
        atom, shell = synthetic_atom_and_shell(2e6, m0=1e12)
        with pytest.raises(ValueError, match=r"\|delta_alpha\| must be < 1e\+06"):
            transition_sideband_spectrum(atom, shell, 10)


class TestIonCancellation:
    def test_arbitrary_phase_returns_base_rate(self):
        t = np.linspace(0.0, 1.0, 257)
        history = PhaseHistory(times=t, phase=3.7 * np.sin(2 * math.pi * t))
        assert ion_cancellation_check(history, 0.42) == 0.42

    def test_zero_phase(self):
        history = PhaseHistory(times=[0.0, 1.0], phase=[0.0, 0.0])
        assert ion_cancellation_check(history, 0.9) == 0.9

    def test_megaradian_phase_within_one_ulp(self):
        t = np.linspace(0.0, 1.0, 4097)
        history = PhaseHistory(times=t, phase=1e6 * np.sin(2 * math.pi * 5 * t))
        rate = ion_cancellation_check(history, 0.42)
        assert abs(rate - 0.42) <= np.spacing(0.42)

    def test_separate_factor_route_agrees(self):
        # The naive product exp(+i phi) * A * exp(-i phi) carries a few ulps
        # of rounding; it must agree with the exact-cancellation route.
        t = np.linspace(0.0, 1.0, 513)
        phi = 1e5 * np.sin(2 * math.pi * 3 * t)
        history = PhaseHistory(times=t, phase=phi)
        rate = ion_cancellation_check(history, 0.73)
        amplitude = math.sqrt(0.73)
        naive = np.abs(np.exp(1j * phi) * amplitude * np.exp(-1j * phi)) ** 2
        assert np.max(np.abs(naive - rate)) < 1e-14

    def test_rate_never_varies_with_phase(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 1.0, 129)
        for _ in range(25):
            phase = rng.normal(scale=10.0 ** rng.integers(0, 7), size=t.size)
            phase[0] = 0.0
            history = PhaseHistory(times=t, phase=phase)
            assert ion_cancellation_check(history, 0.31) == 0.31


class TestMassEnergyConsistencyChain:
    def test_delta_alpha_via_masses_equals_via_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m_i = 10.0 ** rng.uniform(-27, -20)
            delta_m = m_i * 10.0 ** rng.uniform(-2, -0.3)
            atom = TwoLevelAtom(rest_mass_i=m_i, transition_energy=delta_m * C ** 2)
            shell = MassShell(m0=10.0 ** rng.uniform(5, 25),
                              m1=0.0, radius=10.0 ** rng.uniform(0, 8),
                              omega=10.0 ** rng.uniform(-3, 6))
            shell = MassShell(m0=shell.m0, m1=0.37 * shell.m0,
                              radius=shell.radius, omega=shell.omega)
            indices = modulation_indices(atom, shell)
            via_energy = (G * shell.m1 * (atom.transition_energy / C ** 2)
                          / (HBAR * shell.omega * shell.radius))
            assert indices.delta_alpha == pytest.approx(via_energy, rel=1e-12, abs=0.0)
            # the level depths, from the two rest masses, agree with it
            assert indices.alpha_f - indices.alpha_i == pytest.approx(via_energy, rel=1e-12,
                                                                      abs=0.0)


# The earth-shell preset: a 1e10 kg AC mass on the Earth shell, and the
# Rb-87 D2 line (lower-level rest mass 1.44316060e-25 kg, 1.589 eV).
def rb87_in_earth_shell():
    atom = TwoLevelAtom.from_transition(rest_mass_i=1.44316060e-25, transition_energy=1.589 * E)
    return atom, earth_shell(m1=1e10)


class TestSidebandRecord:
    def test_matches_the_earth_shell_golden(self):
        record = sideband_record(*rb87_in_earth_shell())
        golden = json.loads((GOLDEN / "earth-shell.json").read_text())
        assert json.loads(json.dumps(record)) == golden

    def test_is_the_spectrum_plus_the_level_depths_and_the_shift(self):
        atom, shell = rb87_in_earth_shell()
        record = sideband_record(atom, shell, truncation_n=30)
        spectrum = transition_sideband_spectrum(atom, shell, 30)
        indices = modulation_indices(atom, shell)
        assert len(record["sideband_lines"]) == 61
        assert record == {**spectrum.to_dict(), "alpha_i": indices.alpha_i,
                          "alpha_f": indices.alpha_f,
                          "carrier_fractional_shift": record["carrier_fractional_shift"]}
        # the shift is (f_local - carrier)/f_local, which cancels nine digits
        local = atom.transition_energy / H
        assert record["carrier_fractional_shift"] == pytest.approx(
            (local - spectrum.carrier_frequency) / local, rel=1e-6, abs=0.0)

    def test_fractional_shift_near_the_closed_form(self):
        # It used to be (f_local - carrier)/f_local, which read 2.9e-8
        # relative above |Phi|/c^2 / (1 + |Phi|/c^2).
        record = sideband_record(*rb87_in_earth_shell())
        # (approx's default abs=1e-12 would pass any value this small)
        assert record["carrier_fractional_shift"] == pytest.approx(EARTH_FRACTIONAL_SHIFT,
                                                                   rel=1e-15, abs=0.0)

    def test_earth_shell_numbers_match_the_closed_forms(self):
        # From the inputs alone; the atom used to recover its transition
        # energy by a subtraction that put the carrier 1.9e-6 and delta_alpha
        # 2.4e-6 relative off.
        atom, shell = rb87_in_earth_shell()
        record = sideband_record(atom, shell)
        energy = 1.589 * E
        x = G * EARTH_MASS / (EARTH_RADIUS * C ** 2)
        scale = G * shell.m1 / (HBAR * shell.omega * EARTH_RADIUS)
        want = {"carrier_frequency_Hz": energy / H / (1.0 + x),
                "delta_alpha": scale * energy / C ** 2,
                "carrier_fractional_shift": x / (1.0 + x)}
        for name, value in want.items():
            assert abs(record[name] - value) <= 1e-15 * value, name

    def test_delta_alpha_matches_mpmath(self):
        import mpmath

        atom, shell = rb87_in_earth_shell()
        with mpmath.workdps(40):
            mp = mpmath.mpf
            want = (mp(G) * mp(shell.m1) * mp(atom.transition_energy) / mp(C) ** 2
                    / (mp(HBAR) * mp(shell.omega) * mp(shell.radius)))
            got = modulation_indices(atom, shell).delta_alpha
            assert abs(mp(got) - want) <= mp(1e-12) * want

    def test_earth_shell_offsets_are_distinct_and_exact(self):
        # The carrier's float64 spacing is 0.0625 Hz, so the 1 mHz sidebands
        # share one frequency_Hz; their offsets from the carrier do not.
        record = sideband_record(*rb87_in_earth_shell())
        lines, omega = record["sideband_lines"], record["omega_rad_per_s"]
        assert len(lines) == 43
        assert len({line["offset_Hz"] for line in lines}) == 43
        assert len({line["frequency_Hz"] for line in lines}) == 1
        for line in lines:
            assert line["offset_Hz"] == line["n"] * omega / (2 * math.pi)
            assert line["frequency_Hz"] == record["carrier_frequency_Hz"] + line["offset_Hz"]

    def test_automatic_truncation_is_the_default_one(self):
        atom, shell = rb87_in_earth_shell()
        automatic = sideband_record(atom, shell)
        assert len(automatic["sideband_lines"]) == 43  # default_truncation: 21
        assert automatic == sideband_record(atom, shell, truncation_n=21)


class TestExplodingShellPhase:
    def test_matches_the_supernova_shell_golden(self):
        # 2.8e30 kg shell from 7e8 m at 1e7 m/s around one Fe-57 atom, 100 s
        history = exploding_shell_phase(2.8e30, 7.0e8, 1.0e7, 9.4526e-26,
                                        np.linspace(0.0, 100.0, 2001))
        want = np.loadtxt(GOLDEN / "supernova-shell.csv", delimiter=",", skiprows=1)
        assert np.array_equal(history.times, want[:, 0])
        np.testing.assert_allclose(history.phase, want[:, 1], rtol=1e-15, atol=0.0)

    def test_is_the_constant_mass_phase_of_the_sampled_potential(self):
        grid = np.linspace(0.0, 10.0, 101)
        potential = exploding_shell_potential(2.8e30, lambda t: 7e8 + 1e7 * t, grid)
        want = accumulate_grav_phase([(0.0, 1e-25), (10.0, 1e-25)], potential, grid)
        got = exploding_shell_phase(2.8e30, 7e8, 1e7, 1e-25, grid)
        assert np.array_equal(got.phase, want.phase)

    def test_close_to_the_logarithm(self):
        # (m/hbar) * integral of -G*M/(r0 + v*t) is -G*M*m*ln(1 + v*t/r0)/(hbar*v);
        # the linear interpolant of the potential reads 8.5e-8 relative off it.
        grid = np.linspace(0.0, 100.0, 2001)
        got = exploding_shell_phase(2.8e30, 7e8, 1e7, 1e-25, grid)
        exact = -G * 2.8e30 * 1e-25 * np.log1p(1e7 * grid / 7e8) / (HBAR * 1e7)
        np.testing.assert_allclose(got.phase[1:], exact[1:], rtol=1e-6)

    def test_shrinking_through_zero_radius_is_rejected(self):
        with pytest.raises(ValueError, match="radius must stay strictly positive"):
            exploding_shell_phase(2.8e30, 1.0, -1.0, 1e-25, np.linspace(0.0, 2.0, 5))
