"""Value-type invariants and serialization round trips."""

import dataclasses
import json
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_ab.ab_phase import PhaseHistory
from scalar_ab.circuit import EomParams, PotentialLandscape, build_eom
from scalar_ab.core import (C_LIGHT, E_CHARGE, HBAR, PLANCK_H, CircuitParams, DriveWaveform,
                            MassShell, SidebandSpectrum, Trajectory, TwoLevelAtom,
                            _strictly_increasing)
from scalar_ab.spectral import quasi_energy_ladder

H, E = PLANCK_H, E_CHARGE


def make_circuit_params(**overrides):
    base = dict(c_sphere=5.6e-12, c_sigma=5.576481251856608e-14, c_gate=1e-15,
                c_prime=5.576481251856608e-14, inductance=1.6346151260646912e-7,
                e_josephson=25e9 * H, c_josephson=1e-14)
    base.update(overrides)
    return CircuitParams(**base)


class TestPhysicalConstants:
    def test_flux_quantum_recomputed_exactly(self):
        # the constants reproduce CODATA 2018's exact flux quantum h/2e
        assert PLANCK_H / (2.0 * E_CHARGE) == 2.0678338484619295e-15

    def test_flux_to_phase(self):
        # build_eom converts flux to phase with 2e/hbar = 2*pi/Phi_0; CODATA's
        # hbar has 10 digits, so the squared factors differ by 1.2e-9
        p = make_circuit_params()
        flux_to_phase = 2 * math.pi / 2.0678338484619295e-15
        assert build_eom(p, None).nonlinear_coeff == pytest.approx(
            flux_to_phase ** 2 * p.e_josephson / p.c_sigma, rel=2e-9, abs=0.0)


class TestCircuitParams:
    def test_e_charging_derived(self):
        # (2e/hbar)^2 * E_J / C_sigma is 2 * E_C * E_J / hbar^2 with the
        # Cooper-pair charging energy E_C = (2e)^2 / (2 * C_sigma)
        p = make_circuit_params()
        e_charging = (2 * E) ** 2 / (2 * p.c_sigma)
        assert build_eom(p, None).nonlinear_coeff == pytest.approx(
            2 * e_charging * p.e_josephson / HBAR ** 2, rel=1e-15, abs=0.0)

    def test_derives_energy_from_inductance_and_back(self):
        p = make_circuit_params()
        phi_sq = (HBAR / (2 * E)) ** 2
        assert p.e_inductive == phi_sq / p.inductance
        elements = {k: v for k, v in p.to_dict().items() if k != "inductance"}
        via_energy = CircuitParams.from_inductive_energy(p.e_inductive, **elements)
        assert via_energy.inductance == pytest.approx(p.inductance, rel=1e-15, abs=0.0)
        assert CircuitParams.from_inductive_energy(1e9 * H, **elements).inductance == (
            phi_sq / (1e9 * H))

    def test_stores_only_its_inputs(self):
        # e_inductive is derived; the junction inductance is not kept at all
        assert list(make_circuit_params().to_dict()) == [
            "c_sphere", "c_sigma", "c_gate", "c_prime", "inductance", "e_josephson",
            "c_josephson"]

    @pytest.mark.parametrize("missing", ["inductance", "e_josephson"])
    def test_inductance_and_e_josephson_are_required(self, missing):
        elements = make_circuit_params().to_dict()
        del elements[missing]
        with pytest.raises(TypeError, match=missing):
            CircuitParams(**elements)

    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError, match="c_sigma"):
            make_circuit_params(c_sigma=-1e-15)

    def test_rejects_c_sigma_below_junction(self):
        with pytest.raises(ValueError, match="c_sigma must be >= c_josephson"):
            make_circuit_params(c_josephson=1e-12)

    @pytest.mark.parametrize("overrides, message", [
        # a negative energy used to pass as "not given", i.e. E_J = 0
        ({"e_josephson": -25e9 * H}, "e_josephson must be non-negative"),
        ({"e_josephson": math.nan}, "e_josephson must be non-negative"),
        # 0.0 is an inductance, not "derive it from e_inductive"
        ({"inductance": 0.0}, "inductance must be strictly positive"),
        ({"inductance": -1e-9}, "inductance must be strictly positive"),
        # an infinite element used to surface later, as EomParams.nonlinear_coeff
        ({"inductance": math.inf}, "inductance must be strictly positive and finite"),
        ({"c_sigma": math.inf}, "c_sigma must be strictly positive and finite"),
        ({"e_josephson": math.inf}, "e_josephson must be non-negative and finite"),
        ({"c_josephson": math.inf}, "c_josephson must be non-negative and finite")])
    def test_rejects_negative_energy_or_reactance(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            make_circuit_params(**overrides)

    @pytest.mark.parametrize("e_inductive", [0.0, -1e9 * H, math.nan])
    def test_from_inductive_energy_rejects_a_non_positive_energy(self, e_inductive):
        elements = {k: v for k, v in make_circuit_params().to_dict().items()
                    if k != "inductance"}
        with pytest.raises(ValueError, match="e_inductive must be strictly positive"):
            CircuitParams.from_inductive_energy(e_inductive, **elements)

    def test_round_trip(self):
        p = make_circuit_params()
        again = CircuitParams(**json.loads(json.dumps(p.to_dict())))
        assert again == p


class TestDriveWaveform:
    def test_sinusoid_period(self):
        w = DriveWaveform.sinusoid(1e-6, 2 * math.pi * 150e6)
        assert w.period == 2 * math.pi / w.omega
        assert w.value(0.0) == pytest.approx(1e-6)

    def test_sampled_period_is_the_sample_span(self):
        w = DriveWaveform.sampled([0.5, 0.8, 2.5], [1.0, 3.0, 1.0])
        assert (w.period, w.omega) == (2.0, math.pi)

    @pytest.mark.parametrize("value", [
        DriveWaveform.sinusoid(1e-6, 2 * math.pi * 150e6),
        DriveWaveform.sampled([0.0, 0.3, 1.0], [0.2, 1.0, 0.2])])
    def test_period_is_derived_not_stored(self, value):
        assert "period" not in value.to_dict()
        with pytest.raises(TypeError, match="period"):
            DriveWaveform(**value.to_dict(), period=value.period)

    @pytest.mark.parametrize("make, message", [
        # an infinite omega gave period 0.0, and value() took % 0.0
        (lambda: DriveWaveform.sinusoid(1.0, math.inf), "omega must be finite"),
        (lambda: DriveWaveform.sinusoid(1.0, math.nan), "omega must be finite"),
        (lambda: DriveWaveform.sinusoid(math.nan, 1.0), "amplitude and phase0 must be finite"),
        (lambda: DriveWaveform.sinusoid(math.inf, 1.0), "amplitude and phase0 must be finite"),
        (lambda: DriveWaveform.sinusoid(1.0, 1.0, math.nan),
         "amplitude and phase0 must be finite"),
        (lambda: DriveWaveform.sampled([0.0, 0.5, 1.0], [0.0, math.nan, 0.0]),
         "samples must be finite")])
    def test_rejects_non_finite_inputs(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("unused", [{"amplitude": 7.0}, {"phase0": 1.0}])
    def test_sampled_rejects_an_amplitude_or_phase0(self, unused):
        # the samples are the values; both used to be stored and never read
        with pytest.raises(ValueError, match="sampled waveform takes no amplitude or phase0"):
            DriveWaveform(kind="sampled", omega=2 * math.pi,
                          samples=((0, 1), (0.5, 2), (1, 1)), **unused)

    def test_sampled_periodic_extension(self):
        t = np.linspace(0.0, 1.0, 9)
        v = np.sin(2 * math.pi * t) ** 2
        v[-1] = v[0]
        w = DriveWaveform.sampled(t, v)
        assert w.value(0.25) == pytest.approx(w.value(3.25), rel=1e-12, abs=0.0)

    def test_antiderivative_matches_dense_trapezoid(self):
        t = np.linspace(0.0, 2.0, 33)
        v = 1.0 + np.cos(math.pi * t)
        v[-1] = v[0]
        w = DriveWaveform.sampled(t, v)
        dense = np.linspace(0.0, 5.0, 20001)
        numeric = np.concatenate(
            [[0.0], np.cumsum(0.5 * (w.value(dense)[1:] + w.value(dense)[:-1])
                              * np.diff(dense))])
        assert np.max(np.abs(w.antiderivative(dense) - numeric)) < 1e-6

    def test_rejects_nonmonotonic_samples(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DriveWaveform.sampled([0.0, 0.5, 0.4, 1.0], [0.0, 1.0, 1.0, 0.0])

    def test_rejects_open_period(self):
        with pytest.raises(ValueError, match="first and last values"):
            DriveWaveform.sampled([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])

    def test_rejects_zero_omega(self):
        with pytest.raises(ValueError, match="omega"):
            DriveWaveform.sinusoid(1.0, 0.0)

    @pytest.mark.parametrize("times, values, counts", [
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0], "4 times and 3 values"),
        ([0.0, 1.0, 2.0], [0.0, 1.0, 1.0, 0.0], "3 times and 4 values")])
    def test_sampled_rejects_unequal_lengths(self, times, values, counts):
        # zip would otherwise keep the shorter list and change the period
        with pytest.raises(ValueError, match=counts):
            DriveWaveform.sampled(times, values)

    @pytest.mark.parametrize("times, values, message", [
        ([], [], r"needs >= 2 samples \(got 0\)"),
        ([0.0], [1.0], r"needs >= 2 samples \(got 1\)"),
        ([1.0, 1.0], [1.0, 1.0], r"span must be positive \(got 0.0\)"),
        ([1.0, 0.0], [1.0, 1.0], r"span must be positive \(got -1.0\)")])
    def test_sampled_rejects_too_few_samples_or_bad_period(self, times, values, message):
        # these used to end in an IndexError or a division by zero; the
        # period is the sample span
        with pytest.raises(ValueError, match=message):
            DriveWaveform.sampled(times, values)

    def test_round_trip(self):
        w = DriveWaveform.sampled([0.0, 0.3, 1.0], [0.2, 1.0, 0.2])
        again = DriveWaveform(**json.loads(json.dumps(w.to_dict())))
        assert again == w


class TestTrajectory:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(times=[0.0, 1.0], delta_phi=[0.0], delta_phi_dot=[0.0, 0.0])

    def test_rejects_nonmonotonic_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(times=[0.0, 1.0, 0.5], delta_phi=[0.0] * 3,
                       delta_phi_dot=[0.0] * 3)

    def test_arrays_immutable(self):
        traj = Trajectory(times=[0.0, 1.0], delta_phi=[0.0, 0.1],
                          delta_phi_dot=[0.0, 0.0])
        with pytest.raises(ValueError):
            traj.delta_phi[0] = 5.0

    def test_round_trip(self):
        traj = Trajectory(times=[0.0, 1e-9, 2e-9], delta_phi=[0.0, 0.1, -0.3],
                          delta_phi_dot=[0.0, 1e9, -2e9])
        again = Trajectory(**json.loads(json.dumps(traj.to_dict())))
        assert np.array_equal(again.times, traj.times)
        assert np.array_equal(again.delta_phi, traj.delta_phi)
        assert np.array_equal(again.delta_phi_dot, traj.delta_phi_dot)


class TestSidebandSpectrum:
    def test_energy_recomputed(self):
        # the level of sideband n is E + n*hbar*omega, from quasi_energy_ladder
        s = SidebandSpectrum(base_energy=1e-24, omega=2 * math.pi * 1e9,
                             coefficients={0: 1.0 + 0j}, truncation_n=0)
        assert quasi_energy_ladder(s.base_energy, s.omega, (3, 3)) == [
            (3, 1e-24 + 3 * (HBAR * s.omega))]

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalization"):
            SidebandSpectrum(base_energy=0.0, omega=1.0,
                             coefficients={0: 0.5 + 0j}, truncation_n=0)

    def test_rejects_out_of_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            SidebandSpectrum(base_energy=0.0, omega=1.0,
                             coefficients={5: 1.0 + 0j}, truncation_n=2)

    @pytest.mark.parametrize("keys", [range(-3, 4), range(2, 4), range(-3, -1), (-3, 0),
                                      (3,), (-3,)])
    def test_truncation_checks_both_end_keys(self, keys):
        # contiguous key runs are checked by their ends, others element-wise
        coeffs = {n: (1.0 if i == 0 else 0.0) + 0j for i, n in enumerate(keys)}
        kwargs = dict(base_energy=0.0, omega=1.0, coefficients=coeffs)
        with pytest.raises(ValueError, match="truncation"):
            SidebandSpectrum(truncation_n=2, **kwargs)
        assert SidebandSpectrum(truncation_n=3, **kwargs).coefficients == coeffs

    def test_norm_failure_names_its_bound(self):
        with pytest.raises(ValueError, match=r"= 0\.25 differs from 1 by more than "
                                             r"1e-9$"):
            SidebandSpectrum(base_energy=0.0, omega=1.0,
                             coefficients={0: 0.5 + 0j}, truncation_n=0)

    def test_round_trip(self):
        r = 1 / math.sqrt(2.0)
        s = SidebandSpectrum(base_energy=1e-25, omega=2 * math.pi * 1e6,
                             coefficients={-1: complex(r, 0), 1: complex(0, -r)},
                             truncation_n=1)
        # to_dict writes the output schema, so its keys are read back by name
        data = json.loads(json.dumps(s.to_dict()))
        again = SidebandSpectrum(
            base_energy=data["base_energy_J"], omega=data["omega_rad_per_s"],
            truncation_n=data["truncation_n"],
            coefficients={e["n"]: complex(e["re"], e["im"]) for e in data["coefficients"]})
        assert again == s

    def test_coefficients_are_a_read_only_mapping(self):
        r = 1 / math.sqrt(2.0)
        plain = {1: complex(0, -r), -1: complex(r, 0)}
        s = SidebandSpectrum(base_energy=0.0, omega=1.0, coefficients=plain,
                             truncation_n=3)
        c = s.coefficients
        assert isinstance(c, Mapping)
        assert c == plain and plain == c and dict(c) == plain
        assert c != {1: complex(0, -r)} and c != {1: complex(0, r), -1: complex(r, 0)}
        assert list(c) == [-1, 1] and len(c) == 2
        assert c[1] == plain[1] and type(c[1]) is complex
        assert 1 in c and 0 not in c and c.get(0) is None
        with pytest.raises(KeyError):
            c[0]
        with pytest.raises(TypeError):
            c[0] = 1.0
        assert s.amplitude(0) == 0j and s.amplitude(-1) == complex(r, 0)
        assert s.amplitude(1.0) == plain[1] and s.amplitude(0.5) == 0j

    def test_spectra_compare_by_value(self):
        r = 1 / math.sqrt(2.0)
        kwargs = dict(base_energy=0.0, omega=1.0, truncation_n=1)
        a = SidebandSpectrum(coefficients={-1: complex(r, 0), 1: complex(0, r)}, **kwargs)
        b = SidebandSpectrum(coefficients={1: complex(0, r), -1: complex(r, 0)}, **kwargs)
        c = SidebandSpectrum(coefficients={-1: complex(r, 0), 1: complex(r, 0)}, **kwargs)
        assert a == b and a.coefficients == b.coefficients
        assert a != c and a.coefficients != c.coefficients


class TestMassShell:
    def test_rejects_ac_exceeding_dc(self):
        with pytest.raises(ValueError, match=r"\|m1\| <= m0"):
            MassShell(m0=1.0, m1=2.0, radius=1.0, omega=1.0)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError, match="radius"):
            MassShell(m0=1.0, m1=0.0, radius=0.0, omega=1.0)

    @pytest.mark.parametrize("name, value", [
        ("omega", math.nan), ("omega", math.inf), ("m0", math.inf), ("m1", math.nan),
        ("radius", math.inf)])
    def test_rejects_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"MassShell.{name} must be finite"):
            MassShell(**dict(m0=1.0, m1=0.5, radius=1.0, omega=1.0) | {name: value})

    def test_round_trip(self):
        s = MassShell(m0=5.972e24, m1=1e10, radius=6.371e6, omega=2 * math.pi * 1e-3)
        assert MassShell(**json.loads(json.dumps(s.to_dict()))) == s


class TestTwoLevelAtom:
    def test_from_transition_consistent(self):
        atom = TwoLevelAtom.from_transition(1.44316060e-25, 1.589 * E)
        assert atom == TwoLevelAtom(rest_mass_i=1.44316060e-25, transition_energy=1.589 * E)
        assert atom.delta_m == atom.transition_energy / C_LIGHT ** 2
        assert atom.rest_mass_f == atom.rest_mass_i + atom.delta_m > atom.rest_mass_i

    def test_keeps_the_transition_energy_bit_for_bit(self):
        # It used to be stored as m*c^2 + dE and recovered by a subtraction
        # that was 1.9e-6 relative off for Rb-87.
        energy = 1.589 * E
        atom = TwoLevelAtom(rest_mass_i=1.44316060e-25, transition_energy=energy)
        assert atom.transition_energy.hex() == energy.hex()
        assert atom.to_dict() == {"rest_mass_i": 1.44316060e-25, "transition_energy": energy}

    def test_rejects_inverted_levels(self):
        for energy in (0.0, -1.589 * E, math.nan):
            with pytest.raises(ValueError, match="transition_energy must be strictly positive"):
                TwoLevelAtom(rest_mass_i=1.44316060e-25, transition_energy=energy)

    def test_rejects_nonpositive_rest_mass(self):
        for mass in (0.0, -1e-25, math.nan):
            with pytest.raises(ValueError, match="rest_mass_i must be strictly positive"):
                TwoLevelAtom(rest_mass_i=mass, transition_energy=1.589 * E)

    def test_round_trip(self):
        atom = TwoLevelAtom.from_transition(9.4526e-26, 14.4e3 * E)
        again = TwoLevelAtom(**json.loads(json.dumps(atom.to_dict())))
        assert again == atom


@settings(max_examples=50, deadline=None)
@given(m0=st.floats(1e3, 1e30), frac=st.floats(0.0, 1.0),
       radius=st.floats(1e-3, 1e12), omega=st.floats(1e-6, 1e12))
def test_mass_shell_round_trip_is_identity(m0, frac, radius, omega):
    shell = MassShell(m0=m0, m1=frac * m0, radius=radius, omega=omega)
    again = MassShell(**json.loads(json.dumps(shell.to_dict())))
    assert again == shell  # bit-exact: json floats round-trip via repr


@settings(max_examples=50, deadline=None)
@given(amplitude=st.floats(-1e3, 1e3), omega=st.floats(1e-3, 1e12),
       phase0=st.floats(-math.pi, math.pi))
def test_sinusoid_round_trip_is_identity(amplitude, omega, phase0):
    w = DriveWaveform.sinusoid(amplitude, omega, phase0)
    again = DriveWaveform(**json.loads(json.dumps(w.to_dict())))
    assert again == w


@pytest.mark.parametrize("value", [
    make_circuit_params(),
    DriveWaveform.sinusoid(-1e-6, 2 * math.pi * 150e6, 0.3),
    DriveWaveform.sampled(np.array([0.0, 0.3, 1.0]), [0.2, 1.0, 0.2]),
    Trajectory(times=[0.0, 1e-9], delta_phi=[0.0, 0.1], delta_phi_dot=[0.0, 1e8]),
    MassShell(m0=5.972e24, m1=-1e10, radius=6.371e6, omega=2 * math.pi * 1e-3),
    TwoLevelAtom.from_transition(1.44316060e-25, 1.589 * E),
    EomParams(omega_c=5e10, nonlinear_coeff=2e21, drive_coeff=1e19,
              drive_amplitude=-1e-6, drive_omega=2 * math.pi * 150e6),
    PotentialLandscape(phi_grid=[-1.0, 0.0, 1.0, 2.0], u_values=[1.0, 0.0, 1.0, 0.5],
                       minima=((0.0, 0.0), (2.0, 0.5)), barrier_heights=(0.5,)),
    PhaseHistory(times=[0.0, 1e-9, 3e-9], phase=[0.0, 0.7, -2.4]),
], ids=lambda value: type(value).__name__)
def test_to_dict_lists_every_field_and_from_dict_inverts_it(value):
    # each key is a field name, so the constructor is the inverse
    data = value.to_dict()
    assert list(data) == [f.name for f in dataclasses.fields(value)]
    text = json.dumps(data, sort_keys=True)
    again = type(value)(**json.loads(text))
    assert json.dumps(again.to_dict(), sort_keys=True) == text


class TestStrictlyIncreasing:
    @pytest.mark.parametrize("values", [
        [], [1.0], [0.0, 1.0, 2.0], [0.0, 0.0], [1.0, 0.0], [-0.0, 0.0], [0.0, -0.0],
        [-math.inf, 0.0, math.inf], [0.0, math.inf, math.inf], [-math.inf, -math.inf],
        [0.0, math.nan], [math.nan, 1.0], [math.nan], [0.0, 1.0, math.nan, 2.0],
        [5e-324, 1e-323], [1.0, np.nextafter(1.0, 2.0)], [1e308, math.inf]])
    def test_matches_diff_expression(self, values):
        a = np.asarray(values, dtype=float)
        with np.errstate(invalid="ignore"):
            expected = bool(np.all(np.diff(a) > 0.0))
        assert _strictly_increasing(a) is expected
