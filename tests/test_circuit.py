"""Equation-of-motion assembly, trajectory integration and potential
landscape mapping."""

import csv
import dataclasses
import importlib.machinery
import math
import os
import warnings

import numpy as np
import pytest
import scipy
from scipy.integrate import ode
from scipy.optimize import brentq

import oracles
from scalar_ab import circuit
from scalar_ab.circuit import (DriveEnvelope, EomParams, IntegrationError,
                               PotentialLandscape, StepControl, build_eom,
                               integrate_trajectory, potential_landscape,
                               specific_energy)
from scalar_ab.core import E_CHARGE, HBAR, PLANCK_H, CircuitParams, DriveWaveform

H, E = PLANCK_H, E_CHARGE

# One consistent element choice reproducing an 8.5 GHz small-oscillation
# frequency with E_J = 25 GHz*h and E_L = 1 GHz*h (C' = C_sigma).
FIG3 = dict(c_sphere=5.6e-12, c_sigma=5.576481251856608e-14, c_gate=1e-15,
            c_prime=5.576481251856608e-14, inductance=1.6346151260646912e-7,
            e_josephson=25e9 * H, c_josephson=1e-14)
OMEGA_DRIVE = 2 * math.pi * 150e6
# fig3's inductive energy (hbar/2e)^2 / L, about 1 GHz*h.
FIG3_E_L = (HBAR / (2 * E)) ** 2 / FIG3["inductance"]


def fig3_params(**overrides):
    values = dict(FIG3)
    values.update(overrides)
    return CircuitParams(**values)


class TestBuildEom:
    def test_pure_lc_limit(self):
        eom = build_eom(fig3_params(e_josephson=0.0), None)
        assert eom.nonlinear_coeff == 0.0
        assert eom.drive_coeff == 0.0
        assert eom.omega_c == pytest.approx(
            1.0 / math.sqrt(FIG3["inductance"] * FIG3["c_prime"]), rel=1e-15, abs=0.0)

    def test_fig3_small_oscillation_frequency(self):
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        eom = build_eom(fig3_params(), drive)
        assert eom.small_oscillation_frequency == pytest.approx(
            2 * math.pi * 8.5e9, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name, value, message", [
        ("omega_c", math.inf, "omega_c must be finite and non-negative"),
        ("nonlinear_coeff", math.nan, "nonlinear_coeff must be finite and non-negative"),
        ("drive_coeff", -1.0, "drive_coeff must be finite and non-negative"),
        ("drive_omega", math.inf, "drive_omega must be finite and non-negative"),
        ("drive_amplitude", math.nan, "drive_amplitude must be finite")])
    def test_eom_params_reject_a_bad_coefficient(self, name, value, message):
        fields = dict(omega_c=1e10, nonlinear_coeff=2e21, drive_coeff=1e19)
        with pytest.raises(ValueError, match=message):
            EomParams(**(fields | {name: value}))

    def test_zero_amplitude_drive_drops_out(self):
        drive = DriveWaveform.sinusoid(0.0, OMEGA_DRIVE)
        eom = build_eom(fig3_params(), drive)
        assert eom.drive_coeff == 0.0

    def test_drive_coeff_scaling(self):
        # (2e/hbar) * C_g * omega / C_sigma, in s^-2 per volt
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        eom = build_eom(fig3_params(), drive)
        expected = (2 * E / HBAR) * FIG3["c_gate"] * OMEGA_DRIVE / FIG3["c_sigma"]
        assert eom.drive_coeff == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_rejects_sampled_drive_with_guidance(self):
        sampled = DriveWaveform.sampled([0.0, 1e-8], [0.0, 0.0])
        with pytest.raises(ValueError, match="sinusoid drives only"):
            build_eom(fig3_params(), sampled)


class TestDriveEnvelope:
    @pytest.mark.parametrize("ramp", [0.0, 1e-9])
    def test_accepts_a_non_negative_ramp(self, ramp):
        assert DriveEnvelope(t_on=1e-9, t_off=2e-9, ramp_duration=ramp).ramp_duration == ramp

    @pytest.mark.parametrize("ramp", [-1e-9, -0.0 - 5e-324, math.nan, None])
    def test_rejects_a_negative_or_none_ramp(self, ramp):
        # a negative ramp used to run as an instant switch, and None as a
        # ramp of 5 drive periods
        with pytest.raises(ValueError, match="ramp_duration must be a non-negative finite"):
            DriveEnvelope(t_off=12e-9, ramp_duration=ramp)

    def test_ramp_is_required_and_keyword_only(self):
        with pytest.raises(TypeError, match="ramp_duration"):
            DriveEnvelope(t_off=12e-9)
        with pytest.raises(TypeError):
            DriveEnvelope(0.0, 12e-9, 0.0)

    @pytest.mark.parametrize("t_on, t_off", [(0.0, 0.0), (8e-9, 5e-9), (0.0, -1e-9)])
    def test_rejects_t_off_not_later_than_t_on(self, t_on, t_off):
        with pytest.raises(ValueError, match="t_off must be later than t_on"):
            DriveEnvelope(t_on=t_on, t_off=t_off, ramp_duration=0.0)

    def test_t_on_alone_is_valid(self):
        assert DriveEnvelope(t_on=5e-9, ramp_duration=0.0).t_off is None

    @pytest.mark.parametrize("kwargs, message", [
        # a NaN t_on compared false everywhere, so the drive was always on
        ({"t_on": math.nan}, "t_on must be finite"),
        ({"t_on": -math.inf, "t_off": 1e-9}, "t_on must be finite"),
        ({"t_off": math.inf}, "t_off must be None or finite"),
        ({"t_off": 1e-9, "ramp_duration": math.inf}, "ramp_duration must be a non-negative finite")])
    def test_rejects_non_finite_times(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            DriveEnvelope(**({"ramp_duration": 0.0} | kwargs))


class TestStepControl:
    def test_holds_only_the_two_tolerances(self):
        assert [f.name for f in dataclasses.fields(StepControl)] == ["rel_tol", "abs_tol"]
        assert (StepControl().rel_tol, StepControl().abs_tol) == (1e-10, 1e-12)

    @pytest.mark.parametrize("knob", ["method", "max_step", "fixed_step"])
    def test_removed_integrator_knobs_are_rejected(self, knob):
        # DOP853 is the only integrator, so nothing selects or bounds a step
        with pytest.raises(TypeError, match=knob):
            StepControl(**{knob: 1e-12})

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"rel_tol": -1e-10}, {"rel_tol": math.nan},
        {"abs_tol": 0.0}, {"abs_tol": math.nan}])
    def test_rejects_a_non_positive_tolerance(self, kwargs):
        with pytest.raises(ValueError,
                           match="StepControl tolerances must be positive and finite"):
            StepControl(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": math.inf}, {"abs_tol": math.inf},
        {"rel_tol": math.inf, "abs_tol": math.inf}])
    def test_rejects_a_non_finite_tolerance(self, kwargs):
        # with an infinite tolerance every step passes, and the trajectory is wrong
        with pytest.raises(ValueError,
                           match="StepControl tolerances must be positive and finite"):
            StepControl(**kwargs)


class TestIntegrateTrajectory:
    def test_harmonic_solution(self):
        eom = build_eom(fig3_params(e_josephson=0.0), None)
        period = 2 * math.pi / eom.omega_c
        traj = integrate_trajectory(eom, 0.1, 0.0, (0.0, 10 * period),
                                    n_samples=501)
        expected = 0.1 * np.cos(eom.omega_c * traj.times)
        assert np.max(np.abs(traj.delta_phi - expected)) < 1e-9

    def test_backward_harmonic_solution(self):
        eom = build_eom(fig3_params(e_josephson=0.0), None)
        w = eom.omega_c
        t_end = 10 * 2 * math.pi / w
        traj = integrate_trajectory(eom, 0.1 * math.cos(w * t_end),
                                    -0.1 * w * math.sin(w * t_end), (t_end, 0.0),
                                    n_samples=501)
        assert traj.times[0] == 0.0 and traj.times[-1] == t_end
        expected = 0.1 * np.cos(w * traj.times)
        assert np.max(np.abs(traj.delta_phi - expected)) < 1e-8

    def test_negative_drive_mirrors_positive_drive(self):
        # U(phi) is even, so flipping the drive's sign mirrors the trajectory.
        runs = []
        for amplitude in (1e-6, -1e-6):
            eom = build_eom(fig3_params(), DriveWaveform.sinusoid(amplitude, OMEGA_DRIVE))
            runs.append(integrate_trajectory(eom, 0.0, 0.0, (0.0, 6e-9),
                                             n_samples=601))
        plus, minus = runs
        assert np.max(np.abs(plus.delta_phi)) > 0.0
        assert np.array_equal(minus.delta_phi, -plus.delta_phi)
        assert np.array_equal(minus.delta_phi_dot, -plus.delta_phi_dot)

    def test_solver_return_code_failure_raises(self):
        # At t ~ 1e10 s the needed steps fall below the spacing of doubles.
        eom = build_eom(fig3_params(), None)
        with pytest.raises(IntegrationError, match="return code -3"):
            integrate_trajectory(eom, 0.1, 0.0, (1e10, 1e10 + 1e-6), n_samples=11)

    @pytest.mark.parametrize("phi0", [math.inf, math.nan])
    def test_non_finite_state_raises(self, phi0):
        # sin(inf) is a math domain error inside the right-hand side.
        eom = build_eom(fig3_params(), None)
        with pytest.raises(IntegrationError):
            integrate_trajectory(eom, phi0, 0.0, (0.0, 1e-9), n_samples=11)

    @pytest.mark.parametrize("phidot0", [math.inf, math.nan])
    def test_non_finite_rate_raises(self, phidot0):
        eom = build_eom(fig3_params(), None)
        with pytest.raises(IntegrationError):
            integrate_trajectory(eom, 0.1, phidot0, (0.0, 1e-9), n_samples=11)

    def test_fixed_point_stays_put(self):
        eom = build_eom(fig3_params(), None)
        period = 2 * math.pi / eom.small_oscillation_frequency
        traj = integrate_trajectory(eom, 0.0, 0.0, (0.0, 20 * period))
        assert np.max(np.abs(traj.delta_phi)) == 0.0
        assert np.max(np.abs(traj.delta_phi_dot)) == 0.0

    def test_driven_then_released_keeps_oscillating(self):
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        eom = build_eom(fig3_params(), drive)
        envelope = DriveEnvelope(t_off=12e-9, ramp_duration=0.0)
        traj = integrate_trajectory(eom, 0.0, 0.0, (0.0, 20e-9),
                                    envelope=envelope, n_samples=2001)
        post = traj.times >= 12e-9
        assert np.max(np.abs(traj.delta_phi)) < 0.1  # bounded, far from 2*pi
        threshold = 10 * 1e-12  # 10x the default absolute tolerance
        assert np.mean(np.abs(traj.delta_phi[post]) > threshold) >= 0.9

    def test_post_drive_energy_is_conserved(self):
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        eom = build_eom(fig3_params(), drive)
        envelope = DriveEnvelope(t_off=10e-9, ramp_duration=0.0)
        # abs_tol tightened because the released oscillation is ~1e-5 rad
        traj = integrate_trajectory(eom, 0.0, 0.0, (0.0, 30e-9),
                                    StepControl(abs_tol=1e-14),
                                    envelope=envelope, n_samples=3001)
        post = traj.times >= 10e-9
        energies = specific_energy(eom, traj.delta_phi[post],
                                   traj.delta_phi_dot[post])
        drift = np.max(np.abs(energies - energies[0])) / energies[0]
        assert drift < 1e-6

    def test_short_energy_drift(self):
        eom = build_eom(fig3_params(), None)
        period = 2 * math.pi / eom.omega_c
        traj = integrate_trajectory(eom, 1.0, 0.0, (0.0, 100 * period),
                                    n_samples=1001)
        energies = specific_energy(eom, traj.delta_phi, traj.delta_phi_dot)
        assert np.max(np.abs(energies - energies[0])) / energies[0] < 1e-8

    def test_time_reversal_returns_to_start(self):
        eom = build_eom(fig3_params(), None)
        period = 2 * math.pi / eom.omega_c
        control = StepControl()
        forward = integrate_trajectory(eom, 1.0, 0.0, (0.0, 5 * period),
                                       control, n_samples=11)
        back = integrate_trajectory(eom, forward.delta_phi[-1],
                                    forward.delta_phi_dot[-1],
                                    (5 * period, 0.0), control, n_samples=11)
        tolerance = 10 * (control.rel_tol * 1.0 + control.abs_tol)
        assert abs(back.delta_phi[0] - 1.0) < tolerance
        assert (abs(back.delta_phi_dot[0])
                / eom.small_oscillation_frequency) < tolerance

    def test_small_drive_response_is_linear(self):
        params = fig3_params()
        ratios = []
        for scale in (1.0, 0.1):
            drive = DriveWaveform.sinusoid(scale * 1e-6, OMEGA_DRIVE)
            eom = build_eom(params, drive)
            traj = integrate_trajectory(eom, 0.0, 0.0, (0.0, 20e-9),
                                        n_samples=2001)
            ratios.append(np.max(np.abs(traj.delta_phi)) / scale)
        assert ratios[0] == pytest.approx(ratios[1], rel=0.01, abs=0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_guard_raises(self):
        eom = build_eom(fig3_params(), None)
        with pytest.raises(IntegrationError):
            integrate_trajectory(eom, 1e308, 0.0, (0.0, 1e-9), n_samples=11)

    def test_csv_export_schema(self, tmp_path):
        eom = build_eom(fig3_params(e_josephson=0.0), None)
        period = 2 * math.pi / eom.omega_c
        traj = integrate_trajectory(eom, 0.1, 0.0, (0.0, period), n_samples=16)
        path = tmp_path / "traj.csv"
        traj.to_csv(str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_seconds", "delta_phi_rad", "delta_phi_dot_rad_per_s"]
        values = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.array_equal(values[:, 0], traj.times)  # 17g round-trips exactly
        assert np.array_equal(values[:, 1], traj.delta_phi)
        assert np.array_equal(values[:, 2], traj.delta_phi_dot)


class TestCompiledCodes:
    """integrate_trajectory calls scipy's compiled DOP853 extension directly;
    scipy.integrate.ode running the same code is the oracle."""

    @staticmethod
    def ode_oracle(eom, phi0, phidot0, t_span, control, envelope, n_samples,
                   rhs_factory=lambda *args: circuit._rhs_factory(*args)[2]):
        """Runs the whole-span right-hand side unless given another."""
        t0, t1 = t_span
        w = max(eom.small_oscillation_frequency, eom.drive_omega, 1.0 / abs(t1 - t0))
        solver = ode(rhs_factory(eom, envelope, w)).set_integrator(
            "dop853", rtol=control.rel_tol, atol=control.abs_tol, nsteps=2 ** 31 - 1)
        solver.set_initial_value([phi0, phidot0 / w], t0)
        y = np.empty((2, n_samples))
        y[:, 0] = phi0, phidot0
        for i, t in enumerate(np.linspace(t0, t1, n_samples)[1:], start=1):
            y[:, i] = solver.integrate(t)
            assert solver.successful()
        y[1, 1:] *= w
        return y[:, ::-1] if t1 < t0 else y

    @pytest.mark.parametrize("case", ["driven", "backward"])
    def test_bit_identical_to_scipy_ode(self, case):
        envelope = None
        t_span = (0.0, 6e-9)
        control = StepControl()
        if case == "driven":
            eom = build_eom(fig3_params(), DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE))
            envelope = DriveEnvelope(t_off=4e-9, ramp_duration=1e-9)
            phi0, phidot0 = 0.0, 0.0
        else:
            eom = build_eom(fig3_params(), None)
            phi0, phidot0 = 0.4, -3e9
            t_span = (6e-9, 0.0)
        traj = integrate_trajectory(eom, phi0, phidot0, t_span, control,
                                    envelope=envelope, n_samples=301)
        oracle = self.ode_oracle(eom, phi0, phidot0, t_span, control, envelope, 301)
        assert np.max(np.abs(traj.delta_phi)) > 0.0
        assert np.array_equal(traj.delta_phi, oracle[0])
        assert np.array_equal(traj.delta_phi_dot, oracle[1])

    def test_failure_names_method_and_reason_and_warns_nothing(self):
        eom = build_eom(fig3_params(), None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError,
                               match=r"dop853 aborted .*step size becomes too small "
                                     r"\(return code -3\)"):
                integrate_trajectory(eom, 0.1, 0.0, (1e10, 1e10 + 1e-6), n_samples=11)

    def test_missing_extension_names_scipy_version(self, monkeypatch):
        eom = build_eom(fig3_params(), None)
        with monkeypatch.context() as patch:
            patch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
            circuit._dop_codes.cache_clear()
            with pytest.raises(ImportError) as info:
                integrate_trajectory(eom, 0.1, 0.0, (0.0, 1e-9), n_samples=3)
        message = str(info.value)
        assert f"scipy {scipy.__version__}" in message
        assert "integrate" in message and "_dop" in message
        # Found again once the file is back.
        traj = integrate_trajectory(eom, 0.1, 0.0, (0.0, 1e-9), n_samples=3)
        assert np.all(np.isfinite(traj.delta_phi))

    @pytest.mark.parametrize("version", ["1.16.2", "1.9.3", "unknown"])
    def test_scipy_before_1_17_is_rejected(self, monkeypatch, version):
        # Before 1.17 _dop was an f2py module with another call signature:
        # reject it by version rather than call it.
        eom = build_eom(fig3_params(), None)
        with monkeypatch.context() as patch:
            patch.setattr(circuit, "_scipy_version", lambda root: version)
            circuit._dop_codes.cache_clear()
            with pytest.raises(ImportError, match=rf"scipy 1\.17\.x.*found scipy {version}$"):
                integrate_trajectory(eom, 0.1, 0.0, (0.0, 1e-9), n_samples=3)
        circuit._dop_codes.cache_clear()
        assert circuit._scipy_version(os.path.dirname(scipy.__file__)) == scipy.__version__
        traj = integrate_trajectory(eom, 0.1, 0.0, (0.0, 1e-9), n_samples=3)
        assert np.all(np.isfinite(traj.delta_phi))


def list_rhs(eom, envelope, rate_scale):
    """The right-hand side before the shared output buffer: a new list per
    call, one body for the whole span."""
    wc2 = eom.omega_c ** 2 / rate_scale
    nl = eom.nonlinear_coeff / rate_scale
    force = eom.drive_coeff * eom.drive_amplitude / rate_scale
    w = eom.drive_omega
    ph0 = eom.drive_phase0
    if force == 0.0:
        def rhs(t, y):
            p, v = y.tolist()
            try:
                return [rate_scale * v, -wc2 * p - nl * math.sin(p)]
            except ValueError:
                return [math.nan, math.nan]
        return rhs
    if envelope is None:
        def rhs(t, y):
            p, v = y.tolist()
            try:
                return [rate_scale * v, -wc2 * p - nl * math.sin(p)
                        - force * math.cos(w * t + ph0)]
            except ValueError:
                return [math.nan, math.nan]
        return rhs
    env_value = circuit._envelope_scalar(envelope)

    def rhs(t, y):
        p, v = y.tolist()
        try:
            return [rate_scale * v, -wc2 * p - nl * math.sin(p)
                    - force * env_value(t) * math.cos(w * t + ph0)]
        except ValueError:
            return [math.nan, math.nan]
    return rhs


class TestReferenceRhs:
    """integrate_trajectory against list_rhs run through scipy.integrate.ode,
    bit for bit, signed zeros included.  The shared
    output buffer would show here if a solver kept a returned array past its
    next call, and the per-interval body choice if it missed a switch."""

    GRID = np.linspace(0.0, 6e-9, 31)  # the output grid of the forward cases

    @staticmethod
    def reference(eom, phi0, phidot0, t_span, control, envelope, n_samples):
        return TestCompiledCodes.ode_oracle(eom, phi0, phidot0, t_span, control,
                                            envelope, n_samples, list_rhs)

    CASES = {
        # name: (drive uV, drive GHz, envelope, t_span, step control, phi0, phidot0)
        "undriven": (0.0, 0.15, None, (0.0, 6e-9), StepControl(), 0.4, -3e9),
        "always_on": (1.0, 0.15, None, (0.0, 6e-9), StepControl(), 0.0, 0.0),
        "t_off_on_grid": (1.0, 0.15, DriveEnvelope(t_off=GRID[17], ramp_duration=0.0),
                          (0.0, 6e-9), StepControl(), 0.0, 0.0),
        "t_off_ulp_below_grid": (1.0, 0.15, DriveEnvelope(
            t_off=float(np.nextafter(GRID[17], 0.0)), ramp_duration=0.0),
            (0.0, 6e-9), StepControl(), 0.0, 0.0),
        "t_off_ulp_above_grid": (1.0, 0.15, DriveEnvelope(
            t_off=float(np.nextafter(GRID[17], 1.0)), ramp_duration=0.0),
            (0.0, 6e-9), StepControl(), 0.0, 0.0),
        "t_on_on_grid": (1.0, 0.15, DriveEnvelope(t_on=GRID[9], ramp_duration=0.0),
                         (0.0, 6e-9), StepControl(), 0.0, 0.0),
        "ramped": (1.0, 0.15, DriveEnvelope(t_on=1e-9, t_off=5e-9, ramp_duration=1e-9),
                   (0.0, 6e-9), StepControl(), 0.0, 0.0),
        "overlapping_ramps": (1.0, 0.15, DriveEnvelope(t_on=1e-9, t_off=3e-9,
                                                       ramp_duration=1.5e-9),
                              (0.0, 6e-9), StepControl(), 0.0, 0.0),
        "backward": (1.0, 0.15, DriveEnvelope(t_on=1e-9, t_off=4e-9, ramp_duration=0.5e-9),
                     (6e-9, 0.0), StepControl(), 0.1, 2e9),
        # At rest with a rate of -0.0 and the drive off: the undriven body
        # keeps -0.0 where force * 0.0 * cos may turn it to +0.0, and DOP853's
        # stage sums turn it to +0.0 whichever body runs.
        "minus_zero_rate": (1.0, 2.0, DriveEnvelope(t_on=8e-9, ramp_duration=0.0),
                            (0.0, 4e-9), StepControl(), 0.0, -0.0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_list_rhs(self, case):
        amplitude_uv, ghz, envelope, t_span, control, phi0, phidot0 = self.CASES[case]
        drive = DriveWaveform.sinusoid(amplitude_uv * 1e-6, 2 * math.pi * ghz * 1e9)
        eom = build_eom(fig3_params(), drive)
        n_samples = 3 if case == "minus_zero_rate" else 31
        traj = integrate_trajectory(eom, phi0, phidot0, t_span, control,
                                    envelope=envelope, n_samples=n_samples)
        ref = self.reference(eom, phi0, phidot0, t_span, control, envelope, n_samples)
        if case == "minus_zero_rate":  # the drive never turns on
            assert np.all(traj.delta_phi == 0.0) and np.signbit(ref[1][0])
        else:
            assert np.max(np.abs(traj.delta_phi)) > 0.0
        assert traj.delta_phi.tobytes() == ref[0].tobytes()
        assert traj.delta_phi_dot.tobytes() == ref[1].tobytes()

    @pytest.mark.parametrize("phi0", [0.0, -0.0])
    @pytest.mark.parametrize("n_samples", [2, 3, 5, 31])
    def test_minus_zero_rate_matches_without_a_body_guard(self, n_samples, phi0):
        # At rest with a rate of -0.0 until the drive turns on at 1 ns: the
        # intervals before the switch run the undriven body, and no guard
        # keeps the whole-span body there for the sign of the rate.
        drive = DriveWaveform.sinusoid(1e-6, 2 * math.pi * 2e9)
        eom = build_eom(fig3_params(), drive)
        envelope = DriveEnvelope(t_on=1e-9, ramp_duration=0.0)
        traj = integrate_trajectory(eom, phi0, -0.0, (0.0, 4e-9), envelope=envelope,
                                    n_samples=n_samples)
        ref = self.reference(eom, phi0, -0.0, (0.0, 4e-9), StepControl(), envelope,
                             n_samples)
        assert np.max(np.abs(traj.delta_phi)) > 0.0
        assert traj.delta_phi.tobytes() == ref[0].tobytes()
        assert traj.delta_phi_dot.tobytes() == ref[1].tobytes()


class TestPotentialLandscape:
    def test_pure_parabola_has_single_minimum_at_zero(self):
        landscape = potential_landscape(FIG3_E_L, 0.0, (-2 * math.pi, 2 * math.pi), 801)
        assert len(landscape.minima) == 1
        assert landscape.minima[0][0] == pytest.approx(0.0, abs=1e-9)

    def test_multi_well_regime(self):
        landscape = potential_landscape(1e9 * H, 25e9 * H, (-4 * math.pi, 4 * math.pi), 4001)
        assert len(landscape.minima) >= 3
        assert len(landscape.minima) == 5
        assert all(b > 0.0 for b in landscape.barrier_heights)

    def test_minima_symmetric_under_reflection(self):
        landscape = potential_landscape(1e9 * H, 25e9 * H, (-4 * math.pi, 4 * math.pi), 4001)
        phis = sorted(p for p, _ in landscape.minima)
        for p, mirrored in zip(phis, reversed(phis)):
            assert p == pytest.approx(-mirrored, abs=1e-9)

    def test_u_values_match_definition(self):
        e_l, e_j = 1e9 * H, 25e9 * H
        landscape = potential_landscape(e_l, e_j, (-math.pi, math.pi), 101)
        phi = landscape.phi_grid
        assert np.array_equal(landscape.u_values, e_l * phi ** 2 / 2 - e_j * np.cos(phi))

    def test_minima_count_monotone_in_ej_over_el(self):
        counts = []
        for ratio in (0.5, 2.0, 8.0, 25.0, 60.0):
            landscape = potential_landscape(1e9 * H, ratio * 1e9 * H,
                                            (-4 * math.pi, 4 * math.pi), 4001)
            counts.append(len(landscape.minima))
        assert counts == sorted(counts)

    @pytest.mark.parametrize("ratio", [8.0, 25.0, 60.0])
    def test_extrema_match_brentq(self, ratio):
        # Bisection against scipy's Brent solver at the tolerances
        # the landscape used with it (xtol 1e-14, rtol 8.9e-16).
        landscape = potential_landscape(1e9 * H, ratio * 1e9 * H,
                                        (-4 * math.pi, 4 * math.pi), 4001)
        u, du = circuit._potential_factory(1e9 * H, ratio * 1e9 * H)
        step = landscape.phi_grid[1] - landscape.phi_grid[0]
        assert len(landscape.barrier_heights) >= 1
        for phi, energy in landscape.minima:
            expected = brentq(du, phi - step, phi + step, xtol=1e-14, rtol=8.9e-16)
            assert abs(phi - expected) <= 5e-14
            assert energy == pytest.approx(float(u(expected)), rel=1e-12, abs=0.0)
        for (left, u_left), (right, u_right), height in zip(
                landscape.minima, landscape.minima[1:], landscape.barrier_heights):
            grid = landscape.phi_grid
            inside = grid[(grid > left) & (grid < right)]
            k = int(np.argmax(u(inside)))
            a, b = inside[k - 1], inside[k + 1]
            top = circuit._bracketed_root(du, a, b)
            expected = brentq(du, a, b, xtol=1e-14, rtol=8.9e-16)
            assert abs(top - expected) <= 5e-14
            assert height == pytest.approx(float(u(expected)) - max(u_left, u_right),
                                           rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("ratio", [8.0, 25.0, 60.0])
    def test_extrema_match_the_mpmath_oracle(self, ratio):
        # Each minimum within the bisection's stop rule of the 40-digit root;
        # energies and barriers within 1e-14 relative.
        e_l, e_j = 1e9 * H, ratio * 1e9 * H
        landscape = potential_landscape(e_l, e_j, (-4 * math.pi, 4 * math.pi), 4001)
        minima, maxima = oracles.landscape_extrema(e_l, e_j, -4 * math.pi, 4 * math.pi)
        assert len(landscape.minima) == len(minima) >= 3
        for (phi, energy), (root, u_root) in zip(landscape.minima, minima):
            assert abs(phi - float(root)) <= 1e-14 + 8.9e-16 * abs(float(root))
            assert abs(energy - float(u_root)) <= 1e-14 * abs(float(u_root))
        tops = [u_top for root, u_top in maxima if minima[0][0] < root < minima[-1][0]]
        assert len(tops) == len(landscape.barrier_heights)
        for height, u_top, (_, u_left), (_, u_right) in zip(
                landscape.barrier_heights, tops, minima, minima[1:]):
            expected = float(u_top - max(u_left, u_right))
            assert abs(height - expected) <= 1e-14 * expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="n_points"):
            potential_landscape(1e9 * H, 25e9 * H, (0.0, 1.0), 2)
        with pytest.raises(ValueError, match="phi_range"):
            potential_landscape(1e9 * H, 25e9 * H, (1.0, -1.0), 100)

    @pytest.mark.parametrize("e_inductive, e_josephson, message", [
        (0.0, 25e9 * H, "e_inductive must be strictly positive and finite"),
        (-1e9 * H, 25e9 * H, "e_inductive must be strictly positive and finite"),
        (math.nan, 25e9 * H, "e_inductive must be strictly positive and finite"),
        (math.inf, 25e9 * H, "e_inductive must be strictly positive and finite"),
        (1e9 * H, -25e9 * H, "e_josephson must be non-negative and finite"),
        (1e9 * H, math.nan, "e_josephson must be non-negative and finite"),
        (1e9 * H, math.inf, "e_josephson must be non-negative and finite")])
    def test_rejects_an_energy_out_of_range(self, e_inductive, e_josephson, message):
        with pytest.raises(ValueError, match=message):
            potential_landscape(e_inductive, e_josephson, (-1.0, 1.0), 11)


class TestHarmonicLevelSpacing:
    """The harmonic level spacing hbar*sqrt(U''(0)/m_eff) of the central well,
    m_eff = (hbar/2e)^2 * C_sigma, is hbar times the EOM's linearized
    resonance; fig3's elements have C' = C_sigma, so the two agree."""

    def test_lc_limit_equals_hbar_omega_c(self):
        params = fig3_params(e_josephson=0.0)
        landscape = potential_landscape(FIG3_E_L, 0.0, (-1.0, 1.0), 201)
        eom = build_eom(params, None)
        assert [phi for phi, _ in landscape.minima] == [pytest.approx(0.0, abs=1e-12)]
        assert HBAR * eom.small_oscillation_frequency == pytest.approx(
            HBAR * eom.omega_c, rel=1e-15, abs=0.0)

    def test_central_well_matches_finite_difference(self):
        params = fig3_params()
        landscape = potential_landscape(FIG3_E_L, params.e_josephson,
                                        (-4 * math.pi, 4 * math.pi), 4001)
        phi_star = landscape.minima[len(landscape.minima) // 2][0]
        assert phi_star == pytest.approx(0.0, abs=1e-12)

        # independent second derivative by central finite differences
        quad = (HBAR / (2 * E)) ** 2 / (2 * params.inductance)

        def u(phi):
            return quad * phi ** 2 - params.e_josephson * math.cos(phi)

        h = 1e-5
        curvature = (u(phi_star + h) - 2 * u(phi_star) + u(phi_star - h)) / h ** 2
        m_eff = (HBAR / (2 * E)) ** 2 * params.c_sigma
        spacing = HBAR * build_eom(params, None).small_oscillation_frequency
        assert spacing == pytest.approx(HBAR * math.sqrt(curvature / m_eff),
                                        rel=1e-6, abs=0.0)
        assert spacing > 0.0

    def test_rejects_non_minimum(self):
        # A negative nonlinear coefficient stronger than omega_c^2 would make
        # phi = 0 a potential maximum, where the linearization has no spacing.
        with pytest.raises(ValueError, match="nonlinear_coeff must be finite and non-negative"):
            EomParams(omega_c=1e10, nonlinear_coeff=-2e20, drive_coeff=0.0)
