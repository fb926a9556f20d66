"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (visible with pytest -s; the per-test PASSED/FAILED lines
of pytest -v mirror them).

Run with: pytest tests/test_acceptance.py -v
"""

import json
import math
import time

import numpy as np
import pytest

from scalar_ab.ab_phase import PhaseHistory
from scalar_ab.circuit import (StepControl, build_eom, integrate_trajectory,
                               potential_landscape, specific_energy)
from scalar_ab.cli import PRESETS, parse_config, run_experiment
from scalar_ab.core import (C_LIGHT, E_CHARGE, G_NEWTON, HBAR, PLANCK_H, CircuitParams,
                            DriveWaveform, MassShell, TwoLevelAtom)
from scalar_ab.redshift import (ion_cancellation_check, modulation_indices,
                                transition_sideband_spectrum)
from scalar_ab.spectral import (floquet_decompose, fm_spectrum_via_fft,
                                jacobi_anger_coeffs, quasi_energy_ladder)

H, E, C, G = PLANCK_H, E_CHARGE, C_LIGHT, G_NEWTON

FIG3_ELEMENTS = dict(c_sphere=5.6e-12, c_sigma=5.576481251856608e-14,
                     c_gate=1e-15, c_prime=5.576481251856608e-14,
                     inductance=1.6346151260646912e-7, e_josephson=25e9 * H,
                     c_josephson=1e-14)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def test_criterion_01_jacobi_anger_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    omega = 2 * math.pi * 1e6
    for alpha in (0.1, 1.0, 5.0, 10.0):
        n_max = math.ceil(alpha) + 20
        analytic = jacobi_anger_coeffs(alpha, n_max)
        m = 16 * n_max * 4  # comfortably above the 16*truncation_n floor
        m = 1 << int(math.ceil(math.log2(m)))
        t = np.linspace(0.0, 2 * math.pi / omega, m + 1)
        history = PhaseHistory(times=t, phase=alpha * np.sin(omega * t))
        oracle = fm_spectrum_via_fft(history, omega, n_max)
        for n in range(-n_max, n_max + 1):
            worst = max(worst, abs(analytic.amplitude(n) - oracle.amplitude(n)))
    elapsed = time.perf_counter() - started
    report(1, "Jacobi-Anger vs FFT oracle",
           worst <= 1e-8 and elapsed < 5.0,
           f"max coefficient diff {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_normalization_suite():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for alpha in rng.uniform(0.0, 15.0, size=50):
        spectrum = jacobi_anger_coeffs(alpha, math.ceil(alpha) + 20)
        total = sum(abs(c) ** 2 for c in spectrum.coefficients.values())
        worst = max(worst, abs(total - 1.0))
    period = 1e-6
    t = np.linspace(0.0, period, 257)
    for _ in range(10):
        values = np.zeros_like(t)
        for k in range(1, 5):
            values += rng.normal() * np.cos(2 * math.pi * k * t / period
                                            + rng.uniform(0, 2 * math.pi))
        values *= 2e-28
        values[-1] = values[0]
        potential = DriveWaveform.sampled(t, values)
        decomposition = floquet_decompose(potential, 0.0)
        total = sum(abs(c) ** 2 for c in decomposition.coefficients.values())
        worst = max(worst, abs(total - 1.0))
    report(2, "spectrum normalization, 50 random depths + 10 waveforms",
           worst <= 1e-9, f"worst |sum-1| = {worst:.2e}")


def test_criterion_03_quasi_energy_ladder_spacing():
    # Pick an omega whose hbar*omega product is exactly representable with
    # mantissa room, so the bit-exact spacing claim is decidable in floats.
    target = 0.125
    omega = target / HBAR
    for _ in range(128):
        if HBAR * omega == target:
            break
        omega = np.nextafter(omega, math.inf if HBAR * omega < target else -math.inf)
    assert HBAR * omega == target
    ladder = quasi_energy_ladder(1.0, omega, (-64, 64))
    hw = HBAR * omega
    ok = all(ladder[i + 1][1] - ladder[i][1] == hw for i in range(len(ladder) - 1))
    report(3, "quasi-energy ladder spacing bit-exactly hbar*omega", ok)


def test_criterion_04_linear_limit_circuit():
    params = CircuitParams(**{**FIG3_ELEMENTS, "e_josephson": 0.0})
    eom = build_eom(params, None)
    period = 2 * math.pi / eom.omega_c
    started = time.perf_counter()
    trajectory = integrate_trajectory(eom, 0.1, 0.0, (0.0, 100 * period),
                                      StepControl(), n_samples=2001)
    elapsed = time.perf_counter() - started
    error = np.max(np.abs(trajectory.delta_phi
                          - 0.1 * np.cos(eom.omega_c * trajectory.times)))
    report(4, "linear limit reproduces 0.1*cos(omega_c t) over 100 periods",
           error < 1e-8 and elapsed < 1.0,
           f"max abs error {error:.2e}, {elapsed:.2f} s")


def test_criterion_05_energy_conservation_10k_periods():
    # Undriven nonlinear run at 1 rad amplitude with the Josephson term as
    # strong as the linear one (E_J = E_L), at default tolerances.
    phi_sq = (HBAR / (2 * E)) ** 2
    params = CircuitParams(**{**FIG3_ELEMENTS,
                              "e_josephson": phi_sq / FIG3_ELEMENTS["inductance"]})
    eom = build_eom(params, None)
    assert eom.nonlinear_coeff == pytest.approx(eom.omega_c ** 2, rel=1e-9, abs=0.0)
    period = 2 * math.pi / eom.omega_c
    trajectory = integrate_trajectory(eom, 1.0, 0.0, (0.0, 1e4 * period),
                                      StepControl(), n_samples=2001)
    energies = specific_energy(eom, trajectory.delta_phi,
                               trajectory.delta_phi_dot)
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    report(5, "undriven nonlinear energy drift over 1e4 linear periods",
           drift < 1e-6, f"relative drift {drift:.2e}")


def test_criterion_06_fig3_post_drive_phase(tmp_path):
    out = tmp_path / "fig3.csv"
    doc = json.loads(json.dumps(PRESETS["fig3"]))
    doc["output"] = {"path": str(out), "format": "csv"}
    config = parse_config(json.dumps(doc))
    run_experiment(config)
    data = np.genfromtxt(out, delimiter=",", names=True)
    t_off = config.parameters["drive_t_off_ns"] * 1e-9
    post = data["t_seconds"] >= t_off
    threshold = 10 * config.inputs.control.abs_tol  # the StepControl the run used
    fraction = float(np.mean(np.abs(data["delta_phi_rad"][post]) > threshold))
    report(6, "fig3 preset keeps nonzero phase after drive-off",
           post.sum() > 100 and fraction >= 0.9,
           f"{100 * fraction:.1f}% of post-drive samples above 10x tolerance")


def test_criterion_07_fig4_landscape():
    landscape = potential_landscape(1e9 * H, 25e9 * H, (-4 * math.pi, 4 * math.pi), 4001)
    phis = sorted(p for p, _ in landscape.minima)
    symmetric = all(abs(p + q) < 1e-9 for p, q in zip(phis, reversed(phis)))
    report(7, "fig4 landscape has >= 3 symmetric minima in [-4pi, 4pi]",
           len(phis) >= 3 and symmetric,
           f"{len(phis)} minima at {[round(p, 3) for p in phis]}")


def test_criterion_08_electric_invisibility_gravitational_visibility():
    # Electric side: the cancellation is exact for arbitrary phase histories.
    rng = np.random.default_rng(8)
    t = np.linspace(0.0, 1.0, 1025)
    base_rate = 0.42
    electric_ok = True
    histories = [1e6 * np.sin(2 * math.pi * 7 * t),
                 rng.normal(scale=1e5, size=t.size),
                 np.linspace(0.0, 1e4, t.size) ** 2 / 1e4]
    for phase in histories:
        phase[0] = 0.0
        rate = ion_cancellation_check(PhaseHistory(times=t, phase=phase), base_rate)
        electric_ok &= abs(rate - base_rate) <= np.spacing(base_rate)

    # Gravitational side: delta_alpha = 5 splits the line into sidebands.
    omega = 2 * math.pi
    delta_m = 1e-12
    atom = TwoLevelAtom(rest_mass_i=1e-11, transition_energy=delta_m * C ** 2)
    m1 = 5.0 * HBAR * omega * 1.0 / (G * delta_m)
    shell = MassShell(m0=2 * m1, m1=m1, radius=1.0, omega=omega)
    spectrum = transition_sideband_spectrum(atom, shell, 25)
    strong = spectrum.lines_above(0.01)
    positive = {n: a for n, _, a in spectrum.sideband_lines if n > 0}
    dominant = max(positive, key=positive.get)

    m = 8192
    tt = np.linspace(0.0, 2 * math.pi / omega, m + 1)
    oracle = fm_spectrum_via_fft(
        PhaseHistory(times=tt, phase=spectrum.delta_alpha * np.sin(omega * tt)),
        omega, 25)
    oracle_diff = max(abs(spectrum.amplitude(n) - abs(oracle.amplitude(n)))
                      for n in range(-25, 26))
    grav_ok = (len(strong) >= 9 and dominant in (4, 5) and oracle_diff < 1e-8)
    report(8, "electric AB phase cancels; gravitational spectrum splits",
           electric_ok and grav_ok,
           f"{len(strong)} lines > 1%, dominant n={dominant}, "
           f"oracle diff {oracle_diff:.1e}")


def test_criterion_09_consistency_chain():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        m_i = 10.0 ** rng.uniform(-27, -18)
        delta_m = m_i * 10.0 ** rng.uniform(-2, -0.3)
        atom = TwoLevelAtom(rest_mass_i=m_i, transition_energy=delta_m * C ** 2)
        m0 = 10.0 ** rng.uniform(5, 25)
        shell = MassShell(m0=m0, m1=rng.uniform(0.1, 1.0) * m0,
                          radius=10.0 ** rng.uniform(0, 8),
                          omega=10.0 ** rng.uniform(-3, 6))
        indices = modulation_indices(atom, shell)
        via_masses = indices.alpha_f - indices.alpha_i
        via_energy = (G * shell.m1 * (atom.transition_energy / C ** 2)
                      / (HBAR * shell.omega * shell.radius))
        worst = max(worst, abs(via_masses - via_energy) / via_energy)
    report(9, "delta_alpha via masses vs via transition energy, 100 draws",
           worst <= 1e-12, f"worst relative difference {worst:.2e}")


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for label in ("a", "b"):
        csv_out = tmp_path / f"traj_{label}.csv"
        doc = json.loads(json.dumps(PRESETS["fig3"]))
        doc["parameters"]["t_end_ns"] = 6.0
        doc["parameters"]["n_samples"] = 501
        doc["output"] = {"path": str(csv_out), "format": "csv"}
        run_experiment(parse_config(json.dumps(doc)))

        json_out = tmp_path / f"spec_{label}.json"
        doc = json.loads(json.dumps(PRESETS["earth-shell"]))
        doc["output"] = {"path": str(json_out), "format": "json"}
        run_experiment(parse_config(json.dumps(doc)))
        outputs.append((csv_out.read_bytes(), json_out.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(10, "identical configs produce byte-identical outputs", ok)
