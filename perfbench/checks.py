"""Correctness checks, computed apart from the program.

Every check takes plain numbers (arrays, dicts, file text) and returns
``None`` when the output is right, or a one-line reason when it is not.  The
references are closed forms, independent re-implementations of the same
integrals, ``scipy.special.jv``, and properties the method must have; none is
a stored copy of an earlier output.  Tolerances are set from the method's
own accuracy and are stated next to each check.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import jv

from inputs import C, E, FIG3, FIG4, G, H, HBAR, SUPERNOVA, nonlinear_coeff, omega_c

# Integrator tolerance is rtol 1e-10; 1e-6 is acceptance criterion 05's
# bound on relative energy drift.
ENERGY_DRIFT = 1e-6
# The default absolute tolerance on the phase, used by every run here.
ABS_TOL = 1e-12
# Quadrature rel_tol is 1e-9; allow ten times that against the exact integral.
PHASE_REL = 1e-8
# Miller recurrence is accurate to ~1e-13 absolute (spectral.py); jv agrees
# to ~1e-12 at alpha = 1e5.
BESSEL_ABS = 1e-10
# SidebandSpectrum and FloquetDecomposition enforce sum |c_n|^2 = 1 to 1e-9.
NORM = 1e-9


def _fail(what: str, err: float, tol: float) -> str:
    return f"{what}: error {err:.3g} exceeds {tol:.3g}"


def _within(what: str, err: float, tol: float) -> str | None:
    """None when err <= tol; a NaN error fails."""
    return None if err <= tol else _fail(what, err, tol)


def specific_energy(elements: dict, phi: np.ndarray, phidot: np.ndarray) -> np.ndarray:
    """phi_dot^2/2 + omega_c^2 phi^2/2 + K (1 - cos phi) of the undriven circuit."""
    wc = omega_c(elements)
    k = nonlinear_coeff(elements)
    return 0.5 * phidot ** 2 + 0.5 * wc ** 2 * phi ** 2 + k * (1.0 - np.cos(phi))


def energy_drift(elements: dict, phi: np.ndarray, phidot: np.ndarray) -> float:
    energy = specific_energy(elements, np.asarray(phi), np.asarray(phidot))
    if not energy[0] > 0.0:
        return math.inf
    return float(np.max(np.abs(energy - energy[0])) / energy[0])


def _grid_error(times: np.ndarray, t0: float, t1: float, n: int) -> str | None:
    if len(times) != n:
        return f"expected {n} samples, got {len(times)}"
    err = float(np.max(np.abs(times - np.linspace(t0, t1, n))))
    return _within("time grid", err, 1e-12 * abs(t1 - t0))


# --- circuit -------------------------------------------------------------

def check_undriven(times, phi, phidot, spec: dict) -> str | None:
    t_end = spec["periods"] * 2.0 * math.pi / omega_c(spec["elements"])
    problem = _grid_error(times, 0.0, t_end, spec["n_samples"])
    if problem:
        return problem
    if phi[0] != spec["phi0"] or phidot[0] != 0.0:
        return "undriven run does not start at the initial state"
    drift = energy_drift(spec["elements"], phi, phidot)
    return _within("undriven energy drift", drift, ENERGY_DRIFT)


def check_linear(times, phi, spec: dict) -> str | None:
    """E_J = 0 makes the equation linear: phi = phi0*cos(omega_c t).  Local
    rtol 1e-10 over ~4,000 steps bounds the error by ~1e-7 rad."""
    wc = omega_c(spec["elements"])
    problem = _grid_error(times, 0.0, spec["periods"] * 2.0 * math.pi / wc,
                          spec["n_samples"])
    if problem:
        return problem
    err = float(np.max(np.abs(np.asarray(phi) - spec["phi0"] * np.cos(wc * np.asarray(times)))))
    return _within("linear limit vs phi0*cos(omega_c t)", err, 1e-7)


def check_post_drive_energy(times, phi, phidot, elements: dict, t_off: float,
                            t_end: float, n_samples: int) -> str | None:
    """After an instant switch-off the circuit is undriven: energy is
    conserved from the first sample past t_off on.

    The free oscillation left behind is ~1e-5 rad, where the integrator's
    absolute tolerance (1e-12 rad) rather than rtol bounds each step's error,
    so the allowed drift grows by 8*ABS_TOL/amplitude per period on top of
    the 1e-6 of criterion 05.  Runs at these settings drift by 0.2 to 0.5 of
    ABS_TOL/amplitude per period; a shifted column drifts by order one.
    """
    times, phi, phidot = np.asarray(times), np.asarray(phi), np.asarray(phidot)
    problem = _grid_error(times, 0.0, t_end, n_samples)
    if problem:
        return problem
    post = times > t_off
    if post.sum() < 2:
        return "no samples after the drive switch-off"
    amplitude = float(np.max(np.abs(phi[post])))
    frequency = math.sqrt(omega_c(elements) ** 2 + nonlinear_coeff(elements)) / (2.0 * math.pi)
    periods = (t_end - t_off) * frequency
    allowed = ENERGY_DRIFT + 8.0 * periods * ABS_TOL / amplitude
    drift = energy_drift(elements, phi[post], phidot[post])
    return _within("post-drive energy drift", drift, allowed)


def check_backward(start: tuple[float, float], back_phi0: float, back_phidot0: float,
                   elements: dict) -> str | None:
    """Integrating 100 periods out and back must return to the start state;
    rtol 1e-10 over ~8,000 steps allows ~1e-7 relative."""
    phi0, phidot0 = start
    scale = abs(phi0) + abs(phidot0) / omega_c(elements)
    err = max(abs(back_phi0 - phi0), abs(back_phidot0 - phidot0) / omega_c(elements))
    return _within("return to the start state", err, 1e-7 * scale)


def check_mirror(phi_plus, phi_minus) -> str | None:
    """U(phi) is even, so flipping the drive's sign must mirror the
    trajectory: phi_-(t) = -phi_+(t)."""
    phi_plus = np.asarray(phi_plus)
    scale = float(np.max(np.abs(phi_plus)))
    if not scale > 0.0:
        return "driven trajectory is identically zero"
    err = float(np.max(np.abs(np.asarray(phi_minus) + phi_plus)))
    return _within("-1 uV trajectory vs mirror of +1 uV", err, 1e-9 * scale)


def potential_roots(e_inductive: float, e_josephson: float, lo: float, hi: float,
                    n_bracket: int = 20001) -> tuple[list[float], list[float]]:
    """Roots of U'(phi) = E_L phi + E_J sin(phi) in [lo, hi] by bisection,
    split into minima (U'' > 0) and maxima."""
    def du(x):
        return e_inductive * x + e_josephson * np.sin(x)

    xs = np.linspace(lo, hi, n_bracket)
    ds = du(xs)
    minima, maxima = [], []
    for x in xs[ds == 0.0]:
        (minima if e_inductive + e_josephson * math.cos(x) > 0 else maxima).append(float(x))
    for i in np.nonzero(np.sign(ds[:-1]) * np.sign(ds[1:]) < 0)[0]:
        a, b = float(xs[i]), float(xs[i + 1])
        fa = du(a)
        for _ in range(200):
            m = 0.5 * (a + b)
            if m in (a, b):
                break
            fm = du(m)
            if (fm < 0) == (fa < 0):
                a, fa = m, fm
            else:
                b = m
        root = 0.5 * (a + b)
        (minima if e_inductive + e_josephson * math.cos(root) > 0 else maxima).append(root)
    return sorted(minima), sorted(maxima)


# --- ab_phase ------------------------------------------------------------

def check_sinusoid_phase(grid, phase, spec: dict) -> str | None:
    """V0*cos(omega t) integrates to alpha*sin(omega t), alpha = qV0/(hbar omega)."""
    alpha = spec["charge"] * spec["amplitude"] / (HBAR * spec["omega"])
    expected = alpha * np.sin(spec["omega"] * np.asarray(grid))
    err = float(np.max(np.abs(np.asarray(phase) - expected)))
    return _within("sinusoid phase vs alpha*sin(omega t)", err, PHASE_REL * alpha)


def pwl_cumulative(knots_t, knots_v, grid) -> np.ndarray:
    """Exact integral from grid[0] of the piecewise-linear interpolant
    through (knots_t, knots_v), at every grid point.  Merging the knots into
    the grid makes the trapezoid rule exact."""
    knots_t = np.asarray(knots_t, dtype=float)
    grid = np.asarray(grid, dtype=float)
    inner = knots_t[(knots_t > grid[0]) & (knots_t < grid[-1])]
    nodes = np.union1d(grid, inner)
    idx = np.clip(np.searchsorted(knots_t, nodes, side="right") - 1, 0, len(knots_t) - 2)
    frac = (nodes - knots_t[idx]) / (knots_t[idx + 1] - knots_t[idx])
    values = np.asarray(knots_v)[idx] * (1.0 - frac) + np.asarray(knots_v)[idx + 1] * frac
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(nodes))))
    return cum[np.searchsorted(nodes, grid)]


def check_sampled_phase(grid, phase, spec: dict) -> str | None:
    expected = (spec["charge"] / HBAR) * pwl_cumulative(spec["times"], spec["values"], grid)
    scale = float(np.max(np.abs(expected)))
    err = float(np.max(np.abs(np.asarray(phase) - expected)))
    return _within("sampled-drive phase vs exact integral", err, PHASE_REL * scale)


def drive_value(spec: dict, t: float) -> float:
    """Periodic piecewise-linear interpolant of the sampled drive at t."""
    ts, vs = spec["times"], spec["values"]
    tt = ts[0] + (t - ts[0]) % spec["period"]
    i = min(max(int(np.searchsorted(ts, tt, side="right")) - 1, 0), len(ts) - 2)
    w = (tt - ts[i]) / (ts[i + 1] - ts[i])
    return float(vs[i] * (1.0 - w) + vs[i + 1] * w)


def check_drive_value(spec: dict, t: float, got: float) -> str | None:
    expected = drive_value(spec, t)
    tol = 1e-12 * float(np.max(np.abs(spec["values"])))
    return _within(f"drive value at t={t:.6g}", abs(got - expected), tol)


def bulk_phase_closed_form(spec: dict) -> np.ndarray:
    """sum_s q_s/hbar * int_0^t N_s(tau) V0 cos(omega tau) dtau, exactly.

    On a segment where N = a + b*tau, the antiderivative of N*cos(omega tau)
    is (a sin(w t) + b t sin(w t))/w + b cos(w t)/w^2."""
    w, v0, grid = spec["omega"], spec["amplitude"], spec["grid"]

    def prim(a, b, t):
        return (a * np.sin(w * t) + b * t * np.sin(w * t)) / w + b * np.cos(w * t) / w ** 2

    const = (2.0 * E * spec["cooper_pairs"] + E * spec["electrons"]) * np.sin(w * grid) / w
    kt, kn = np.asarray(spec["ion_knots"]), np.asarray(spec["ion_counts"])
    slope = np.diff(kn) / np.diff(kt)
    intercept = kn[:-1] - slope * kt[:-1]
    seg_integral = prim(intercept, slope, kt[1:]) - prim(intercept, slope, kt[:-1])
    before = np.concatenate(([0.0], np.cumsum(seg_integral)))
    seg = np.clip(np.searchsorted(kt, grid, side="right") - 1, 0, len(kt) - 2)
    ions = before[seg] + prim(intercept[seg], slope[seg], grid) \
        - prim(intercept[seg], slope[seg], kt[seg])
    return v0 * (const - E * ions) / HBAR


def check_bulk_phase(phase, spec: dict) -> str | None:
    expected = bulk_phase_closed_form(spec)
    scale = float(np.max(np.abs(expected)))
    err = float(np.max(np.abs(np.asarray(phase) - expected)))
    return _within("bulk phase vs closed form", err, PHASE_REL * scale)


def check_exploding_shell_phase(times, phase, spec: dict) -> str | None:
    """Closed form -(m G M/(hbar v)) ln((r0 + v t)/r0).  The program
    integrates the linear interpolant of the potential between samples, whose
    error is at most t*h^2/8*max|f''| with f = 1/r, f'' <= 2v^2/r0^3."""
    times = np.asarray(times)
    problem = _grid_error(times, 0.0, spec["t_end"], spec["n_samples"])
    if problem:
        return problem
    m, mass, r0, v = spec["system_mass"], spec["shell_mass"], spec["r0"], spec["speed"]
    k = m * G * mass / HBAR
    expected = -(k / v) * np.log1p(v * times / r0)
    h = spec["t_end"] / (spec["n_samples"] - 1)
    bound = k * times * h * h / 8.0 * 2.0 * v * v / r0 ** 3 \
        + PHASE_REL * float(np.max(np.abs(expected)))
    excess = np.abs(np.asarray(phase) - expected) - bound
    worst = int(np.argmax(excess))
    if not excess[worst] <= 0.0:
        return (f"exploding-shell phase at t={times[worst]:.4g} s off the closed form by "
                f"{abs(phase[worst] - expected[worst]):.3g}, beyond the interpolation "
                f"bound {bound[worst]:.3g}")
    return None


# --- spectral ------------------------------------------------------------

def check_bessel_coeffs(ns, coeffs, alpha: float, what: str) -> str | None:
    """c_n = J_n(alpha) (scipy.special.jv) and sum |c_n|^2 = 1."""
    ns = np.asarray(ns)
    coeffs = np.asarray(coeffs, dtype=complex)
    err = float(np.max(np.abs(coeffs - jv(ns, alpha))))
    return (_within(f"{what} vs scipy jv at alpha={alpha:.6g}", err, BESSEL_ABS)
            or check_norm(coeffs, what))


def check_norm(coeffs, what: str) -> str | None:
    total = float(np.sum(np.abs(np.asarray(coeffs)) ** 2))
    return _within(f"{what} sum |c_n|^2 - 1", abs(total - 1.0), NORM)


def check_bessel_value(n: int, alpha: float, got: float) -> str | None:
    err = abs(got - float(jv(n, alpha)))
    return _within(f"J_{n}({alpha:g}) vs scipy jv", err, BESSEL_ABS)


def check_floquet_sinusoid(ns, coeffs, quasi_energy: float, spec: dict) -> str | None:
    """Floquet of U0*cos(omega t): |c_n| = |J_n(alpha)|, mean 0."""
    expected = np.abs(jv(np.asarray(ns), spec["alpha"]))
    err = float(np.max(np.abs(np.abs(np.asarray(coeffs)) - expected)))
    return (_within("Floquet sinusoid |c_n| vs |J_n|", err, BESSEL_ABS)
            or _within("Floquet sinusoid quasi-energy vs base energy",
                       abs(quasi_energy - spec["base_energy"]), 1e-12 * spec["base_energy"])
            or check_norm(coeffs, "Floquet sinusoid"))


def floquet_magnitudes(spec: dict, ns, n_points: int = 1 << 15) -> tuple[np.ndarray, float]:
    """|c_n| of exp(-i*phase_p) for the sampled potential, with phase_p the
    zero-mean part of (1/hbar) int U dt, from an independent exact integral
    and DFT; also returns the one-period mean of U."""
    ts, us = np.asarray(spec["times"]), np.asarray(spec["values"])
    period = ts[-1] - ts[0]
    mean = float(np.sum(0.5 * (us[1:] + us[:-1]) * np.diff(ts)) / period)
    t = ts[0] + period * np.arange(n_points + 1) / n_points
    integral = pwl_cumulative(ts, us, t)[:-1]
    phase = (integral - mean * (t[:-1] - ts[0])) / HBAR
    spectrum = np.fft.fft(np.exp(-1j * phase)) / n_points
    return np.abs(spectrum[(-np.asarray(ns)) % n_points]), mean


def check_floquet_sampled(ns, coeffs, quasi_energy: float, residual: float,
                          residual_tol: float, spec: dict) -> str | None:
    expected, mean = floquet_magnitudes(spec, ns)
    err = float(np.max(np.abs(np.abs(np.asarray(coeffs)) - expected)))
    expected_q = spec["base_energy"] + mean
    return (_within("Floquet sampled |c_n| vs independent DFT", err, BESSEL_ABS)
            or _within("Floquet sampled residual", residual, residual_tol)
            or _within("Floquet sampled quasi-energy vs base energy + mean potential",
                       abs(quasi_energy - expected_q),
                       1e-12 * (abs(spec["base_energy"]) + abs(mean)))
            or check_norm(coeffs, "Floquet sampled"))


# --- redshift ------------------------------------------------------------

def check_transition_lines(lines, carrier: float, omega: float, delta_alpha: float) -> str | None:
    """Line n at carrier + n*omega/2pi with amplitude |J_n(delta_alpha)|."""
    ns = np.array([n for n, _, _ in lines])
    freqs = np.array([f for _, f, _ in lines])
    amps = np.array([a for _, _, a in lines])
    expected_f = carrier + ns * (omega / (2.0 * math.pi))
    ferr = float(np.max(np.abs(freqs - expected_f)))
    err = float(np.max(np.abs(amps - np.abs(jv(ns, delta_alpha)))))
    return (_within("sideband line frequencies", ferr, 4.0 * np.spacing(abs(carrier)))
            or _within(f"line amplitudes vs |J_n({delta_alpha:.6g})|", err, BESSEL_ABS)
            or check_norm(amps, "transition lines"))


def earth_shell_expected(spec: dict) -> dict:
    """Carrier and modulation depths computed from the inputs alone."""
    x = G * spec["m0"] / (spec["radius"] * C ** 2)
    scale = G * spec["m1"] / (HBAR * spec["omega"] * spec["radius"])
    return {
        "carrier_frequency_Hz": spec["transition_energy"] / H / (1.0 + x),
        "delta_alpha": scale * spec["transition_energy"] / C ** 2,
        "alpha_i": scale * spec["rest_mass"],
        "alpha_f": scale * (spec["rest_mass"] + spec["transition_energy"] / C ** 2),
        "carrier_fractional_shift": x / (1.0 + x),
    }


def check_transition_energy(carrier: float, delta_alpha: float, spec: dict) -> str | None:
    """Carrier and delta_alpha at 1e-9 relative to the values from the inputs."""
    expected = earth_shell_expected(spec)
    for name, got in (("carrier_frequency_Hz", carrier), ("delta_alpha", delta_alpha)):
        problem = _within(f"earth-shell {name} (relative)",
                          abs(got - expected[name]) / abs(expected[name]), 1e-9)
        if problem:
            return problem
    return None


# --- CLI outputs -----------------------------------------------------------

def read_csv(text: str, header: str) -> np.ndarray | str:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"CSV header is not {header!r}"
    try:
        return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return f"CSV row is not numeric: {exc}"


TRAJECTORY_HEADER = "t_seconds,delta_phi_rad,delta_phi_dot_rad_per_s"
PHASE_HEADER = "t_seconds,phase_rad"


def check_trajectory_csv(text: str, t_end: float, t_off: float) -> str | None:
    """fig3 and the sweep configs: grid, start at rest, and energy
    conservation after the instant switch-off."""
    data = read_csv(text, TRAJECTORY_HEADER)
    if isinstance(data, str):
        return data
    if data[0, 1] != 0.0 or data[0, 2] != 0.0:
        return "trajectory does not start at rest"
    return check_post_drive_energy(data[:, 0], data[:, 1], data[:, 2], FIG3, t_off,
                                   t_end, FIG3["n_samples"])


def check_fig3_csv(text: str) -> str | None:
    return check_trajectory_csv(text, FIG3["t_end"], FIG3["t_off"])


def check_fig4_json(text: str) -> str | None:
    """Grid values U(phi) = E_L phi^2/2 - E_J cos(phi); minima and barriers
    at independent roots of U'(phi); minima symmetric about 0."""
    doc = json.loads(text)
    el, ej = FIG4["e_inductive"], FIG4["e_josephson"]
    grid = np.asarray(doc["phi_grid"])
    problem = _grid_error(grid, FIG4["phi_min"], FIG4["phi_max"], FIG4["n_points"])
    if problem:
        return problem

    def u(x):
        return 0.5 * el * np.asarray(x) ** 2 - ej * np.cos(x)

    scale = float(np.max(np.abs(u(grid))))
    uerr = float(np.max(np.abs(np.asarray(doc["u_values"]) - u(grid))))
    problem = _within("landscape U(phi) values", uerr, 1e-12 * scale)
    if problem:
        return problem
    minima, maxima = potential_roots(el, ej, FIG4["phi_min"], FIG4["phi_max"])
    got = np.array([p for p, _ in doc["minima"]])
    if len(got) != len(minima):
        return f"{len(got)} minima reported, {len(minima)} roots of U' with U'' > 0"
    energies = np.array([ue for _, ue in doc["minima"]])
    problem = (_within("minimum positions vs roots of U'",
                       float(np.max(np.abs(got - minima))), 1e-9)
               or _within("minima symmetry about phi = 0",
                          float(np.max(np.abs(got + got[::-1]))), 1e-9)
               or _within("minimum energies", float(np.max(np.abs(energies - u(got)))),
                          1e-12 * scale))
    if problem:
        return problem
    barriers = doc["barrier_heights"]
    if len(barriers) != len(minima) - 1:
        return "one barrier per adjacent pair of minima expected"
    for i, height in enumerate(barriers):
        tops = [m for m in maxima if minima[i] < m < minima[i + 1]]
        if len(tops) != 1:
            return f"expected one maximum between minima {i} and {i + 1}"
        expected = float(u(tops[0])) - max(float(u(minima[i])), float(u(minima[i + 1])))
        problem = _within(f"barrier {i} height", abs(height - expected), 1e-9 * scale)
        if problem:
            return problem
    return None


def check_earth_shell_json(text: str, spec: dict) -> str | None:
    """Lines against |J_n| at the reported depth; carrier and depth against
    the inputs at 1e-4 (the 1e-9 comparison is the phase-spectra probe, which
    fails today); alpha_i, alpha_f and the fractional shift at tight bounds."""
    doc = json.loads(text)
    expected = earth_shell_expected(spec)
    for name, rel_tol in (("carrier_frequency_Hz", 1e-4), ("delta_alpha", 1e-4),
                          ("alpha_i", 1e-9), ("alpha_f", 1e-9),
                          ("carrier_fractional_shift", 1e-5)):
        problem = _within(f"earth-shell {name} (relative)",
                          abs(doc[name] - expected[name]) / abs(expected[name]), rel_tol)
        if problem:
            return problem
    if doc["omega_rad_per_s"] != spec["omega"]:
        return "earth-shell omega differs from the input"
    lines = [(e["n"], e["frequency_Hz"], e["relative_amplitude"]) for e in doc["sideband_lines"]]
    return check_transition_lines(lines, doc["carrier_frequency_Hz"], doc["omega_rad_per_s"],
                                  doc["delta_alpha"])


def check_supernova_csv(text: str) -> str | None:
    data = read_csv(text, PHASE_HEADER)
    if isinstance(data, str):
        return data
    return check_exploding_shell_phase(data[:, 0], data[:, 1], SUPERNOVA)
