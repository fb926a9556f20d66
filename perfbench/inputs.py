"""Inputs of the benchmark's three operation groups, made from the seed.

Everything random is drawn from ``numpy.random.default_rng(seed)``.  The seed
changes values, never the amount of work: sampled drives keep fixed harmonic
amplitudes and draw only their phases, amplitudes that the quadrature's
relative error test cannot see are drawn freely, and grids and sizes are
fixed.  That keeps the run-to-run spread down to machine noise.

This module needs numpy only; it builds no object of the program, so the
checks can use the same numbers without importing it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# CODATA 2018 values as published (hbar to ten digits).  The checks compute
# with these, apart from the program's own constants.
HBAR = 1.054571817e-34
H = 6.62607015e-34
E = 1.602176634e-19
C = 299792458.0
G = 6.67430e-11

# The four CLI presets, as the README defines them.  The checks recompute
# each preset's physics from these values.
FIG3 = {
    "c_sigma": 55.76481251856608e-15,
    "c_prime": 55.76481251856608e-15,
    "c_gate": 1.0e-15,
    "c_sphere": 5600.0e-15,
    "c_josephson": 10.0e-15,
    "inductance": 163.46151260646912e-9,
    "e_josephson": 25.0e9 * H,
    "drive_amplitude": 1.0e-6,
    "drive_omega": 2.0 * math.pi * 150e6,
    "t_end": 20e-9,
    "t_off": 12e-9,
    "n_samples": 2001,
}
FIG4 = {
    "e_inductive": 1.0e9 * H,
    "e_josephson": 25.0e9 * H,
    "phi_min": -4.0 * math.pi,
    "phi_max": 4.0 * math.pi,
    "n_points": 4001,
}
EARTH = {
    "m0": 5.972e24,
    "m1": 1.0e10,
    "radius": 6.371e6,
    "omega": 2.0 * math.pi * 1.0e-3,
    "rest_mass": 1.44316060e-25,
    "transition_energy": 1.589 * E,
}
SUPERNOVA = {
    "shell_mass": 2.8e30,
    "r0": 7.0e8,
    "speed": 1.0e7,
    "system_mass": 9.4526e-26,
    "t_end": 100.0,
    "n_samples": 2001,
}

# Each group's pass is cut into this many slices, which a round interleaves.
SLICES = 3

PRESETS = ("fig3", "fig4", "earth-shell", "supernova-shell")
PRESET_OUTPUT = {"fig3": "fig3.csv", "fig4": "fig4.json",
                 "earth-shell": "earth-shell.json",
                 "supernova-shell": "supernova-shell.csv"}
# The --sweep pair: fig3 run for 200 ns at two drive amplitudes (uV).
SWEEP_T_END = 200e-9
SWEEP = (("sweep_a", 1.0), ("sweep_b", 2.0))


def write_sweep_configs(workdir: Path) -> list[Path]:
    """Write the two sweep configs; each declares its own output CSV."""
    paths = []
    for name, amplitude_uv in SWEEP:
        doc = {
            "experiment": "CircuitDynamics",
            "parameters": {"preset": "fig3", "t_end_ns": SWEEP_T_END * 1e9,
                           "drive_amplitude_uV": amplitude_uv},
            "output": {"path": f"{name}.csv", "format": "csv"},
        }
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        paths.append(path)
    return paths


def omega_c(elements: dict) -> float:
    """Linear resonance 1/sqrt(L*C') in rad/s."""
    return 1.0 / math.sqrt(elements["inductance"] * elements["c_prime"])


def nonlinear_coeff(elements: dict) -> float:
    """(2e/hbar)^2 * E_J / C_sigma in s^-2."""
    return (2.0 * E / HBAR) ** 2 * elements["e_josephson"] / elements["c_sigma"]


def ode_inputs(seed: int) -> dict:
    """The circuit-ode group.

    ``undriven``: acceptance criterion 05 (E_J = E_L, 1 rad) over 1,000
    linear periods, run as three chained parts of 667 sample intervals.
    ``linear``: E_J = 0 at 0.1 rad over 100 periods.
    ``driven``: the fig3 circuit over 200 ns, switched off instantly at
    110 ns.  (At 100 ns both the 150 MHz drive and the 8.5 GHz resonance
    complete whole periods, the circuit returns to rest, and the energy left
    is below the integrator's absolute tolerance.)  ``backward``: the undriven
    oscillator from a seeded amplitude, 100 periods out and back.
    ``mirror``: the fig3 circuit over 6 ns at +1 and -1 uV.
    """
    rng = np.random.default_rng([seed, 1])
    phi_sq = (HBAR / (2.0 * E)) ** 2
    undriven = dict(FIG3, e_josephson=phi_sq / FIG3["inductance"])
    linear = dict(FIG3, e_josephson=0.0)
    return {
        "undriven": {"elements": undriven, "phi0": 1.0, "periods": 1000, "parts": 3,
                     "n_samples": 2002},
        "linear": {"elements": linear, "phi0": 0.1, "periods": 100,
                   "n_samples": 2001},
        "driven": {"elements": FIG3, "t_end": 200e-9, "t_off": 110e-9, "n_samples": 2001},
        "backward": {"elements": undriven,
                     "phi0": float(rng.uniform(0.5, 1.0)), "periods": 100,
                     "n_samples": 101},
        "mirror": {"elements": FIG3, "t_end": 6e-9, "n_samples": 601},
    }


def _harmonic_samples(n_samples: int, period: float, amplitudes: np.ndarray,
                      phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samples over one period of sum_k a_k cos(2 pi k t/P + p_k), closed
    exactly (last value equal to the first)."""
    t = np.linspace(0.0, period, n_samples)
    k = np.arange(1, len(amplitudes) + 1)
    v = (amplitudes[:, None]
         * np.cos(2.0 * math.pi * k[:, None] * t[None, :] / period
                  + phases[:, None])).sum(axis=0)
    v[-1] = v[0]
    return t, v


def phase_inputs(seed: int) -> dict:
    """The phase-spectra group (see README for the make-up of each input)."""
    rng = np.random.default_rng([seed, 2])
    f_drive = 150e6
    omega = 2.0 * math.pi * f_drive
    # Electric phase of a sinusoid on 200,001 points over 20 periods.
    sinusoid = {"charge": 2.0 * E, "amplitude": float(rng.uniform(0.5e-6, 2.0e-6)),
                "omega": omega,
                "grid": np.linspace(0.0, 20.0 * 2.0 * math.pi / omega, 200_001)}
    # Smooth sampled drive: 4 harmonics with amplitudes 1 uV/k^2 and seeded
    # phases, 4,097 samples over 1 us; phase on 20,001 points over 1 us.
    period = 1e-6
    t_s, v_s = _harmonic_samples(4097, period, 1e-6 / np.arange(1, 5) ** 2,
                                 rng.uniform(0.0, 2.0 * math.pi, 4))
    sampled = {"charge": 2.0 * E, "times": t_s, "values": v_s, "period": period,
               "grid": np.linspace(0.0, period, 20_001),
               "value_times": rng.uniform(-2.0 * period, 3.0 * period, 200)}
    # Bulk phase: constant Cooper pairs and electrons, ions varying
    # piecewise-linearly through 9 seeded knots, 1 uV drive, 200 ns.
    t_end = 200e-9
    knots = np.linspace(0.0, t_end, 9)
    bulk = {"amplitude": 1e-6, "omega": omega, "t_end": t_end,
            "grid": np.linspace(0.0, t_end, 2001),
            "cooper_pairs": 1.0e6, "electrons": 2.0e5,
            "ion_knots": knots, "ion_counts": rng.uniform(0.5e6, 1.5e6, 9)}
    grav = dict(SUPERNOVA, speed=float(rng.uniform(0.5e7, 2.0e7)))
    grav["grid"] = np.linspace(0.0, grav["t_end"], grav["n_samples"])
    # Floquet of a sampled potential: 4 harmonics, seeded amplitudes and
    # phases, scaled to a peak of 3*hbar*omega at 100 MHz.
    f_mod = 100e6
    w_mod = 2.0 * math.pi * f_mod
    t_f, u_f = _harmonic_samples(4097, 1.0 / f_mod,
                                 rng.uniform(0.3, 1.0, 4) / np.arange(1, 5),
                                 rng.uniform(0.0, 2.0 * math.pi, 4))
    u_f *= 3.0 * HBAR * w_mod / np.max(np.abs(u_f))
    u_f[-1] = u_f[0]
    # Transition spectrum at delta_alpha = 1e4: the earth-shell atom with the
    # AC mass that gives that depth.
    dm = EARTH["transition_energy"] / C ** 2
    m1 = 1e4 * HBAR * EARTH["omega"] * EARTH["radius"] / (G * dm)
    return {
        "sinusoid": sinusoid,
        "sampled": sampled,
        "bulk": bulk,
        "grav": grav,
        "ja_large_alpha": 1e4,
        "ja_small_alphas": rng.uniform(0.1, 15.0, 2000),
        "bessel_large": {"n": int(rng.integers(0, 1000)), "alpha": 9.9e5},
        "floquet_sinusoid": {"alpha": float(rng.uniform(2.0, 4.0)), "omega": w_mod,
                             "base_energy": 1e9 * H},
        "floquet_sampled": {"times": t_f, "values": u_f, "omega": w_mod,
                            "base_energy": 1e9 * H},
        "fft_oracle": {"alpha": float(rng.uniform(1.0, 5.0)),
                       "omega": 2.0 * math.pi * 1e6, "truncation_n": 30,
                       "intervals": 1024},
        "transition": dict(EARTH, m1=m1),
        "earth": EARTH,
    }
