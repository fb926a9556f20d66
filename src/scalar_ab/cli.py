"""Command-line front end: strict config parsing, experiment presets, one
table that runs every experiment, and deterministic file output.  It
converts units and holds no physics: that lives in the library modules.

A config is a JSON object with the sections ``experiment``, ``parameters``
(the experiment's keys, each with its unit in its name; frequencies are
cycles per second), ``output`` (``path``, ``format``) and ``numerics`` (the
keys the experiment reads: ``rel_tol`` and ``abs_tol`` for CircuitDynamics,
``truncation_n`` for ElectricSidebands, FloquetDecompose and GravRedshift,
none for the others).  Identical configs write identical bytes.

Each experiment is one :class:`Experiment` in ``EXPERIMENTS``: its keys and
the stages of a run, build -> kernel -> write.  :func:`parse_config` checks
only what a schema can say (type, finiteness, sign or minimum, choices,
required keys, output format, an output path in an existing directory), then
builds the library's value types.  They own every other invariant: a
``ValueError`` from one is a :class:`ConfigError` naming the keys of the
fields in its message, or else every key that fed it.  So a negative
``e_josephson_GHz`` or ``ramp_periods`` is a config error, not E_J = 0 or an
instant switch.  An experiment imports its modules when it runs.
"""

from __future__ import annotations

import argparse
import difflib
import importlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Mapping, Sequence

# scalar_ab makes no BLAS call, so a CLI process that is the first to load
# numpy starts OpenBLAS with one thread instead of an idle pool.  A caller's
# own setting wins, and a process that already loaded numpy is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread setting above)

from .core import (E_CHARGE, PLANCK_H, CircuitParams, DriveWaveform,  # noqa: E402
                   IntegrationError, MassShell, TwoLevelAtom)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run_experiment", "main"]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NUMERIC_FAILURE = 2
EXIT_DEPENDENCY_ERROR = 3  # the installed scipy cannot run the integrator


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


@dataclass(frozen=True)
class KeySpec:
    kind: str                 # "number" | "int" | "string" | "list" | "species"
    unit: str                 # human description incl. units, used in diagnostics
    required: bool = False
    default: Any = None
    when: tuple[str, str] | None = None  # (other key, value): read only when it has that value
    choices: tuple[str, ...] | None = None
    positive: bool = False
    minimum: float | None = None  # least allowed value of a "number" or "int" key


@dataclass(frozen=True)
class Experiment:
    """One experiment's keys and stages: ``build(params, numerics)`` makes
    the kernel's inputs from the checked ``keys`` and ``numerics`` values,
    ``kernel(inputs)`` the result, ``write(result, path)`` the ``output``
    file ("csv" or "json"), and ``summary(inputs, result)`` the line printed
    after it."""

    keys: Mapping[str, KeySpec]
    output: str
    build: Callable[[Mapping[str, Any], Mapping[str, Any]], Any]
    kernel: Callable[[Any], Any]
    write: Callable[[Any, str], None]
    summary: Callable[[Any, Any], str]
    numerics: Mapping[str, KeySpec] = field(default_factory=dict)  # the ones build reads
    aliases: Mapping[str, str] = field(default_factory=dict)  # misspellings -> keys


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: Mapping[str, Any]
    output_path: str
    inputs: Any = None  # what the experiment's build made of the parameters


# The numerics keys, each read by the builds that list it; a tolerance not
# given takes StepControl's default.
_TOLERANCES = {"rel_tol": KeySpec("number", "relative tolerance", positive=True),
               "abs_tol": KeySpec("number", "absolute tolerance", positive=True)}
_TRUNCATION = {"truncation_n": KeySpec("int", "spectral truncation, null = automatic", minimum=0)}


def _lib(name: str) -> Any:
    """The physics module ``name``, imported when an experiment first runs.
    Its functions are looked up at call time, so wrappers set after import run."""
    return importlib.import_module(f"{__package__}.{name}")


def _make(make: Callable[..., Any], keys: Mapping[str, str], **args: Any) -> Any:
    """``make(**args)``, a value type built from config values; its ValueError
    is a ConfigError naming, through ``keys`` (argument -> config key), the
    keys of the arguments its message names, or else of all of them."""
    try:
        return make(**args)
    except ValueError as exc:
        given = [name for name in args if name in keys]
        named = [name for name in given if re.search(rf"\b{name}\b", str(exc))] or given
        raise ConfigError(f"{', '.join(dict.fromkeys(keys[n] for n in named))}: {exc}") from exc


def _ghz_to_joule(value: float, key: str) -> float:
    """``value`` GHz*h in joules; a non-zero value that underflows to 0 J is rejected."""
    joule = value * 1e9 * PLANCK_H
    if joule == 0.0 and value != 0.0:
        raise ConfigError(f"key '{key}' ({value!r} GHz) underflows to 0 J")
    return joule


def _write_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_phase(history: Any, path: str) -> None:
    _lib("ab_phase").write_phase_csv(history, path)


def _phase_summary(inputs: Any, history: Any) -> str:
    return f"final_phase={history.phase[-1]:.6g} rad"


# Keys shared by several experiments.
_CIRCUIT_ELEMENT_KEYS = {
    "c_sigma_fF": KeySpec("number", "total capacitance, femtofarads", required=True, positive=True),
    "c_prime_fF": KeySpec("number", "island capacitance, femtofarads", required=True, positive=True),
    "c_gate_fF": KeySpec("number", "gate capacitance, femtofarads", required=True, positive=True),
    "c_sphere_fF": KeySpec("number", "sphere self-capacitance, femtofarads", required=True, positive=True),
    "c_josephson_fF": KeySpec("number", "junction capacitance, femtofarads", default=0.0),
    "inductance_nH": KeySpec("number", "island inductance, nanohenries", required=True, positive=True),
    "e_josephson_GHz": KeySpec("number", "junction energy E_J/h, gigahertz", required=True),
}
_DRIVE_KEYS = {
    "drive_amplitude_uV": KeySpec("number", "drive amplitude, microvolts", required=True),
    "drive_frequency_MHz": KeySpec("number", "drive frequency omega/2pi, megahertz",
                                   required=True, positive=True),
}
_DRIVE_ALIASES = {"volts": "drive_amplitude_uV", "voltage": "drive_amplitude_uV",
                  "frequency": "drive_frequency_MHz"}
_N_SAMPLES = KeySpec("int", "number of output samples", default=2001, minimum=2)


def _circuit_params(p: Mapping[str, Any]) -> CircuitParams:
    """CircuitParams from the element keys, each named <field>_<unit>."""
    keys = {key.rsplit("_", 1)[0]: key for key in _CIRCUIT_ELEMENT_KEYS}
    return _make(CircuitParams, keys, **{
        name: _ghz_to_joule(p[key], key) if key.endswith("_GHz")
        else p[key] * (1e-9 if key.endswith("_nH") else 1e-15)
        for name, key in keys.items()})


def _drive(p: Mapping[str, Any], **extra: Any) -> DriveWaveform:
    """The sinusoidal drive of the _DRIVE_KEYS in ``p``, with ``extra`` arguments."""
    keys = {"amplitude": "drive_amplitude_uV", "omega": "drive_frequency_MHz",
            "phase0": "drive_phase0_rad"}
    return _make(DriveWaveform.sinusoid, keys, amplitude=p["drive_amplitude_uV"] * 1e-6,
                 omega=2.0 * math.pi * p["drive_frequency_MHz"] * 1e6, **extra)


# CircuitDynamics: the driven junction's trajectory.
_CIRCUIT_DYNAMICS_KEYS = {
    "preset": KeySpec("string", "named parameter preset", choices=("fig3",)),
    **_CIRCUIT_ELEMENT_KEYS,
    **_DRIVE_KEYS,
    "drive_phase0_rad": KeySpec("number", "drive phase offset, radians", default=0.0),
    "t_end_ns": KeySpec("number", "integration end time, nanoseconds", required=True, positive=True),
    "n_samples": _N_SAMPLES,
    "drive_t_on_ns": KeySpec("number", "drive-on time, nanoseconds", default=0.0),
    "drive_t_off_ns": KeySpec("number", "drive-off time, nanoseconds (not given = never)"),
    "drive_switch": KeySpec("string", "switching profile", default="ramp", choices=("ramp", "instant")),
    "ramp_periods": KeySpec("number", "ramp length in drive periods", default=5.0),
    "initial_phi_rad": KeySpec("number", "initial phase difference, radians", default=0.0),
    "initial_phidot_rad_per_s": KeySpec("number", "initial phase rate, rad/s", default=0.0),
}


def _build_circuit_dynamics(p: Mapping[str, Any], numerics: Mapping[str, Any]) -> SimpleNamespace:
    circuit = _lib("circuit")
    keys = {"t_on": "drive_t_on_ns", "t_off": "drive_t_off_ns", "ramp_duration": "ramp_periods"}
    params = _circuit_params(p)
    drive = _drive(p, phase0=p["drive_phase0_rad"])
    t_off = p.get("drive_t_off_ns")
    envelope = None
    if t_off is not None or p["drive_t_on_ns"] > 0.0:
        ramp = (0.0 if p["drive_switch"] == "instant"
                else p["ramp_periods"] * 2.0 * math.pi / drive.omega)
        envelope = _make(circuit.DriveEnvelope, keys, t_on=p["drive_t_on_ns"] * 1e-9,
                         t_off=None if t_off is None else t_off * 1e-9, ramp_duration=ramp)
    control = circuit.StepControl(**numerics)
    return SimpleNamespace(p=p, params=params, drive=drive, envelope=envelope, control=control)


def _circuit_dynamics(i: SimpleNamespace) -> tuple[Any, Any]:
    circuit, p = _lib("circuit"), i.p
    eom = circuit.build_eom(i.params, i.drive)
    return eom, circuit.integrate_trajectory(
        eom, p["initial_phi_rad"], p["initial_phidot_rad_per_s"], (0.0, p["t_end_ns"] * 1e-9),
        i.control, envelope=i.envelope, n_samples=p["n_samples"])


# PotentialLandscape: U(phi) and its wells.
_LANDSCAPE_KEYS = {
    "preset": KeySpec("string", "named parameter preset", choices=("fig4",)),
    "e_inductive_GHz": KeySpec("number", "inductive energy E_L/h, gigahertz", required=True,
                               positive=True),
    "e_josephson_GHz": KeySpec("number", "junction energy E_J/h, gigahertz", required=True),
    "phi_min_rad": KeySpec("number", "lower phase bound, radians", default=-4.0 * math.pi),
    "phi_max_rad": KeySpec("number", "upper phase bound, radians", default=4.0 * math.pi),
    "n_points": KeySpec("int", "grid resolution", default=4001, minimum=3),
}


def _build_landscape(p: Mapping[str, Any], numerics: Mapping[str, Any]) -> SimpleNamespace:
    if not p["phi_max_rad"] > p["phi_min_rad"]:  # no value type holds the range
        raise ConfigError(f"phi_max_rad ({p['phi_max_rad']:g}) must exceed "
                          f"phi_min_rad ({p['phi_min_rad']:g})")
    keys = {"e_inductive": "e_inductive_GHz", "e_josephson": "e_josephson_GHz"}
    energies = {name: _ghz_to_joule(p[key], key) for name, key in keys.items()}
    _make(_lib("circuit")._potential_factory, keys, **energies)  # the kernel's guard
    return SimpleNamespace(**energies, n_points=p["n_points"],
                           phi_range=(p["phi_min_rad"], p["phi_max_rad"]))


# ElectricSidebands: the Jacobi-Anger spectrum of a charge in a sinusoidal drive.
_ELECTRIC_KEYS = {
    "charge_in_e": KeySpec("number", "carrier charge in units of e", default=2.0),
    **_DRIVE_KEYS,
}


def _electric_sidebands(i: SimpleNamespace) -> tuple[float, Any]:
    """The modulation depth and its spectrum."""
    spectral = _lib("spectral")
    alpha = i.drive.modulation_depth(i.charge)
    truncation = spectral.default_truncation(alpha) if i.truncation is None else i.truncation
    return alpha, spectral.jacobi_anger_coeffs(alpha, truncation, omega=i.drive.omega)


# FloquetDecompose: the Floquet sidebands of a periodic potential.
_FLOQUET_KEYS = {
    "waveform": KeySpec("string", "drive kind", required=True, choices=("sinusoid", "sampled")),
    "frequency_MHz": KeySpec("number", "modulation frequency omega/2pi, megahertz",
                             required=True, positive=True),
    "u0_over_h_GHz": KeySpec("number", "potential amplitude U0/h, gigahertz", required=True,
                             when=("waveform", "sinusoid")),
    "phase0_rad": KeySpec("number", "potential phase offset, radians", default=0.0,
                          when=("waveform", "sinusoid")),
    "samples_t_ns": KeySpec("list", "sample times over one period, nanoseconds", required=True,
                            when=("waveform", "sampled")),
    "samples_u_over_h_GHz": KeySpec("list", "sampled potential U/h, gigahertz", required=True,
                                    when=("waveform", "sampled")),
    "base_energy_over_h_GHz": KeySpec("number", "unperturbed energy E/h, gigahertz", default=0.0),
    "residual_tol": KeySpec("number", "max reconstruction residual", default=1e-8, positive=True),
}


def _build_floquet(p: Mapping[str, Any], numerics: Mapping[str, Any]) -> SimpleNamespace:
    keys = {"amplitude": "u0_over_h_GHz", "omega": "frequency_MHz", "phase0": "phase0_rad",
            "times": "samples_t_ns", "values": "samples_u_over_h_GHz"}
    omega = 2.0 * math.pi * p["frequency_MHz"] * 1e6
    if p["waveform"] == "sinusoid":
        potential = _make(DriveWaveform.sinusoid, keys, omega=omega, phase0=p["phase0_rad"],
                          amplitude=_ghz_to_joule(p["u0_over_h_GHz"], "u0_over_h_GHz"))
    else:
        potential = _make(DriveWaveform.sampled, keys,
                          times=[t * 1e-9 for t in p["samples_t_ns"]],
                          values=[_ghz_to_joule(u, "samples_u_over_h_GHz")
                                  for u in p["samples_u_over_h_GHz"]])
        expected = 2.0 * math.pi / omega
        if abs(potential.period - expected) > 1e-9 * expected:
            raise ConfigError("sample span must equal one period of frequency_MHz")
    return SimpleNamespace(potential=potential, truncation=numerics.get("truncation_n"),
                           base_energy=_ghz_to_joule(p["base_energy_over_h_GHz"],
                                                     "base_energy_over_h_GHz"),
                           residual_tol=p["residual_tol"])


# GravRedshift: the sidebands of an atom in a modulated mass shell.
_GRAV_REDSHIFT_KEYS = {
    "preset": KeySpec("string", "named parameter preset", choices=("earth-shell",)),
    "m0_kg": KeySpec("number", "DC shell mass, kilograms", required=True),
    "m1_kg": KeySpec("number", "AC shell mass amplitude, kilograms", required=True),
    "radius_m": KeySpec("number", "shell radius, meters", required=True, positive=True),
    "modulation_frequency_Hz": KeySpec("number", "shell modulation omega/2pi, hertz",
                                       required=True, positive=True),
    "atom_rest_mass_kg": KeySpec("number", "lower-level rest mass, kilograms",
                                 required=True, positive=True),
    "transition_energy_eV": KeySpec("number", "level splitting, electronvolts",
                                    required=True, positive=True),
}


def _build_grav_redshift(p: Mapping[str, Any], numerics: Mapping[str, Any]) -> SimpleNamespace:
    keys = {"m0": "m0_kg", "m1": "m1_kg", "radius": "radius_m",
            "omega": "modulation_frequency_Hz", "rest_mass_i": "atom_rest_mass_kg",
            "transition_energy": "transition_energy_eV"}
    shell = _make(MassShell, keys, m0=p["m0_kg"], m1=p["m1_kg"], radius=p["radius_m"],
                  omega=2.0 * math.pi * p["modulation_frequency_Hz"])
    atom = _make(TwoLevelAtom, keys, rest_mass_i=p["atom_rest_mass_kg"],
                 transition_energy=p["transition_energy_eV"] * E_CHARGE)
    return SimpleNamespace(atom=atom, shell=shell, truncation_n=numerics.get("truncation_n"))


# GravPhase: the phase accumulated inside an exploding mass shell.
_GRAV_PHASE_KEYS = {
    "preset": KeySpec("string", "named parameter preset", choices=("supernova-shell",)),
    "shell_mass_kg": KeySpec("number", "fixed shell mass, kilograms", required=True, minimum=0.0),
    "radius_start_m": KeySpec("number", "initial shell radius, meters", required=True, positive=True),
    "expansion_speed_m_per_s": KeySpec("number", "radial speed, m/s", required=True),
    "system_mass_kg": KeySpec("number", "enclosed system mass, kilograms", required=True, positive=True),
    "t_end_s": KeySpec("number", "phase accumulation window, seconds", required=True, positive=True),
    "n_samples": _N_SAMPLES,
}


def _build_grav_phase(p: Mapping[str, Any], numerics: Mapping[str, Any]) -> SimpleNamespace:
    end = p["radius_start_m"] + p["expansion_speed_m_per_s"] * p["t_end_s"]  # r(t) is linear
    if not end > 0.0:  # no value type holds the shell
        raise ConfigError(f"radius_start_m, expansion_speed_m_per_s, t_end_s: the shell radius "
                          f"at t_end_s ({end:g} m) must be positive")
    return SimpleNamespace(shell_mass=p["shell_mass_kg"], radius_start=p["radius_start_m"],
                           speed=p["expansion_speed_m_per_s"], system_mass=p["system_mass_kg"],
                           grid=(0.0, p["t_end_s"], p["n_samples"]))


# BulkPhase: the net phase of the species in a driven bulk.
_BULK_KEYS = {
    **_DRIVE_KEYS,
    "t_end_ns": KeySpec("number", "accumulation end time, nanoseconds", required=True, positive=True),
    "n_samples": _N_SAMPLES,
    "species": KeySpec("species", "list of species population entries", required=True),
}


def _build_bulk(p: Mapping[str, Any], numerics: Mapping[str, Any]) -> SimpleNamespace:
    ab_phase = _lib("ab_phase")
    keys = {"species": "species", "counts": "species"}
    t_end = p["t_end_ns"] * 1e-9
    species = []
    for entry in p["species"]:
        if "count" in entry:
            counts = ((0.0, entry["count"]), (t_end, entry["count"]))
        else:
            counts = tuple((t * 1e-9, n) for t, n in zip(entry["counts_t_ns"], entry["counts_n"]))
        species.append(_make(ab_phase.SpeciesCount, keys, counts=counts,
                             species=ab_phase.Species(entry["species"])))
    return SimpleNamespace(species=species, drive=_drive(p), grid=(0.0, t_end, p["n_samples"]))


EXPERIMENTS: dict[str, Experiment] = {
    "CircuitDynamics": Experiment(
        _CIRCUIT_DYNAMICS_KEYS, "csv", _build_circuit_dynamics, _circuit_dynamics,
        write=lambda result, path: result[1].to_csv(path),
        summary=lambda i, result: (
            f"omega0/2pi={result[0].small_oscillation_frequency / (2e9 * math.pi):.4g} GHz "
            f"alpha={i.drive.modulation_depth(2.0 * E_CHARGE):.4g}"),
        numerics=_TOLERANCES,
        aliases={**_DRIVE_ALIASES, "amplitude": "drive_amplitude_uV",
                 "v0": "drive_amplitude_uV", "omega": "drive_frequency_MHz",
                 "duration": "t_end_ns", "inductance": "inductance_nH"}),
    "PotentialLandscape": Experiment(
        _LANDSCAPE_KEYS, "json", _build_landscape,
        lambda i: _lib("circuit").potential_landscape(i.e_inductive, i.e_josephson,
                                                      i.phi_range, i.n_points),
        write=lambda landscape, path: _write_json(path, landscape.to_dict()),
        summary=lambda i, landscape: f"minima={len(landscape.minima)}",
        aliases={"el": "e_inductive_GHz", "ej": "e_josephson_GHz"}),
    "ElectricSidebands": Experiment(
        _ELECTRIC_KEYS, "json", lambda p, numerics: SimpleNamespace(
            drive=_drive(p), charge=p["charge_in_e"] * E_CHARGE,
            truncation=numerics.get("truncation_n")), _electric_sidebands,
        write=lambda r, path: _write_json(path, r[1].to_dict()),
        summary=lambda i, r: f"alpha={r[0]:.6g} truncation_n={r[1].truncation_n}",
        numerics=_TRUNCATION,
        aliases={**_DRIVE_ALIASES, "charge": "charge_in_e"}),
    "FloquetDecompose": Experiment(
        _FLOQUET_KEYS, "json", _build_floquet,
        lambda i: _lib("spectral").floquet_decompose(i.potential, i.base_energy, i.truncation,
                                                     residual_tol=i.residual_tol),
        write=lambda d, path: _write_json(path, d.to_dict()),
        summary=lambda i, d: (f"quasi_energy/h={d.quasi_energy / PLANCK_H / 1e9:.6g} GHz "
                              f"truncation_n={d.truncation_n} residual={d.residual:.3g}"),
        numerics=_TRUNCATION,
        aliases={"amplitude": "u0_over_h_GHz", "frequency": "frequency_MHz"}),
    "GravRedshift": Experiment(
        _GRAV_REDSHIFT_KEYS, "json", _build_grav_redshift,
        lambda i: _lib("redshift").sideband_record(i.atom, i.shell, i.truncation_n),
        write=lambda record, path: _write_json(path, record),
        summary=lambda i, record: (f"delta_alpha={record['delta_alpha']:.6g} "
                                   f"fractional_shift={record['carrier_fractional_shift']:.6g}"),
        numerics=_TRUNCATION,
        aliases={"mass": "m0_kg", "radius": "radius_m", "frequency": "modulation_frequency_Hz"}),
    "GravPhase": Experiment(
        _GRAV_PHASE_KEYS, "csv", _build_grav_phase,
        lambda i: _lib("redshift").exploding_shell_phase(
            i.shell_mass, i.radius_start, i.speed, i.system_mass, np.linspace(*i.grid)),
        write=_write_phase, summary=_phase_summary),
    "BulkPhase": Experiment(
        _BULK_KEYS, "csv", _build_bulk,
        lambda i: _lib("ab_phase").net_bulk_phase(i.species, i.drive, np.linspace(*i.grid)),
        write=_write_phase, summary=_phase_summary, aliases=_DRIVE_ALIASES),
}

PRESETS: dict[str, dict[str, Any]] = {
    # Element values solved so the linearized small-oscillation frequency is
    # 8.5 GHz with E_J = 25 GHz*h and E_L = 1 GHz*h (one consistent choice; the
    # individual element values are not uniquely determined by that
    # constraint).  Instantaneous switch-off keeps a visible free oscillation
    # after the drive window; a slow ramp would shut it down adiabatically.
    "fig3": {"experiment": "CircuitDynamics",
             "parameters": {"c_sigma_fF": 55.76481251856608, "c_prime_fF": 55.76481251856608,
                            "c_gate_fF": 1.0, "c_sphere_fF": 5600.0, "c_josephson_fF": 10.0,
                            "inductance_nH": 163.46151260646912, "e_josephson_GHz": 25.0,
                            "drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0,
                            "t_end_ns": 20.0, "drive_t_off_ns": 12.0,
                            "drive_switch": "instant", "n_samples": 2001}},
    "fig4": {"experiment": "PotentialLandscape",
             "parameters": {"e_inductive_GHz": 1.0, "e_josephson_GHz": 25.0,
                            "phi_min_rad": -4.0 * math.pi, "phi_max_rad": 4.0 * math.pi,
                            "n_points": 4001}},
    "earth-shell": {"experiment": "GravRedshift",
                    "parameters": {"m0_kg": 5.972e24, "m1_kg": 1.0e10,
                                   "radius_m": 6.371e6, "modulation_frequency_Hz": 1.0e-3,
                                   "atom_rest_mass_kg": 1.44316060e-25,  # Rb-87
                                   "transition_energy_eV": 1.589}},      # D2 line
    "supernova-shell": {"experiment": "GravPhase",
                        "parameters": {"shell_mass_kg": 2.8e30,
                                       "radius_start_m": 7.0e8,
                                       "expansion_speed_m_per_s": 1.0e7,
                                       "system_mass_kg": 9.4526e-26,  # Fe-57
                                       "t_end_s": 100.0, "n_samples": 2001}},
}

# The output section's keys; a missing or null one takes the experiment's default.
_OUTPUT_KEYS = {"path": KeySpec("string", "output file path"),
                "format": KeySpec("string", "output format", choices=("csv", "json"))}

_TYPES = {"number": ((int, float), "a number"), "int": (int, "an integer"),
          "string": (str, "a string")}


def _float(value: int | float) -> float:
    """``value`` as a float; an int beyond the float range is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _validate(raw: Mapping[str, Any], keys: Mapping[str, KeySpec], where: str,
              aliases: Mapping[str, str]) -> dict[str, Any]:
    """The values of ``raw`` checked against ``keys``; ``where`` names the
    section in messages.  A null value is left out."""
    out: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in keys:
            # cutoff 0 names the closest key whenever there is one
            suggestion = aliases.get(key.lower()) or next(iter(difflib.get_close_matches(
                key, list(keys), n=1, cutoff=0.0)), None)
            raise ConfigError(f"unknown key '{key}' in {where}; " + (
                f"did you mean '{suggestion}'?" if suggestion else "no key is valid there"))
        spec = keys[key]
        if value is None:
            continue
        if spec.kind in _TYPES:
            types, noun = _TYPES[spec.kind]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(
                    f"key '{key}' in {where} must be {noun} ({spec.unit}); got {value!r}")
            if spec.kind == "number":
                value = _float(value)
                if not math.isfinite(value):
                    raise ConfigError(f"key '{key}' in {where} is not finite")
                if spec.positive and value <= 0.0:
                    raise ConfigError(f"key '{key}' in {where} must be positive ({spec.unit})")
            if spec.choices and value not in spec.choices:
                raise ConfigError(f"key '{key}' in {where} must be one of "
                                  f"{list(spec.choices)}; got {value!r}")
        elif spec.kind == "list":
            if not isinstance(value, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
                raise ConfigError(
                    f"key '{key}' in {where} must be a list of numbers ({spec.unit})")
            value = [_float(v) for v in value]
            if not all(map(math.isfinite, value)):
                raise ConfigError(f"key '{key}' in {where} has an entry that is not finite")
        else:  # "species"
            value = _validate_species(key, value, where)
        if spec.minimum is not None and value < spec.minimum:
            raise ConfigError(f"key '{key}' in {where} must be at least "
                              f"{spec.minimum} ({spec.unit}); got {value}")
        out[key] = value
    return out


def _validate_species(key: str, value: Any, where: str) -> list[dict[str, Any]]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' in {where} must be a non-empty list of species entries")
    keys = {"species": KeySpec("string", "species name", choices=tuple(
                s.value for s in _lib("ab_phase").Species)),
            "count": KeySpec("number", "constant population"),
            "counts_t_ns": KeySpec("list", "population times, nanoseconds"),
            "counts_n": KeySpec("list", "populations at those times")}
    entries = []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ConfigError(f"key '{key}' entry {i} must be an object")
        checked = _validate(entry, keys, f"entry {i} of {key}", {})
        series = "counts_t_ns" in checked and "counts_n" in checked
        if ("species" not in checked or ("count" in checked) == series
                or series and len(checked["counts_t_ns"]) != len(checked["counts_n"])):
            raise ConfigError(f"key '{key}' entry {i}: give 'species' and either 'count' or "
                              "both 'counts_t_ns' and 'counts_n', of equal length")
        entries.append(checked)
    return entries


def _read_object(text: str) -> dict[str, Any]:
    """The JSON object in ``text``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not well-formed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return data


def _section(data: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    section = data.get(name, {})
    if not isinstance(section, Mapping):
        raise ConfigError(f"'{name}' must be a JSON object")
    return section


def parse_config(text: str | Mapping[str, Any]) -> ExperimentConfig:
    """Parse, validate and build a JSON config document, given as text or
    as the object already read from it (which is not modified).  Raises
    :class:`ConfigError` naming the offending keys, with the nearest valid
    key, the expected unit, the required keys or a value type's message."""
    data = _read_object(text) if isinstance(text, str) else text
    if not data:
        required = sorted(k for k, s in EXPERIMENTS["CircuitDynamics"].keys.items()
                          if s.required)
        raise ConfigError(
            "empty config; required sections are 'experiment' and 'parameters' "
            f"(e.g. for CircuitDynamics the required parameter keys are {required})")
    if unknown := set(data) - {"experiment", "parameters", "output", "numerics"}:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}; valid sections are "
                          "['experiment', 'parameters', 'output', 'numerics']")
    experiment = data.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid experiments are {list(EXPERIMENTS)}")
    entry = EXPERIMENTS[experiment]

    where = f"{experiment} parameters"
    given = _validate(_section(data, "parameters"), entry.keys, where, entry.aliases)
    # the user's values over the preset's over the defaults; a null keeps the
    # value beneath it, and preset values go through the same checks
    preset = PRESETS[given.pop("preset")]["parameters"] if "preset" in given else {}
    chosen = {**_validate(preset, entry.keys, where, {}), **given}
    params = {key: spec.default for key, spec in entry.keys.items() if spec.default is not None}
    params.update(chosen)
    # a key another key's value leaves unread takes no default, and naming it is an error
    unread = {key for key, spec in entry.keys.items()
              if spec.when and params.get(spec.when[0]) != spec.when[1]}
    missing = [key for key, spec in entry.keys.items()
               if spec.required and key not in params and key not in unread]
    if missing:
        details = ", ".join(f"'{k}' ({entry.keys[k].unit})" for k in missing)
        raise ConfigError(f"missing required keys for {experiment}: {details}")
    if misplaced := [key for key in chosen if key in unread]:
        on, value = entry.keys[misplaced[0]].when
        raise ConfigError(f"key '{misplaced[0]}' in {where} is read only when {on} is "
                          f"{value!r}; this config's {on} is {params.get(on)!r}")
    params = {key: value for key, value in params.items() if key not in unread}

    output = _validate(_section(data, "output"), _OUTPUT_KEYS, "output", {})
    fmt = output.get("format", entry.output)
    if fmt != entry.output:
        raise ConfigError(f"{experiment} writes '{entry.output}' output, so only format "
                          f"'{entry.output}' is supported; got format {fmt!r}")
    path = output.get("path", re.sub(r"(?<=.)(?=[A-Z])", "_", experiment).lower() + "." + fmt)
    if not path:
        raise ConfigError("key 'path' in output must not be empty")
    if os.path.isdir(path):
        raise ConfigError(f"output.path {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"output.path {path!r}: directory "
                          f"{os.path.dirname(path)!r} does not exist")

    numerics = _validate(_section(data, "numerics"), entry.numerics, "numerics", {})
    return ExperimentConfig(experiment=experiment, parameters=params, output_path=path,
                            inputs=entry.build(params, numerics))


def run_experiment(config: ExperimentConfig) -> int:
    """Run one parsed config: the kernel on its built inputs, then the
    writer of exactly the declared output file, then a one-line summary.
    Numeric failures from the physics modules propagate to the caller."""
    entry = EXPERIMENTS[config.experiment]
    result = entry.kernel(config.inputs)
    entry.write(result, config.output_path)
    print(f"{config.experiment}: {entry.summary(config.inputs, result)} -> "
          f"{config.output_path}")
    return EXIT_OK


def _load_config(target: str | None, config_path: str | None,
                 out: str | None, fmt: str | None) -> ExperimentConfig:
    """The config a command line names: the document at ``config_path``
    (none: an empty one) run as the experiment ``target``, or as a preset
    target's experiment with ``parameters.preset`` set to it, and ``out``
    and ``fmt`` as its output path and format.  :func:`parse_config` lays
    the preset under the document's parameters."""
    if target is not None and target not in PRESETS and target not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment or preset '{target}'; experiments: "
            f"{list(EXPERIMENTS)}; presets: {sorted(PRESETS)}")
    doc: dict[str, Any] = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                doc = _read_object(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {config_path!r} is not UTF-8 text: {exc}") from exc
    asked = PRESETS[target]["experiment"] if target in PRESETS else target
    if asked is not None and doc.setdefault("experiment", asked) != asked:
        by = f"preset '{target}' runs" if target in PRESETS else "the command line requested"
        raise ConfigError(f"config declares experiment {doc['experiment']!r} but {by} {asked!r}")
    if target in PRESETS:
        params = doc["parameters"] = dict(_section(doc, "parameters"))
        if params.get("preset") is None:  # a null keeps the target beneath it
            params["preset"] = target
    if out is not None or fmt is not None:
        output = doc["output"] = dict(_section(doc, "output"))
        if out is not None:
            output["path"] = out
        if fmt is not None:
            output["format"] = fmt
    return parse_config(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalar-ab",
        description="Scalar AB effect simulations: Josephson circuit dynamics, "
                    "FM sideband spectra, gravitational redshift.")
    parser.add_argument("target", nargs="?",
                        help="experiment name or preset name "
                             f"(experiments: {', '.join(EXPERIMENTS)}; "
                             f"presets: {', '.join(sorted(PRESETS))})")
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument("--out", help="override output file path")
    parser.add_argument("--format", choices=("csv", "json"), help="override output format")
    parser.add_argument("--dump-preset", metavar="NAME",
                        help="print the named preset as config text and exit")
    parser.add_argument("--sweep", nargs="+", metavar="CONFIG",
                        help="run several independent configs one after another")
    return parser


def _run_reporting_failures(config: ExperimentConfig) -> int:
    """Run one config.  Each failure is a one-line message: a numeric one,
    or an array too large to allocate, exits 2, an output file that cannot
    be written 1, and a scipy that cannot run the integrator (the one import
    a run can fail) 3."""
    try:
        return run_experiment(config)
    except (IntegrationError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ImportError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY_ERROR


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.dump_preset is not None:
            preset = PRESETS.get(args.dump_preset)
            if preset is None:
                raise ConfigError(f"unknown preset '{args.dump_preset}'; "
                                  f"available: {sorted(PRESETS)}")
            print(json.dumps(preset, indent=2, sort_keys=True))
            return EXIT_OK
        if args.sweep:
            if ignored := [f"{name} {value!r}" for name, value in (
                    ("target", args.target), ("--config", args.config), ("--out", args.out),
                    ("--format", args.format)) if value is not None]:
                raise ConfigError("--sweep runs each config as written and takes no target, "
                                  f"--config, --out or --format; got {', '.join(ignored)}")
            # every config is parsed and built before any kernel runs
            configs = [_load_config(None, path, None, None) for path in args.sweep]
            paths = [c.output_path for c in configs]
            if len(set(paths)) != len(paths):
                raise ConfigError("sweep configs must declare distinct output paths")
        elif args.target is None and args.config is None:
            build_parser().print_usage(sys.stderr)
            return EXIT_CONFIG_ERROR
        else:
            configs = [_load_config(args.target, args.config, args.out, args.format)]
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    return max(_run_reporting_failures(config) for config in configs)


if __name__ == "__main__":
    raise SystemExit(main())
