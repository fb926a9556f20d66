"""Command-line front end: strict config parsing, experiment presets,
dispatch to the physics modules, and deterministic file output.

Config documents are JSON with four sections::

    {
      "experiment": "CircuitDynamics",
      "parameters": { ... per-experiment keys, units in the key names ... },
      "output":     {"path": "run.csv", "format": "csv"},
      "numerics":   {"rel_tol": 1e-10, "abs_tol": 1e-12,
                     "truncation_n": null, "seed": null}
    }

Frequency-valued keys carry explicit unit suffixes (``_GHz``, ``_MHz``,
``_Hz``) and always denote cycles per second (omega/2pi); they are converted
to angular frequency internally.  Unknown keys are rejected naming the
nearest valid key; missing required keys are rejected naming the key and its
unit.  Identical configs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

# scalar_ab makes no BLAS call, so a CLI process that is the first to load
# numpy starts OpenBLAS with one thread instead of an idle pool.  A caller's
# own setting wins, and a process that already loaded numpy is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread setting above)

from . import ab_phase, circuit, redshift, spectral
from .core import (E_CHARGE, HBAR, PLANCK_H, CircuitParams, DriveWaveform,
                   MassShell, TwoLevelAtom)

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "run_experiment", "main"]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NUMERIC_FAILURE = 2


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


@dataclass(frozen=True)
class KeySpec:
    kind: str                 # "number" | "int" | "string" | "list" | "species"
    unit: str                 # human description incl. units, used in diagnostics
    required: bool = False
    default: Any = None
    choices: tuple[str, ...] | None = None
    positive: bool = False
    minimum: float | None = None  # least allowed value of a "number" or "int" key


EXPERIMENTS = (
    "CircuitDynamics",
    "PotentialLandscape",
    "ElectricSidebands",
    "FloquetDecompose",
    "GravRedshift",
    "BulkPhase",
)

_CIRCUIT_ELEMENT_KEYS = {
    "c_sigma_fF": KeySpec("number", "total capacitance, femtofarads", required=True, positive=True),
    "c_prime_fF": KeySpec("number", "island capacitance, femtofarads", required=True, positive=True),
    "c_gate_fF": KeySpec("number", "gate capacitance, femtofarads", required=True, positive=True),
    "c_sphere_fF": KeySpec("number", "sphere self-capacitance, femtofarads", required=True, positive=True),
    "c_josephson_fF": KeySpec("number", "junction capacitance, femtofarads", default=0.0,
                              minimum=0.0),
    "inductance_nH": KeySpec("number", "island inductance, nanohenries", required=True, positive=True),
    "e_josephson_GHz": KeySpec("number", "junction energy E_J/h, gigahertz", required=True),
}

SCHEMAS: dict[str, dict[str, KeySpec]] = {
    "CircuitDynamics": {
        "preset": KeySpec("string", "named parameter preset", choices=("fig3",)),
        **_CIRCUIT_ELEMENT_KEYS,
        "drive_amplitude_uV": KeySpec("number", "drive amplitude, microvolts", required=True),
        "drive_frequency_MHz": KeySpec("number", "drive frequency omega/2pi, megahertz",
                                       required=True, positive=True),
        "drive_phase0_rad": KeySpec("number", "drive phase offset, radians", default=0.0),
        "t_end_ns": KeySpec("number", "integration end time, nanoseconds",
                            required=True, positive=True),
        "n_samples": KeySpec("int", "number of output samples", default=2001, minimum=2),
        "drive_t_on_ns": KeySpec("number", "drive-on time, nanoseconds", default=0.0),
        "drive_t_off_ns": KeySpec("number", "drive-off time, nanoseconds (null = never)"),
        "drive_switch": KeySpec("string", "switching profile", default="ramp",
                                choices=("ramp", "instant")),
        "ramp_periods": KeySpec("number", "ramp length in drive periods", default=5.0),
        "initial_phi_rad": KeySpec("number", "initial phase difference, radians", default=0.0),
        "initial_phidot_rad_per_s": KeySpec("number", "initial phase rate, rad/s", default=0.0),
        "method": KeySpec("string", "integrator", default="dop853",
                          choices=("dop853", "rk45", "rk4")),
        "fixed_step_ns": KeySpec("number", "fixed step for rk4, nanoseconds", positive=True),
    },
    "PotentialLandscape": {
        "preset": KeySpec("string", "named parameter preset", choices=("fig4",)),
        "e_inductive_GHz": KeySpec("number", "inductive energy E_L/h, gigahertz",
                                   required=True, positive=True),
        "e_josephson_GHz": KeySpec("number", "junction energy E_J/h, gigahertz", required=True),
        "phi_min_rad": KeySpec("number", "lower phase bound, radians", default=-4.0 * math.pi),
        "phi_max_rad": KeySpec("number", "upper phase bound, radians", default=4.0 * math.pi),
        "n_points": KeySpec("int", "grid resolution", default=4001, minimum=3),
        "c_sigma_fF": KeySpec("number", "total capacitance, femtofarads",
                              default=55.76481251856608, positive=True),
        "c_prime_fF": KeySpec("number", "island capacitance, femtofarads",
                              default=55.76481251856608, positive=True),
        "c_gate_fF": KeySpec("number", "gate capacitance, femtofarads",
                             default=1.0, positive=True),
        "c_sphere_fF": KeySpec("number", "sphere self-capacitance, femtofarads",
                               default=5600.0, positive=True),
    },
    "ElectricSidebands": {
        "charge_in_e": KeySpec("number", "carrier charge in units of e", default=2.0),
        "drive_amplitude_uV": KeySpec("number", "drive amplitude, microvolts", required=True),
        "drive_frequency_MHz": KeySpec("number", "drive frequency omega/2pi, megahertz",
                                       required=True, positive=True),
    },
    "FloquetDecompose": {
        "waveform": KeySpec("string", "drive kind", required=True,
                            choices=("sinusoid", "sampled")),
        "frequency_MHz": KeySpec("number", "modulation frequency omega/2pi, megahertz",
                                 positive=True),
        "u0_over_h_GHz": KeySpec("number", "potential amplitude U0/h, gigahertz"),
        "phase0_rad": KeySpec("number", "potential phase offset, radians", default=0.0),
        "samples_t_ns": KeySpec("list", "sample times over one period, nanoseconds"),
        "samples_u_over_h_GHz": KeySpec("list", "sampled potential U/h, gigahertz"),
        "base_energy_over_h_GHz": KeySpec("number", "unperturbed energy E/h, gigahertz",
                                          default=0.0),
        "residual_tol": KeySpec("number", "max reconstruction residual", default=1e-8,
                                positive=True),
    },
    "GravRedshift": {
        "preset": KeySpec("string", "named parameter preset",
                          choices=("earth-shell", "supernova-shell")),
        "mode": KeySpec("string", "scenario", default="sidebands",
                        choices=("sidebands", "exploding-shell")),
        "m0_kg": KeySpec("number", "DC shell mass, kilograms"),
        "m1_kg": KeySpec("number", "AC shell mass amplitude, kilograms"),
        "radius_m": KeySpec("number", "shell radius, meters", positive=True),
        "modulation_frequency_Hz": KeySpec("number", "shell modulation omega/2pi, hertz",
                                           positive=True),
        "atom_rest_mass_kg": KeySpec("number", "lower-level rest mass, kilograms",
                                     positive=True),
        "transition_energy_eV": KeySpec("number", "level splitting, electronvolts",
                                        positive=True),
        "shell_mass_kg": KeySpec("number", "fixed shell mass, kilograms (exploding mode)"),
        "radius_start_m": KeySpec("number", "initial shell radius, meters (exploding mode)",
                                  positive=True),
        "expansion_speed_m_per_s": KeySpec("number", "radial speed, m/s (exploding mode)"),
        "system_mass_kg": KeySpec("number", "enclosed system mass, kilograms (exploding mode)",
                                  positive=True),
        "t_end_s": KeySpec("number", "phase accumulation window, seconds (exploding mode)",
                           positive=True),
        "n_samples": KeySpec("int", "number of output samples", default=2001, minimum=2),
    },
    "BulkPhase": {
        "drive_amplitude_uV": KeySpec("number", "drive amplitude, microvolts", required=True),
        "drive_frequency_MHz": KeySpec("number", "drive frequency omega/2pi, megahertz",
                                       required=True, positive=True),
        "t_end_ns": KeySpec("number", "accumulation end time, nanoseconds",
                            required=True, positive=True),
        "n_samples": KeySpec("int", "number of output samples", default=2001, minimum=2),
        "species": KeySpec("species", "list of species population entries", required=True),
    },
}

# Per-experiment modes relax/raise requirements beyond the static flags.
_GRAV_SIDEBAND_KEYS = ("m0_kg", "m1_kg", "radius_m", "modulation_frequency_Hz",
                       "atom_rest_mass_kg", "transition_energy_eV")
_GRAV_EXPLODING_KEYS = ("shell_mass_kg", "radius_start_m", "expansion_speed_m_per_s",
                        "system_mass_kg", "t_end_s")

# Common misspellings / synonyms mapped to canonical keys, per experiment.
ALIASES: dict[str, dict[str, str]] = {
    "CircuitDynamics": {
        "volts": "drive_amplitude_uV",
        "voltage": "drive_amplitude_uV",
        "amplitude": "drive_amplitude_uV",
        "v0": "drive_amplitude_uV",
        "frequency": "drive_frequency_MHz",
        "omega": "drive_frequency_MHz",
        "duration": "t_end_ns",
        "inductance": "inductance_nH",
    },
    "ElectricSidebands": {
        "volts": "drive_amplitude_uV",
        "voltage": "drive_amplitude_uV",
        "charge": "charge_in_e",
        "frequency": "drive_frequency_MHz",
    },
    "BulkPhase": {
        "volts": "drive_amplitude_uV",
        "voltage": "drive_amplitude_uV",
        "frequency": "drive_frequency_MHz",
    },
    "FloquetDecompose": {
        "amplitude": "u0_over_h_GHz",
        "frequency": "frequency_MHz",
    },
    "GravRedshift": {
        "mass": "m0_kg",
        "radius": "radius_m",
        "frequency": "modulation_frequency_Hz",
    },
    "PotentialLandscape": {
        "el": "e_inductive_GHz",
        "ej": "e_josephson_GHz",
    },
}

_FIG3_PARAMETERS = {
    # Element values solved so the linearized small-oscillation frequency is
    # 8.5 GHz with E_J = 25 GHz*h and E_L = 1 GHz*h (one consistent choice;
    # the individual element values are not uniquely determined by that
    # constraint).  Instantaneous switch-off keeps a visible free oscillation
    # after the drive window; a slow ramp would shut it down adiabatically.
    "c_sigma_fF": 55.76481251856608,
    "c_prime_fF": 55.76481251856608,
    "c_gate_fF": 1.0,
    "c_sphere_fF": 5600.0,
    "c_josephson_fF": 10.0,
    "inductance_nH": 163.46151260646912,
    "e_josephson_GHz": 25.0,
    "drive_amplitude_uV": 1.0,
    "drive_frequency_MHz": 150.0,
    "t_end_ns": 20.0,
    "drive_t_off_ns": 12.0,
    "drive_switch": "instant",
    "n_samples": 2001,
}

PRESETS: dict[str, dict[str, Any]] = {
    "fig3": {"experiment": "CircuitDynamics", "parameters": dict(_FIG3_PARAMETERS)},
    "fig4": {
        "experiment": "PotentialLandscape",
        "parameters": {
            "e_inductive_GHz": 1.0,
            "e_josephson_GHz": 25.0,
            "phi_min_rad": -4.0 * math.pi,
            "phi_max_rad": 4.0 * math.pi,
            "n_points": 4001,
        },
    },
    "earth-shell": {
        "experiment": "GravRedshift",
        "parameters": {
            "mode": "sidebands",
            "m0_kg": 5.972e24,
            "m1_kg": 1.0e10,
            "radius_m": 6.371e6,
            "modulation_frequency_Hz": 1.0e-3,
            "atom_rest_mass_kg": 1.44316060e-25,   # Rb-87
            "transition_energy_eV": 1.589,          # D2 line
        },
    },
    "supernova-shell": {
        "experiment": "GravRedshift",
        "parameters": {
            "mode": "exploding-shell",
            "shell_mass_kg": 2.8e30,
            "radius_start_m": 7.0e8,
            "expansion_speed_m_per_s": 1.0e7,
            "system_mass_kg": 9.4526e-26,           # Fe-57
            "t_end_s": 100.0,
            "n_samples": 2001,
        },
    },
}

_DEFAULT_EXTENSION = {"csv": ".csv", "json": ".json"}
_CSV_EXPERIMENTS = {"CircuitDynamics", "BulkPhase"}


@dataclass(frozen=True)
class Numerics:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    truncation_n: int | None = None
    seed: int | None = None  # reserved; no experiment draws random numbers


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: Mapping[str, Any]
    output_path: str
    output_format: str
    numerics: Numerics = field(default_factory=Numerics)


def _suggest(key: str, experiment: str, valid: Sequence[str]) -> str:
    alias = ALIASES.get(experiment, {}).get(key.lower())
    if alias is not None:
        return alias
    # cutoff 0 always names a key, the closest one
    return difflib.get_close_matches(key, valid, n=1, cutoff=0.0)[0]


def _check_number(key: str, value: Any, spec: KeySpec, experiment: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"key '{key}' in {experiment} parameters must be a number "
            f"({spec.unit}); got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' in {experiment} parameters is not finite")
    if spec.positive and value <= 0.0:
        raise ConfigError(
            f"key '{key}' in {experiment} parameters must be positive ({spec.unit})")
    return value


def _validate_parameters(experiment: str, raw: Mapping[str, Any]) -> dict[str, Any]:
    schema = SCHEMAS[experiment]
    valid_keys = list(schema)
    out: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in schema:
            suggestion = _suggest(key, experiment, valid_keys)
            raise ConfigError(
                f"unknown key '{key}' in parameters for {experiment}; "
                f"did you mean '{suggestion}'?")
        spec = schema[key]
        if value is None:
            continue
        if spec.kind == "number":
            out[key] = _check_number(key, value, spec, experiment)
        elif spec.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"key '{key}' in {experiment} parameters must be an integer "
                    f"({spec.unit}); got {value!r}")
            out[key] = int(value)
        elif spec.kind == "string":
            if not isinstance(value, str):
                raise ConfigError(
                    f"key '{key}' in {experiment} parameters must be a string "
                    f"({spec.unit}); got {value!r}")
            if spec.choices and value not in spec.choices:
                raise ConfigError(
                    f"key '{key}' in {experiment} parameters must be one of "
                    f"{list(spec.choices)}; got {value!r}")
            out[key] = value
        elif spec.kind == "list":
            if not isinstance(value, list) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
                raise ConfigError(
                    f"key '{key}' in {experiment} parameters must be a list of "
                    f"numbers ({spec.unit})")
            out[key] = [float(v) for v in value]
        elif spec.kind == "species":
            out[key] = _validate_species(key, value, experiment)
        else:  # pragma: no cover - schema definition error
            raise AssertionError(f"unhandled KeySpec.kind {spec.kind!r}")
        if spec.minimum is not None and out[key] < spec.minimum:
            raise ConfigError(
                f"key '{key}' in {experiment} parameters must be at least "
                f"{spec.minimum} ({spec.unit}); got {out[key]}")
    return out


def _validate_species(key: str, value: Any, experiment: str) -> list[dict[str, Any]]:
    if not isinstance(value, list) or not value:
        raise ConfigError(
            f"key '{key}' in {experiment} parameters must be a non-empty list of "
            "species entries")
    entries = []
    names = {s.value for s in ab_phase.Species}
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ConfigError(f"key '{key}' entry {i} must be an object")
        unknown = set(entry) - {"species", "count", "counts_t_ns", "counts_n"}
        if unknown:
            raise ConfigError(
                f"key '{key}' entry {i} has unknown sub-keys {sorted(unknown)}; "
                "valid sub-keys are ['species', 'count', 'counts_t_ns', 'counts_n']")
        name = entry.get("species")
        if name not in names:
            raise ConfigError(
                f"key '{key}' entry {i}: species must be one of {sorted(names)}")
        has_const = "count" in entry
        has_series = "counts_t_ns" in entry and "counts_n" in entry
        if has_const == has_series:
            raise ConfigError(
                f"key '{key}' entry {i}: give either 'count' or both "
                "'counts_t_ns' and 'counts_n'")
        entries.append(entry)
    return entries


def _expand_preset(experiment: str, params: dict[str, Any]) -> dict[str, Any]:
    """The raw ``params`` laid over the preset they name; a null value keeps
    the preset's.  The ``preset`` key is checked here like any other key."""
    if params.get("preset") is None:
        return params
    name = _validate_parameters(experiment, {"preset": params.pop("preset")})["preset"]
    preset = PRESETS.get(name)
    if preset is None or preset["experiment"] != experiment:
        raise ConfigError(f"unknown preset '{name}' for experiment {experiment}")
    merged = dict(preset["parameters"])
    merged.update((k, v) for k, v in params.items() if v is not None or k not in merged)
    return merged


def _check_required(experiment: str, params: Mapping[str, Any]) -> None:
    schema = SCHEMAS[experiment]
    required = [k for k, spec in schema.items() if spec.required]
    if experiment == "GravRedshift":
        mode = params.get("mode", "sidebands")
        required += list(_GRAV_SIDEBAND_KEYS if mode == "sidebands" else _GRAV_EXPLODING_KEYS)
    if experiment == "FloquetDecompose":
        required += ["frequency_MHz"]
        if params.get("waveform") == "sinusoid":
            required += ["u0_over_h_GHz"]
        elif params.get("waveform") == "sampled":
            required += ["samples_t_ns", "samples_u_over_h_GHz"]
    missing = [k for k in required if k not in params]
    if missing:
        details = ", ".join(f"'{k}' ({schema[k].unit})" for k in missing)
        raise ConfigError(f"missing required keys for {experiment}: {details}")


def _read_object(text: str) -> dict[str, Any]:
    """The JSON object in ``text``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not well-formed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    return data


def parse_config(text: str | Mapping[str, Any]) -> ExperimentConfig:
    """Parse and validate a JSON config document, given as text or as the
    object already read from it (which is not modified).

    Raises :class:`ConfigError` naming the offending key (with the nearest
    valid key, the expected unit, or the list of required keys).
    """
    data = _read_object(text) if isinstance(text, str) else text
    if not data:
        required = sorted(k for k, s in SCHEMAS["CircuitDynamics"].items() if s.required)
        raise ConfigError(
            "empty config; required sections are 'experiment' and 'parameters' "
            f"(e.g. for CircuitDynamics the required parameter keys are {required})")
    unknown = set(data) - {"experiment", "parameters", "output", "numerics"}
    if unknown:
        raise ConfigError(
            f"unknown top-level keys {sorted(unknown)}; valid sections are "
            "['experiment', 'parameters', 'output', 'numerics']")
    experiment = data.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid experiments are {list(EXPERIMENTS)}")

    raw_params = data.get("parameters", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("'parameters' must be a JSON object")
    # preset values go through the same checks as the user's
    params = _validate_parameters(experiment, _expand_preset(experiment, dict(raw_params)))
    _apply_defaults(experiment, params)
    _check_required(experiment, params)

    if (experiment == "CircuitDynamics" and params.get("drive_t_off_ns") is not None
            and params["drive_t_off_ns"] <= params["drive_t_on_ns"]):
        raise ConfigError(
            f"drive_t_off_ns ({params['drive_t_off_ns']:g}) must be later than "
            f"drive_t_on_ns ({params['drive_t_on_ns']:g}); the drive would never turn on")
    if (experiment == "CircuitDynamics" and params["method"] == "rk4"
            and "fixed_step_ns" not in params):
        raise ConfigError("method 'rk4' needs fixed_step_ns (fixed step for rk4, "
                          "nanoseconds)")
    if (experiment == "PotentialLandscape"
            and not params["phi_max_rad"] > params["phi_min_rad"]):
        raise ConfigError(
            f"phi_max_rad ({params['phi_max_rad']:g}) must exceed "
            f"phi_min_rad ({params['phi_min_rad']:g})")
    if (experiment == "GravRedshift" and params["mode"] == "sidebands"
            and abs(params["m1_kg"]) > params["m0_kg"]):
        raise ConfigError(
            f"|m1_kg| ({params['m1_kg']:g}) must not exceed m0_kg ({params['m0_kg']:g}); "
            "the shell mass would turn negative")
    if (experiment == "FloquetDecompose" and params.get("waveform") == "sampled"
            and not 2 <= len(params["samples_t_ns"]) == len(params["samples_u_over_h_GHz"])):
        raise ConfigError("samples_t_ns and samples_u_over_h_GHz must have "
                          "equal length, at least 2 samples each (got "
                          f"{len(params['samples_t_ns'])} and "
                          f"{len(params['samples_u_over_h_GHz'])})")

    output = data.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("'output' must be a JSON object")
    unknown = set(output) - {"path", "format"}
    if unknown:
        raise ConfigError(f"unknown output keys {sorted(unknown)}; valid keys are "
                          "['path', 'format']")
    default_fmt = "csv" if (experiment in _CSV_EXPERIMENTS
                            or params.get("mode") == "exploding-shell") else "json"
    fmt = output.get("format", default_fmt)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output format must be 'csv' or 'json'; got {fmt!r}")
    _check_format(experiment, fmt, params)
    path = output.get("path") or f"{_snake(experiment)}{_DEFAULT_EXTENSION[fmt]}"
    if not isinstance(path, str):
        raise ConfigError("output path must be a string")

    numerics = _parse_numerics(data.get("numerics", {}))
    return ExperimentConfig(experiment=experiment, parameters=params,
                            output_path=path, output_format=fmt, numerics=numerics)


def _apply_defaults(experiment: str, params: dict[str, Any]) -> None:
    for key, spec in SCHEMAS[experiment].items():
        if spec.default is not None and key not in params:
            params[key] = spec.default


def _check_format(experiment: str, fmt: str, params: Mapping[str, Any]) -> None:
    if experiment == "GravRedshift":
        # sideband mode writes a spectrum, exploding mode a time series
        wants = "csv" if params.get("mode") == "exploding-shell" else "json"
        if fmt != wants:
            raise ConfigError(
                f"GravRedshift mode {params.get('mode', 'sidebands')!r} writes "
                f"'{wants}' output; got format {fmt!r}")
        return
    csv_ok = experiment in _CSV_EXPERIMENTS
    if fmt == "csv" and not csv_ok:
        raise ConfigError(f"{experiment} writes spectra; only format 'json' is supported")
    if fmt == "json" and csv_ok:
        raise ConfigError(f"{experiment} writes time series; only format 'csv' is supported")


def _parse_numerics(raw: Mapping[str, Any]) -> Numerics:
    if not isinstance(raw, Mapping):
        raise ConfigError("'numerics' must be a JSON object")
    unknown = set(raw) - {"rel_tol", "abs_tol", "truncation_n", "seed"}
    if unknown:
        raise ConfigError(f"unknown numerics keys {sorted(unknown)}; valid keys are "
                          "['rel_tol', 'abs_tol', 'truncation_n', 'seed']")
    defaults = Numerics()
    rel = raw.get("rel_tol", defaults.rel_tol)
    abs_ = raw.get("abs_tol", defaults.abs_tol)
    for name, value in (("rel_tol", rel), ("abs_tol", abs_)):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"numerics.{name} must be a positive number")
    trunc = raw.get("truncation_n")
    if trunc is not None and (isinstance(trunc, bool) or not isinstance(trunc, int)
                              or trunc < 0):
        raise ConfigError("numerics.truncation_n must be a non-negative integer or null")
    seed = raw.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ConfigError("numerics.seed must be an integer or null")
    return Numerics(rel_tol=float(rel), abs_tol=float(abs_), truncation_n=trunc, seed=seed)


def _snake(name: str) -> str:
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def _write_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ghz_to_joule(value: float) -> float:
    return value * 1e9 * PLANCK_H


def _circuit_params(p: Mapping[str, Any]) -> CircuitParams:
    """CircuitParams from the element keys the experiment has, each named
    <field>_<unit>; CircuitParams derives whichever of inductance_nH and
    e_inductive_GHz is missing.  A broken invariant is a config error that
    names the keys of the fields in its message."""
    keys = {key.rsplit("_", 1)[0]: key for key in (*_CIRCUIT_ELEMENT_KEYS, "e_inductive_GHz")
            if key in p}
    try:
        return CircuitParams(**{
            name: _ghz_to_joule(p[key]) if key.endswith("_GHz")
            else p[key] * (1e-9 if key.endswith("_nH") else 1e-15)
            for name, key in keys.items()})
    except ValueError as exc:
        named = [key for name, key in keys.items() if re.search(rf"\b{name}\b", str(exc))]
        raise ConfigError(f"{', '.join(named)}: {exc}") from exc


def _run_circuit_dynamics(config: ExperimentConfig) -> str:
    p = config.parameters
    params = _circuit_params(p)
    omega = 2.0 * math.pi * p["drive_frequency_MHz"] * 1e6
    drive = DriveWaveform.sinusoid(p["drive_amplitude_uV"] * 1e-6, omega,
                                   p.get("drive_phase0_rad", 0.0))
    eom = circuit.build_eom(params, drive)
    t_off = p.get("drive_t_off_ns")
    envelope = None
    if t_off is not None or p.get("drive_t_on_ns", 0.0) > 0.0:
        ramp = 0.0 if p["drive_switch"] == "instant" else \
            p["ramp_periods"] * 2.0 * math.pi / omega
        envelope = circuit.DriveEnvelope(
            t_on=p.get("drive_t_on_ns", 0.0) * 1e-9,
            t_off=None if t_off is None else t_off * 1e-9,
            ramp_duration=ramp)
    fixed_step = p.get("fixed_step_ns")
    control = circuit.StepControl(rel_tol=config.numerics.rel_tol,
                                  abs_tol=config.numerics.abs_tol,
                                  method=p["method"],
                                  fixed_step=None if fixed_step is None else fixed_step * 1e-9)
    traj = circuit.integrate_trajectory(
        eom, p["initial_phi_rad"], p["initial_phidot_rad_per_s"],
        (0.0, p["t_end_ns"] * 1e-9), control, envelope=envelope,
        n_samples=p["n_samples"])
    traj.to_csv(config.output_path)
    alpha = 2.0 * E_CHARGE * p["drive_amplitude_uV"] * 1e-6 / (HBAR * omega)
    return (f"omega0/2pi={eom.small_oscillation_frequency / (2e9 * math.pi):.4g} GHz "
            f"alpha={alpha:.4g}")


def _run_potential_landscape(config: ExperimentConfig) -> str:
    p = config.parameters
    params = _circuit_params(p)
    landscape = circuit.potential_landscape(
        params, (p["phi_min_rad"], p["phi_max_rad"]), p["n_points"])
    _write_json(config.output_path, landscape.to_dict())
    return f"minima={len(landscape.minima)}"


def _run_electric_sidebands(config: ExperimentConfig) -> str:
    p = config.parameters
    omega = 2.0 * math.pi * p["drive_frequency_MHz"] * 1e6
    alpha = p["charge_in_e"] * E_CHARGE * p["drive_amplitude_uV"] * 1e-6 / (HBAR * omega)
    truncation = config.numerics.truncation_n
    if truncation is None:
        truncation = spectral.default_truncation(alpha)
    spectrum = spectral.jacobi_anger_coeffs(alpha, truncation, omega=omega)
    _write_json(config.output_path, spectrum.to_dict())
    return f"alpha={alpha:.6g} truncation_n={truncation}"


def _run_floquet(config: ExperimentConfig) -> str:
    p = config.parameters
    omega = 2.0 * math.pi * p["frequency_MHz"] * 1e6
    if p["waveform"] == "sinusoid":
        potential = DriveWaveform.sinusoid(_ghz_to_joule(p["u0_over_h_GHz"]), omega,
                                           p.get("phase0_rad", 0.0))
    else:
        times = [t * 1e-9 for t in p["samples_t_ns"]]
        values = [_ghz_to_joule(u) for u in p["samples_u_over_h_GHz"]]
        potential = DriveWaveform.sampled(times, values)
        expected = 2.0 * math.pi / omega
        if abs(potential.period - expected) > 1e-9 * expected:
            raise ConfigError("sample span must equal one period of frequency_MHz")
    decomposition = spectral.floquet_decompose(
        potential, _ghz_to_joule(p["base_energy_over_h_GHz"]),
        config.numerics.truncation_n, residual_tol=p["residual_tol"])
    _write_json(config.output_path, decomposition.to_dict())
    return (f"quasi_energy/h={decomposition.quasi_energy / PLANCK_H / 1e9:.6g} GHz "
            f"truncation_n={decomposition.truncation_n} "
            f"residual={decomposition.residual:.3g}")


def _run_grav_redshift(config: ExperimentConfig) -> str:
    p = config.parameters
    if p.get("mode", "sidebands") == "exploding-shell":
        grid = np.linspace(0.0, p["t_end_s"], p["n_samples"])
        r0, v = p["radius_start_m"], p["expansion_speed_m_per_s"]
        potential = redshift.exploding_shell_potential(
            p["shell_mass_kg"], lambda t: r0 + v * t, grid)
        mass_history = [(0.0, p["system_mass_kg"]), (p["t_end_s"], p["system_mass_kg"])]
        history = ab_phase.accumulate_grav_phase(mass_history, potential, grid,
                                                 rel_tol=None)
        ab_phase.write_phase_csv(history, config.output_path)
        return f"final_phase={history.phase[-1]:.6g} rad"

    shell = MassShell(m0=p["m0_kg"], m1=p["m1_kg"], radius=p["radius_m"],
                      omega=2.0 * math.pi * p["modulation_frequency_Hz"])
    atom = TwoLevelAtom.from_transition(p["atom_rest_mass_kg"],
                                        p["transition_energy_eV"] * E_CHARGE)
    indices = redshift.modulation_indices(atom, shell)
    truncation = config.numerics.truncation_n
    if truncation is None:
        truncation = spectral.default_truncation(indices.delta_alpha)
    spectrum = redshift.transition_sideband_spectrum(atom, shell, truncation)
    local_f = atom.transition_energy / PLANCK_H
    payload = spectrum.to_dict()
    payload["alpha_i"] = indices.alpha_i
    payload["alpha_f"] = indices.alpha_f
    payload["carrier_fractional_shift"] = (local_f - spectrum.carrier_frequency) / local_f
    _write_json(config.output_path, payload)
    return (f"delta_alpha={indices.delta_alpha:.6g} "
            f"fractional_shift={payload['carrier_fractional_shift']:.6g}")


def _run_bulk_phase(config: ExperimentConfig) -> str:
    p = config.parameters
    omega = 2.0 * math.pi * p["drive_frequency_MHz"] * 1e6
    drive = DriveWaveform.sinusoid(p["drive_amplitude_uV"] * 1e-6, omega)
    t_end = p["t_end_ns"] * 1e-9
    grid = np.linspace(0.0, t_end, p["n_samples"])
    species = []
    for entry in p["species"]:
        kind = ab_phase.Species(entry["species"])
        if "count" in entry:
            species.append(ab_phase.SpeciesCount.constant(kind, float(entry["count"]),
                                                          (0.0, t_end)))
        else:
            counts = tuple((float(t) * 1e-9, float(n))
                           for t, n in zip(entry["counts_t_ns"], entry["counts_n"]))
            species.append(ab_phase.SpeciesCount(species=kind, counts=counts))
    history = ab_phase.net_bulk_phase(species, drive, grid)
    ab_phase.write_phase_csv(history, config.output_path)
    return f"final_phase={history.phase[-1]:.6g} rad"


_RUNNERS = {
    "CircuitDynamics": _run_circuit_dynamics,
    "PotentialLandscape": _run_potential_landscape,
    "ElectricSidebands": _run_electric_sidebands,
    "FloquetDecompose": _run_floquet,
    "GravRedshift": _run_grav_redshift,
    "BulkPhase": _run_bulk_phase,
}


def run_experiment(config: ExperimentConfig) -> int:
    """Run one validated config: writes exactly the declared output file and
    prints a one-line summary.  Numeric failures from the physics modules
    propagate to the caller."""
    summary = _RUNNERS[config.experiment](config)
    print(f"{config.experiment}: {summary} -> {config.output_path}")
    return EXIT_OK


def _load_config(target: str | None, config_path: str | None,
                 out: str | None, fmt: str | None) -> ExperimentConfig:
    base: dict[str, Any] = {}
    if target in PRESETS:
        base = json.loads(json.dumps(PRESETS[target]))  # deep copy
    elif target is not None and target not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment or preset '{target}'; experiments: "
            f"{list(EXPERIMENTS)}; presets: {sorted(PRESETS)}")
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            overlay = _read_object(fh.read())
        if base:
            declared = overlay.get("experiment", base["experiment"])
            if declared != base["experiment"]:
                raise ConfigError(
                    f"config declares experiment {declared!r} but preset "
                    f"'{target}' runs {base['experiment']!r}")
            merged_params = dict(base.get("parameters", {}))
            merged_params.update(overlay.get("parameters", {}))
            base.update({k: v for k, v in overlay.items() if k != "parameters"})
            base["parameters"] = merged_params
        else:
            base = overlay
    if target in EXPERIMENTS:
        declared = base.get("experiment", target)
        if declared != target:
            raise ConfigError(
                f"config declares experiment {declared!r} but the command line "
                f"requested {target!r}")
        base["experiment"] = target
    if not base:
        raise ConfigError("no config given; pass --config PATH or a preset name")
    if out is not None:
        base.setdefault("output", {})["path"] = out
    if fmt is not None:
        base.setdefault("output", {})["format"] = fmt
    return parse_config(base)


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
    """Run one config, turning its failures into a one-line message and an
    exit code."""
    try:
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (circuit.IntegrationError, ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


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
