"""Driven Josephson circuit dynamics: equation of motion, integration, and
the anharmonic potential landscape.

The phase difference across the junction obeys

    d2(phi)/dt2 + omega_c^2 * phi + nonlinear_coeff * sin(phi)
        + drive_coeff * V0 * envelope(t) * cos(omega*t + phase0) = 0

with omega_c = 1/sqrt(L*C'), nonlinear_coeff = (2e/hbar)^2 * E_J / C_sigma
and drive_coeff = (2e/hbar) * C_g * omega / C_sigma (s^-2 per volt; a single
power of 2e/hbar makes the term dimensionally consistent).  The undriven
system conserves the specific energy

    E = phi_dot^2/2 + omega_c^2 * phi^2/2 + nonlinear_coeff * (1 - cos(phi)).

Integration calls the compiled Hairer DOP853 code in scipy's private
extension ``scipy/integrate/_dop``, loaded from its file on first use so that
importing this module imports no scipy package; samples are reached by
stepping to each output time.  The right-hand side writes one shared array,
which relies on the wrapper copying each returned buffer before its next call
(pinned bit for bit by a test against a list-returning right-hand side), and
each output interval gets the cheapest body that the drive envelope allows
there.  Potential extrema are refined by bisection on the closed-form
dU/dphi.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .core import (E_CHARGE, HBAR, CircuitParams, DriveWaveform, IntegrationError, Trajectory,
                   _FieldDict, _readonly, _require, _strictly_increasing)

__all__ = [
    "EomParams",
    "DriveEnvelope",
    "StepControl",
    "PotentialLandscape",
    "IntegrationError",
    "build_eom",
    "integrate_trajectory",
    "specific_energy",
    "potential_landscape",
]


@dataclass(frozen=True)
class EomParams(_FieldDict):
    """Coefficients of the junction equation of motion, plus the drive terms
    needed to evaluate the forcing."""

    omega_c: float          # rad/s, linear resonance 1/sqrt(L*C')
    nonlinear_coeff: float  # s^-2, (2e/hbar)^2 * E_J / C_sigma
    drive_coeff: float      # s^-2 per volt, (2e/hbar) * C_g * omega / C_sigma
    drive_amplitude: float = 0.0  # V, signed
    drive_omega: float = 0.0      # rad/s
    drive_phase0: float = 0.0     # rad

    def __post_init__(self) -> None:
        for name in ("omega_c", "nonlinear_coeff", "drive_coeff", "drive_omega"):
            value = getattr(self, name)
            _require(math.isfinite(value) and value >= 0.0,
                     f"EomParams.{name} must be finite and non-negative")
        _require(math.isfinite(self.drive_amplitude),
                 "EomParams.drive_amplitude must be finite")

    @property
    def small_oscillation_frequency(self) -> float:
        """Linearized resonance sqrt(omega_c^2 + nonlinear_coeff) in rad/s."""
        return math.sqrt(self.omega_c ** 2 + self.nonlinear_coeff)


@dataclass(frozen=True)
class DriveEnvelope:
    """On/off window multiplying the drive term.

    The switch-off at ``t_off`` uses a raised-cosine ramp of
    ``ramp_duration`` seconds ending at t_off (required, keyword-only; 0.0
    means an instantaneous switch).  ``t_on`` turns the drive on the same
    way.  A non-finite time, a negative or non-finite ramp and a ``t_off``
    not later than ``t_on`` are rejected.
    """

    t_on: float = 0.0
    t_off: float | None = None
    ramp_duration: float = field(kw_only=True)

    def __post_init__(self) -> None:
        _require(math.isfinite(self.t_on), "DriveEnvelope.t_on must be finite")
        _require(self.t_off is None or math.isfinite(self.t_off),
                 "DriveEnvelope.t_off must be None or finite")
        _require(self.ramp_duration is not None and 0.0 <= self.ramp_duration < math.inf,
                 "DriveEnvelope.ramp_duration must be a non-negative finite number")
        _require(self.t_off is None or self.t_off > self.t_on,
                 "DriveEnvelope.t_off must be later than t_on (the drive would never "
                 "turn on)")


@dataclass(frozen=True)
class StepControl:
    """Local-error tolerances of the DOP853 integrator.

    ``abs_tol`` applies to the phase; the rate component gets abs_tol scaled
    by the fastest system frequency so both components are controlled at the
    same effective resolution.  The step size is unbounded.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        _require(0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf,
                 "StepControl tolerances must be positive and finite")


def build_eom(params: CircuitParams, drive: DriveWaveform | None) -> EomParams:
    """Assemble equation-of-motion coefficients from circuit parameters.

    Only sinusoidal drives enter the closed-form drive term (the forcing is
    proportional to the drive rate); for an arbitrary waveform, integrate the
    bulk phase machinery instead or supply its rate as a sinusoid series.
    """
    if drive is not None and not drive.is_sinusoid:
        raise ValueError(
            "build_eom supports sinusoid drives only: the forcing term is the "
            "time derivative of the gate voltage.  Decompose a sampled drive "
            "into sinusoids (see floquet_decompose) or integrate each harmonic.")
    two_e_over_hbar = 2.0 * E_CHARGE / HBAR
    omega_c = 1.0 / math.sqrt(params.inductance * params.c_prime)
    nonlinear = two_e_over_hbar ** 2 * params.e_josephson / params.c_sigma
    if drive is None or drive.amplitude == 0.0:
        return EomParams(omega_c=omega_c, nonlinear_coeff=nonlinear, drive_coeff=0.0)
    drive_coeff = two_e_over_hbar * params.c_gate * drive.omega / params.c_sigma
    return EomParams(omega_c=omega_c, nonlinear_coeff=nonlinear,
                     drive_coeff=drive_coeff,
                     drive_amplitude=drive.amplitude,
                     drive_omega=drive.omega,
                     drive_phase0=drive.phase0)


def specific_energy(eom: EomParams, phi: "float | np.ndarray",
                    phi_dot: "float | np.ndarray") -> "float | np.ndarray":
    """Conserved energy of the undriven system (per effective mass, s^-2).
    The Josephson term 1 - cos(phi) is computed as 2*sin(phi/2)^2, which
    keeps its digits at small phi."""
    out = (0.5 * np.asarray(phi_dot) ** 2
           + 0.5 * eom.omega_c ** 2 * np.asarray(phi) ** 2
           + eom.nonlinear_coeff * 2.0 * np.sin(0.5 * np.asarray(phi)) ** 2)
    return out if np.ndim(phi) or np.ndim(phi_dot) else float(out)


def _envelope_scalar(env: DriveEnvelope):
    """Python-scalar envelope evaluator (the RHS hot path)."""
    t_on, t_off, ramp = env.t_on, env.t_off, env.ramp_duration
    if ramp <= 0.0:
        def value(t: float) -> float:
            if t < t_on or (t_off is not None and t >= t_off):
                return 0.0
            return 1.0
        return value

    def value(t: float) -> float:
        if t <= t_on or (t_off is not None and t >= t_off):
            return 0.0
        out = 1.0
        if t < t_on + ramp:
            out = 0.5 * (1.0 - math.cos(math.pi * (t - t_on) / ramp))
        if t_off is not None and t > t_off - ramp:
            out *= 0.5 * (1.0 + math.cos(math.pi * (t - (t_off - ramp)) / ramp))
        return out
    return value


def _rhs_factory(eom: EomParams, envelope: DriveEnvelope | None, rate_scale: float):
    """Right-hand sides for the state (phi, phi_dot/rate_scale).  Returns
    the undriven, plain driven and whole-span bodies: the last is right everywhere, the first two give its bits where
    the envelope is 0 or 1.  Each writes one shared array and returns it, so
    a caller keeping a result past the next call must copy it.  The compiled
    solvers keep stepping after an exception in their callback, so sin(+-inf)
    of an overflowed state returns NaN instead, which they report as a failed
    step-size control."""
    wc2 = eom.omega_c ** 2 / rate_scale
    nl = eom.nonlinear_coeff / rate_scale
    force = eom.drive_coeff * eom.drive_amplitude / rate_scale
    w = eom.drive_omega
    ph0 = eom.drive_phase0
    out = np.empty(2)
    buf = memoryview(out)

    def undriven(t: float, y):
        p, v = y.tolist()
        try:
            buf[0], buf[1] = rate_scale * v, -wc2 * p - nl * math.sin(p)
        except ValueError:
            buf[0] = buf[1] = math.nan
        return out
    if force == 0.0:
        return undriven, undriven, undriven

    def driven(t: float, y):
        p, v = y.tolist()
        try:
            buf[0], buf[1] = (rate_scale * v, -wc2 * p - nl * math.sin(p)
                              - force * math.cos(w * t + ph0))
        except ValueError:
            buf[0] = buf[1] = math.nan
        return out
    if envelope is None:
        return undriven, driven, driven
    env_value = _envelope_scalar(envelope)

    def enveloped(t: float, y):
        p, v = y.tolist()
        try:
            buf[0], buf[1] = (rate_scale * v, -wc2 * p - nl * math.sin(p)
                              - force * env_value(t) * math.cos(w * t + ph0))
        except ValueError:
            buf[0] = buf[1] = math.nan
        return out
    return undriven, driven, enveloped


def _body_index(env: DriveEnvelope, t: float, t_end: float) -> int:
    """The cheapest of :func:`_rhs_factory`'s bodies with the enveloped body's
    bits on one compiled call from ``t`` to ``t_end``: 0 where the envelope
    is 0 throughout, 1 where it is 1 throughout, else 2.  The code caps every
    trial step at the distance left to ``t_end``, and a few ulps of padding
    guard against stage times rounded past the ends."""
    lo, hi = sorted((t, t_end))
    pad = 4.0 * math.ulp(max(abs(lo), abs(hi)))
    lo, hi = lo - pad, hi + pad
    ramp, t_off = env.ramp_duration, math.inf if env.t_off is None else env.t_off
    if hi < env.t_on or lo >= t_off:
        return 0
    if lo > env.t_on + ramp and hi < t_off - ramp:
        return 1
    return 2


# Return codes of the Hairer code, as scipy's wrapper words them.
_DOP_FAILURES = {
    -1: "input is not consistent",
    -2: "larger nsteps is needed",
    -3: "step size becomes too small",
    -4: "problem is probably stiff (interrupted)",
}


def _no_solout(x, y):
    """The codes' per-step callback; never called, since iout is 0."""
    return 1


def _scipy_version(root: str) -> str:
    """The version recorded in ``scipy/version.py`` under ``root``, read as
    text so that no scipy code runs; "unknown" if it cannot be read."""
    try:
        with open(os.path.join(root, "version.py"), encoding="utf-8") as fh:
            found = re.search(r"^version\s*=\s*['\"]([^'\"]+)['\"]", fh.read(), re.M)
    except OSError:
        found = None
    return found.group(1) if found else "unknown"


@functools.cache
def _dop_codes():
    """scipy's compiled DOP853 extension, loaded from its file.

    ``find_spec`` locates scipy without running its ``__init__``, and the
    extension imports numpy only, so this costs ~1 ms where importing scipy's
    integrate package costs ~0.9 s.  The price is reliance on a private
    module and its call signature, which is that of scipy 1.17 (earlier
    releases built ``_dop`` with f2py: nsteps in iwork, four return values),
    so only 1.17.x is accepted: a later release may change the signature, and
    a wrong call can crash the process.  Another scipy or a missing file
    raises ImportError naming the scipy version and the directory searched.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("integrate_trajectory needs scipy 1.17.x; no scipy found")
    root = spec.submodule_search_locations[0]
    folder = os.path.join(root, "integrate")
    version = _scipy_version(root)
    release = re.match(r"(\d+)\.(\d+)", version)
    if release is None or tuple(map(int, release.groups())) != (1, 17):
        raise ImportError(
            f"integrate_trajectory needs scipy 1.17.x, whose compiled DOP853 "
            f"extension _dop in {folder} has the call signature used here; "
            f"found scipy {version}")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_dop" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader("_dop", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(loader.name, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(
        f"integrate_trajectory needs scipy's compiled DOP853 extension "
        f"_dop in {folder}; found scipy {version}")


def integrate_trajectory(eom: EomParams, phi0: float, phidot0: float,
                         t_span: tuple[float, float],
                         step_control: StepControl = StepControl(), *,
                         envelope: DriveEnvelope | None = None,
                         n_samples: int = 1001) -> Trajectory:
    """Integrate the equation of motion over ``t_span``.

    Output is sampled on ``n_samples`` uniformly spaced times.  The compiled
    Hairer DOP853 code is called directly, once per output time, with the
    step-size settings of scipy's ``ode`` wrapper and no step-size bound.  A
    decreasing ``t_span`` integrates backwards, which is how the
    time-reversal checks are run.  Integrator failures (step-size underflow
    from stiffness, non-finite state) raise :class:`IntegrationError`.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    _require(t0 != t1, "integrate_trajectory t_span must be non-degenerate")
    _require(n_samples >= 2, "integrate_trajectory needs n_samples >= 2")
    t_grid = np.linspace(t0, t1, n_samples)
    # The compiled code takes a scalar atol, so integrate (phi, phi_dot/w):
    # its error norm equals that of (phi, phi_dot) under the per-component
    # atol [abs_tol, abs_tol*w], with w the fastest system rate.
    rate_scale = max(eom.small_oscillation_frequency, eom.drive_omega,
                     1.0 / abs(t1 - t0))
    bodies = _rhs_factory(eom, envelope, rate_scale)
    run = _dop_codes().dopri853
    work = np.zeros(43)  # 11n+21 doubles, n = 2
    # safety, step-ratio bounds, beta, max_step (0: none), first_step (0: auto)
    work[1:7] = 0.9, 0.3, 6.0, 0.0, 0.0, 0.0
    iwork = np.zeros(21, dtype=np.int32)
    t = t0
    state = np.array([float(phi0), float(phidot0) / rate_scale])
    y = np.empty((2, n_samples))
    y[:, 0] = phi0, phidot0
    per_interval = envelope is not None and bodies[0] is not bodies[2]
    rhs = bodies[2]
    for i in range(1, n_samples):
        if per_interval:
            rhs = bodies[_body_index(envelope, t, t_grid[i])]
        # The code may write into y, hence the copy; the trailing () is
        # fcn_extra_args, and leaving it out has crashed the process.
        t, state, idid = run(rhs, t, state.copy(), t_grid[i], step_control.rel_tol,
                             step_control.abs_tol, _no_solout, 0, work, iwork,
                             2 ** 31 - 1, -1, ())  # no step limit, silent
        if idid < 0:
            raise IntegrationError(
                f"dop853 aborted at t={t:.6g} s: "
                f"{_DOP_FAILURES.get(idid, 'unknown failure')} (return code {idid})")
        y[:, i] = state
    y[1, 1:] *= rate_scale
    if not np.all(np.isfinite(y)):
        raise IntegrationError("integration produced non-finite state (NaN guard)")
    return _as_trajectory(t_grid, y)


def _as_trajectory(t_grid: np.ndarray, y: np.ndarray) -> Trajectory:
    if t_grid[0] > t_grid[-1]:  # backward run: store in increasing time order
        t_grid = t_grid[::-1]
        y = y[:, ::-1]
    return Trajectory(times=t_grid, delta_phi=y[0], delta_phi_dot=y[1])


@dataclass(frozen=True)
class PotentialLandscape(_FieldDict):
    """Sampled anharmonic potential with refined minima and barriers.

    ``minima`` holds (phi*, U(phi*)) sorted by phi*; ``barrier_heights[i]``
    is the energy from the shallower of minima i, i+1 up to the intervening
    local maximum.
    """

    phi_grid: np.ndarray                       # rad
    u_values: np.ndarray                       # J
    minima: tuple[tuple[float, float], ...]    # (phi*, U(phi*))
    barrier_heights: tuple[float, ...]         # J

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi_grid", _readonly(self.phi_grid))
        object.__setattr__(self, "u_values", _readonly(self.u_values))
        object.__setattr__(self, "minima", tuple((float(p), float(u)) for p, u in self.minima))
        object.__setattr__(self, "barrier_heights", tuple(float(b) for b in self.barrier_heights))
        _require(len(self.phi_grid) == len(self.u_values),
                 "PotentialLandscape grid and values must have equal length")
        _require(_strictly_increasing(self.phi_grid),
                 "PotentialLandscape.phi_grid must be strictly increasing")
        _require(all(self.minima[i][0] < self.minima[i + 1][0]
                     for i in range(len(self.minima) - 1)),
                 "PotentialLandscape.minima must be sorted by phi")
        _require(len(self.barrier_heights) == max(0, len(self.minima) - 1),
                 "PotentialLandscape needs one barrier per adjacent minima pair")


def _potential_factory(params: CircuitParams):
    quad = (HBAR / (2.0 * E_CHARGE)) ** 2 / (2.0 * params.inductance)  # J per rad^2
    ej = params.e_josephson

    def u(phi):
        return quad * np.asarray(phi) ** 2 - ej * np.cos(phi)

    def du(phi):
        return 2.0 * quad * np.asarray(phi) + ej * np.sin(phi)

    return u, du


def _bracketed_root(f, a: float, b: float) -> float:
    """Root of f between a and b, where f changes sign, by bisection; stops
    once the bracket is under xtol + rtol*|x|, with the xtol 1e-14 and rtol
    8.9e-16 the landscape used with scipy's Brent solver (about 40 halvings
    of a grid-step bracket)."""
    neg, pos = (float(a), float(b)) if f(a) < 0.0 else (float(b), float(a))
    while True:
        x = 0.5 * (neg + pos)
        fx = float(f(x))
        if fx == 0.0 or abs(pos - neg) < 1e-14 + 8.9e-16 * abs(x):
            return x
        neg, pos = (x, pos) if fx < 0.0 else (neg, x)


def potential_landscape(params: CircuitParams, phi_range: tuple[float, float],
                        n_points: int) -> PotentialLandscape:
    """Map U(phi) = (hbar/2e)^2 phi^2/(2L) - E_J cos(phi) over ``phi_range``.

    Grid minima are refined by root-finding on dU/dphi; the local maximum
    between each adjacent pair of refined minima defines the barrier.
    """
    lo, hi = float(phi_range[0]), float(phi_range[1])
    _require(lo < hi, "potential_landscape phi_range must be increasing")
    _require(n_points >= 3, "potential_landscape needs n_points >= 3")
    u, du = _potential_factory(params)
    grid = np.linspace(lo, hi, int(n_points))
    values = u(grid)

    minima: list[tuple[float, float]] = []
    interior = np.where((values[1:-1] < values[:-2]) & (values[1:-1] <= values[2:]))[0] + 1
    for idx in interior:
        a, b = grid[idx - 1], grid[idx + 1]
        if du(a) < 0.0 < du(b):
            phi_star = _bracketed_root(du, a, b)
        else:
            phi_star = float(grid[idx])  # flat-to-grid resolution; keep grid point
        minima.append((float(phi_star), float(u(phi_star))))
    minima.sort()

    barriers: list[float] = []
    for (p_left, u_left), (p_right, u_right) in zip(minima, minima[1:]):
        sel = (grid > p_left) & (grid < p_right)
        candidates = grid[sel]
        idx = int(np.argmax(u(candidates))) if len(candidates) else 0
        a = candidates[idx - 1] if idx > 0 else p_left
        b = candidates[idx + 1] if len(candidates) and idx < len(candidates) - 1 else p_right
        if du(a) > 0.0 > du(b):
            top = _bracketed_root(du, a, b)
        else:
            top = float(candidates[idx]) if len(candidates) else 0.5 * (p_left + p_right)
        barriers.append(float(u(top)) - max(u_left, u_right))

    return PotentialLandscape(phi_grid=grid, u_values=values,
                              minima=tuple(minima), barrier_heights=tuple(barriers))

