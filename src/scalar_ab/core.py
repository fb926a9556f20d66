"""Shared data model: the physical constants (CODATA 2018, SI) and the
immutable value types used by every simulation module.

All quantities are stored in SI units (seconds, volts, joules, kilograms,
farads, henries, rad/s).  Unit conversion from experimenter-friendly inputs
(GHz, uV, ns, ...) happens at the CLI boundary, never inside the physics.

Every type here is a frozen dataclass: construction validates the type's
invariants (raising ``ValueError`` naming the violated invariant) and the
instance is immutable afterwards, so values can be shared freely between
concurrent parameter sweeps without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "CircuitParams",
    "DriveWaveform",
    "Trajectory",
    "SidebandSpectrum",
    "MassShell",
    "TwoLevelAtom",
]


class IntegrationError(RuntimeError):
    """Raised when the ODE integrator fails (stiffness, step underflow, NaN).
    Defined here, not in ``circuit``, so that a caller can catch it without
    importing the integrator."""


def _require(condition: bool, invariant: str) -> None:
    """Raise ValueError naming the violated invariant."""
    if not condition:
        raise ValueError(f"invariant violated: {invariant}")


def _strictly_increasing(a: np.ndarray) -> bool:
    """``np.all(np.diff(a) > 0)`` without the diff array: False at any NaN."""
    return bool((a[1:] > a[:-1]).all())


def _readonly(values: Iterable[float], dtype: Any = float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _write_csv(path: str, header: Sequence[str], *columns: np.ndarray) -> None:
    """The CSV schema of every output table: a header row, then one row per
    sample with each value to 17 significant digits (it round-trips), each
    row ended by CRLF.  No field needs quoting."""
    row = ",".join(["{:.17g}"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row.format(*values) for values in zip(*(c.tolist() for c in columns)))


def _plain(value: Any) -> Any:
    """``value`` as JSON holds it: arrays and tuples become lists, all the
    way down."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class _FieldDict:
    """``to_dict`` for a value type: one entry per dataclass field, so the
    constructor inverts it, turning JSON's lists back into read-only arrays
    and tuples."""

    def to_dict(self) -> dict[str, Any]:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


# CODATA 2018 values; the physics modules read these.
HBAR = 1.054571817e-34      # J*s
PLANCK_H = 6.62607015e-34   # J*s
E_CHARGE = 1.602176634e-19  # C
C_LIGHT = 299792458.0       # m/s
G_NEWTON = 6.67430e-11      # m^3/(kg*s^2)


@dataclass(frozen=True)
class CircuitParams(_FieldDict):
    """Lumped-element values of the shielded Josephson circuit.

    ``e_inductive`` ((hbar/2e)^2 / inductance) is derived, never stored;
    :meth:`from_inductive_energy` builds the circuit from E_L instead of L.
    """

    c_sphere: float      # F, self-capacitance of the shielding sphere
    c_sigma: float       # F, total capacitance
    c_gate: float        # F, effective gate capacitance
    c_prime: float       # F, effective island capacitance
    inductance: float    # H, island inductance
    e_josephson: float   # J, junction coupling energy
    c_josephson: float = 0.0  # F, junction capacitance

    def __post_init__(self) -> None:
        for name in ("c_sphere", "c_sigma", "c_gate", "c_prime", "inductance"):
            _require(0.0 < getattr(self, name) < math.inf,
                     f"CircuitParams.{name} must be strictly positive and finite")
        for name in ("e_josephson", "c_josephson"):
            _require(0.0 <= getattr(self, name) < math.inf,
                     f"CircuitParams.{name} must be non-negative and finite")
        _require(self.c_sigma >= self.c_josephson,
                 "CircuitParams.c_sigma must be >= c_josephson "
                 "(total capacitance includes the junction)")

    @classmethod
    def from_inductive_energy(cls, e_inductive: float, **elements: float) -> "CircuitParams":
        """The circuit whose inductance is (hbar/2e)^2 / ``e_inductive`` (J)."""
        _require(e_inductive > 0.0, "CircuitParams.e_inductive must be strictly positive")
        return cls(inductance=(HBAR / (2.0 * E_CHARGE)) ** 2 / e_inductive, **elements)

    @property
    def e_inductive(self) -> float:
        """Inductive energy (hbar/2e)^2 / inductance in J, recomputed on access."""
        return (HBAR / (2.0 * E_CHARGE)) ** 2 / self.inductance


_SINUSOID = "sinusoid"
_SAMPLED = "sampled"


@dataclass(frozen=True)
class DriveWaveform(_FieldDict):
    """A periodic scalar drive: voltage (V) or potential energy (J).

    ``sinusoid`` waveforms are amplitude*cos(omega*t + phase0).  ``sampled``
    waveforms are the piecewise-linear interpolant of the supplied samples,
    which must span exactly one period 2*pi/omega with equal first and last
    values; evaluation extends them periodically.  ``period`` (s) is derived
    at construction, not stored: 2*pi/omega for a sinusoid, the sample span
    for a sampled waveform.
    """

    kind: str
    amplitude: float = 0.0
    omega: float = 0.0        # rad/s
    phase0: float = 0.0       # rad
    samples: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        _require(self.kind in (_SINUSOID, _SAMPLED),
                 f"DriveWaveform.kind must be '{_SINUSOID}' or '{_SAMPLED}'")
        _require(0.0 < self.omega < math.inf,
                 "DriveWaveform.omega must be finite and strictly positive")
        _require(math.isfinite(self.amplitude) and math.isfinite(self.phase0),
                 "DriveWaveform.amplitude and phase0 must be finite")
        if self.kind == _SINUSOID:
            _require(self.samples is None, "DriveWaveform: sinusoid takes no samples")
            object.__setattr__(self, "period", 2.0 * math.pi / self.omega)
            return
        _require(self.amplitude == 0.0 and self.phase0 == 0.0,
                 "DriveWaveform: a sampled waveform takes no amplitude or phase0 "
                 "(its samples are the values)")
        _require(self.samples is not None and len(self.samples) >= 2,
                 "DriveWaveform: sampled waveform needs >= 2 samples")
        samples = tuple((float(t), float(v)) for t, v in self.samples)
        object.__setattr__(self, "samples", samples)
        # Read-only arrays built once; ``samples`` stays the stored field.
        ts = _readonly([t for t, _ in samples])
        vs = _readonly([v for _, v in samples])
        object.__setattr__(self, "_times", ts)
        object.__setattr__(self, "_values", vs)
        _require(bool(np.isfinite(ts).all() and np.isfinite(vs).all()),
                 "DriveWaveform.samples must be finite")
        _require(_strictly_increasing(ts),
                 "DriveWaveform.samples timestamps must be strictly increasing")
        _require(vs[0] == vs[-1],
                 "DriveWaveform.samples first and last values must be equal "
                 "(periodicity)")
        span = float(ts[-1] - ts[0])
        object.__setattr__(self, "period", span)
        _require(abs(self.omega * span - 2.0 * math.pi) <= 1e-9 * 2.0 * math.pi,
                 "DriveWaveform.samples must span one period 2*pi/omega")

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float, phase0: float = 0.0) -> "DriveWaveform":
        return cls(kind=_SINUSOID, amplitude=amplitude, omega=omega, phase0=phase0)

    @classmethod
    def sampled(cls, times: Sequence[float], values: Sequence[float]) -> "DriveWaveform":
        """The waveform of one period of samples; omega is 2*pi over their span."""
        _require(len(times) == len(values),
                 f"DriveWaveform.sampled needs times and values of equal length "
                 f"(got {len(times)} times and {len(values)} values)")
        _require(len(times) >= 2,
                 f"DriveWaveform.sampled needs >= 2 samples (got {len(times)})")
        span = float(times[-1]) - float(times[0])
        _require(span > 0.0, f"DriveWaveform.sampled span must be positive (got {span})")
        return cls(kind=_SAMPLED, samples=tuple(zip(times, values)), omega=2.0 * math.pi / span)

    @property
    def is_sinusoid(self) -> bool:
        return self.kind == _SINUSOID

    def modulation_depth(self, charge: float) -> float:
        """FM modulation depth q*V0/(hbar*omega) of a charge ``charge`` (C)
        in this sinusoidal voltage drive: its phase amplitude in radians."""
        _require(self.kind == _SINUSOID, "DriveWaveform.modulation_depth needs a sinusoid")
        return charge * self.amplitude / (HBAR * self.omega)

    def value(self, t: "float | np.ndarray") -> "float | np.ndarray":
        """Waveform value at time(s) t; sampled kinds wrap periodically."""
        if self.kind == _SINUSOID:
            return self.amplitude * np.cos(self.omega * np.asarray(t, dtype=float)
                                           + self.phase0)
        ts, vs = self._times, self._values
        tt = (np.asarray(t, dtype=float) - ts[0]) % self.period + ts[0]
        out = np.interp(tt, ts, vs)
        return out if np.ndim(t) else float(out)

    def mean(self) -> float:
        """Exact one-period average of the waveform."""
        if self.kind == _SINUSOID:
            return 0.0
        ts, vs = self._times, self._values
        # trapezoid is exact for the piecewise-linear interpolant
        return float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts)) / self.period)

    def antiderivative(self, t: "float | np.ndarray") -> "float | np.ndarray":
        """Exact integral of the waveform from its time origin to t.

        For sinusoids this is analytic; for sampled waveforms it is the exact
        integral of the piecewise-linear interpolant (periodic extension).
        """
        if self.kind == _SINUSOID:
            tt = np.asarray(t, dtype=float)
            return (self.amplitude / self.omega) * (np.sin(self.omega * tt + self.phase0)
                                                    - math.sin(self.phase0))
        ts, vs = self._times, self._values
        seg = np.concatenate(([0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))))
        per_period = seg[-1]
        tt = np.asarray(t, dtype=float) - ts[0]
        wraps = np.floor(tt / self.period)
        frac_t = tt - wraps * self.period + ts[0]
        idx = np.clip(np.searchsorted(ts, frac_t, side="right") - 1, 0, len(ts) - 2)
        dt = frac_t - ts[idx]
        slope = (vs[idx + 1] - vs[idx]) / (ts[idx + 1] - ts[idx])
        partial = seg[idx] + vs[idx] * dt + 0.5 * slope * dt * dt
        out = wraps * per_period + partial
        return out if np.ndim(t) else float(out)


@dataclass(frozen=True)
class Trajectory(_FieldDict):
    """Time series of the junction phase difference and its rate."""

    times: np.ndarray           # s
    delta_phi: np.ndarray       # rad
    delta_phi_dot: np.ndarray   # rad/s

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "delta_phi", _readonly(self.delta_phi))
        object.__setattr__(self, "delta_phi_dot", _readonly(self.delta_phi_dot))
        n = len(self.times)
        _require(len(self.delta_phi) == n and len(self.delta_phi_dot) == n,
                 "Trajectory lists must have equal length")
        _require(_strictly_increasing(self.times),
                 "Trajectory.times must be strictly increasing")

    def to_csv(self, path: str) -> None:
        """Write the mandated CSV schema: header row, 17 significant digits."""
        _write_csv(path, ("t_seconds", "delta_phi_rad", "delta_phi_dot_rad_per_s"),
                   self.times, self.delta_phi, self.delta_phi_dot)


class _Coefficients(Mapping):
    """Read-only ``Mapping[int, complex]`` n -> c_n over a read-only int64
    key array ``n``, ascending, and a complex128 column ``c``: the storage
    of the spectrum types.

    A lookup is offset arithmetic when the keys step by one (every producer
    stores n = -N..N), else ``np.searchsorted``.  Two stores are equal when
    their arrays are.
    """

    __slots__ = ("n", "c", "_lo")

    def __init__(self, n: Any, c: Any) -> None:
        self.n = _readonly(n, np.int64)
        self.c = _readonly(c, complex)
        contiguous = len(self.n) and (self.n[1:] - self.n[:-1] == 1).all()
        self._lo = int(self.n[0]) if contiguous else None

    @classmethod
    def of(cls, coefficients: Mapping[int, complex]) -> "_Coefficients":
        if isinstance(coefficients, cls):
            return coefficients
        count = len(coefficients)
        n = np.fromiter((int(k) for k in coefficients), np.int64, count)
        c = np.fromiter(coefficients.values(), complex, count)
        order = np.argsort(n, kind="stable")
        return cls(n[order], c[order])

    def find(self, n: Any) -> int:
        """The index of the first key n, or -1."""
        try:
            k = int(n)
        except (TypeError, ValueError, OverflowError):
            return -1
        if k != n:
            return -1
        if self._lo is not None:
            i = k - self._lo
            return i if 0 <= i < len(self.n) else -1
        j = int(np.searchsorted(self.n, k))
        return j if j < len(self.n) and self.n[j] == k else -1

    def max_abs_n(self) -> int:
        """max |n| over the keys (0 when empty): an end key, as they ascend."""
        return max(-int(self.n[0]), int(self.n[-1])) if len(self.n) else 0

    def __getitem__(self, n: int) -> complex:
        i = self.find(n)
        if i < 0:
            raise KeyError(n)
        return complex(self.c[i])

    def __iter__(self):
        return iter(self.n.tolist())

    def __len__(self) -> int:
        return len(self.n)

    def __eq__(self, other: Any) -> bool:
        if type(other) is type(self):
            return np.array_equal(self.n, other.n) and np.array_equal(self.c, other.c)
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"

    def to_list(self) -> list[dict[str, Any]]:
        return [{"n": n, "re": re, "im": im}
                for n, re, im in zip(self.n.tolist(), self.c.real.tolist(), self.c.imag.tolist())]


# A spectrum's sum |c_n|^2 is 1 within this; FloquetDecomposition loosens
# it to its residual_tol^2 when that is larger.
_NORM_TOL = 1e-9


def _check_norm(owner: str, values: np.ndarray, tol: float = _NORM_TOL,
                bound: str = "1e-9") -> None:
    """Require sum |values|^2 within tol of 1; ``bound`` names tol in the
    message through ``{tol}`` fields, formatted only on failure."""
    total = float(np.sum(np.abs(values) ** 2))
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"invariant violated: {owner} normalization sum |c_n|^2 = "
                         f"{total!r} differs from 1 by more than {bound.format(tol=tol)}")


@dataclass(frozen=True)
class SidebandSpectrum:
    """Quasi-energy ladder with a complex amplitude per harmonic index n.

    The energy of entry n is ``base_energy + n*hbar*omega``, never stored;
    :func:`scalar_ab.spectral.quasi_energy_ladder` computes it.  Construction
    enforces the wavefunction normalization sum |c_n|^2 = 1 within
    1e-9.  ``coefficients`` may be given as any mapping and is
    stored as a read-only mapping over arrays, keys ascending.
    """

    base_energy: float                     # J
    omega: float                           # rad/s
    coefficients: Mapping[int, complex]    # n -> c_n
    truncation_n: int

    def __post_init__(self) -> None:
        coeffs = _Coefficients.of(self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        _require(self.omega > 0.0, "SidebandSpectrum.omega must be strictly positive")
        _require(self.truncation_n >= 0, "SidebandSpectrum.truncation_n must be >= 0")
        _require(coeffs.max_abs_n() <= self.truncation_n,
                 "SidebandSpectrum coefficients must lie within |n| <= truncation_n")
        _check_norm("SidebandSpectrum", coeffs.c)

    def amplitude(self, n: int) -> complex:
        return self.coefficients.get(n, 0.0 + 0.0j)

    def to_dict(self) -> dict[str, Any]:
        return {
            "base_energy_J": self.base_energy,
            "omega_rad_per_s": self.omega,
            "truncation_n": self.truncation_n,
            "coefficients": self.coefficients.to_list(),
        }


@dataclass(frozen=True)
class MassShell(_FieldDict):
    """Spherical mass shell with sinusoidally modulated mass."""

    m0: float      # kg, DC mass
    m1: float      # kg, AC amplitude
    radius: float  # m
    omega: float   # rad/s, modulation frequency

    def __post_init__(self) -> None:
        for name in ("m0", "m1", "radius", "omega"):
            _require(math.isfinite(getattr(self, name)), f"MassShell.{name} must be finite")
        _require(self.radius > 0.0, "MassShell.radius must be strictly positive")
        _require(self.m0 >= 0.0, "MassShell.m0 must be non-negative")
        _require(abs(self.m1) <= self.m0,
                 "MassShell requires |m1| <= m0 (total mass never negative)")


@dataclass(frozen=True)
class TwoLevelAtom(_FieldDict):
    """Two-level system given by its lower level's rest mass and its
    transition energy.

    The rest-mass difference ``delta_m`` = transition_energy/c^2 and the
    upper level's ``rest_mass_f`` are derived, so the mass-energy relation
    holds by construction and the transition energy keeps every digit of
    its input.
    """

    rest_mass_i: float        # kg
    transition_energy: float  # J

    def __post_init__(self) -> None:
        _require(self.rest_mass_i > 0.0, "TwoLevelAtom.rest_mass_i must be strictly positive")
        _require(self.transition_energy > 0.0,
                 "TwoLevelAtom.transition_energy must be strictly positive")

    @classmethod
    def from_transition(cls, rest_mass_i: float, transition_energy: float) -> "TwoLevelAtom":
        return cls(rest_mass_i=rest_mass_i, transition_energy=transition_energy)

    @property
    def delta_m(self) -> float:
        """Rest-mass difference of the levels, transition_energy/c^2, in kg."""
        return self.transition_energy / C_LIGHT ** 2

    @property
    def rest_mass_f(self) -> float:
        return self.rest_mass_i + self.delta_m
