"""Scalar Aharonov-Bohm phase accumulation by exact integration.

The phase picked up by a charge q in a spatially uniform potential V(t) is
(q/hbar) * integral V dt; the gravitational analogue integrates m(t)*Phi(t).
Every integrand has a closed-form integral: a drive is a sinusoid or the
periodic piecewise-linear interpolant of its samples, and mass, potential
and species-count histories are piecewise linear.  Each function returns
that exact integral.  ``accumulate_grav_phase`` still accepts a ``rel_tol``
keyword and ignores it: an exact integral meets any tolerance.

All functions are pure and re-entrant; inputs and outputs are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import (E_CHARGE, HBAR, DriveWaveform, _FieldDict, _readonly, _require,
                   _strictly_increasing, _write_csv)

__all__ = [
    "PhaseHistory",
    "Species",
    "SpeciesCount",
    "accumulate_electric_phase",
    "accumulate_grav_phase",
    "net_bulk_phase",
    "write_phase_csv",
]

@dataclass(frozen=True)
class PhaseHistory(_FieldDict):
    """Accumulated phase phi(t) on a time grid, with phi at the first grid
    point defined to be exactly zero (integral from the start of the grid)."""

    times: np.ndarray  # s
    phase: np.ndarray  # rad

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "phase", _readonly(self.phase))
        _require(len(self.times) == len(self.phase),
                 "PhaseHistory.times and phase must have equal length")
        _require(len(self.times) >= 1, "PhaseHistory must contain at least one point")
        _require(_strictly_increasing(self.times),
                 "PhaseHistory.times must be strictly increasing")
        _require(self.phase[0] == 0.0, "PhaseHistory.phase[0] must be exactly 0")


class Species(str, Enum):
    COOPER_PAIR = "cooper_pair"
    ELECTRON = "electron"
    ION = "ion"


# Sign conventions for the per-unit charge entering the bulk phase sums.
# The ion entry is a bookkeeping convention (-e per ion), not a physical
# ion charge; it makes a charge-neutral bulk accumulate zero net phase.
_SPECIES_CHARGE = {
    Species.COOPER_PAIR: +2.0 * E_CHARGE,
    Species.ELECTRON: +1.0 * E_CHARGE,
    Species.ION: -1.0 * E_CHARGE,
}


@dataclass(frozen=True)
class SpeciesCount:
    """Time-dependent population N(t) of one charge-carrying species."""

    species: Species
    counts: tuple[tuple[float, float], ...]  # (t [s], N) pairs

    def __post_init__(self) -> None:
        object.__setattr__(self, "species", Species(self.species))
        counts = tuple((float(t), float(n)) for t, n in self.counts)
        object.__setattr__(self, "counts", counts)
        ts = np.array([t for t, _ in counts])
        ns = np.array([n for _, n in counts])
        _require(len(counts) >= 1, "SpeciesCount.counts must be non-empty")
        _require(_strictly_increasing(ts),
                 "SpeciesCount.counts timestamps must be strictly increasing")
        _require(bool(np.all(ns >= 0.0)), "SpeciesCount.counts must be non-negative")

    @property
    def charge_per_unit(self) -> float:
        """Per-unit charge in C: +2e Cooper pair, +e electron, -e ion."""
        return _SPECIES_CHARGE[self.species]

    @classmethod
    def constant(cls, species: Species, n: float,
                 t_span: tuple[float, float]) -> "SpeciesCount":
        return cls(species=species, counts=((t_span[0], n), (t_span[1], n)))


def _validate_grid(t_grid: Sequence[float]) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    _require(grid.ndim == 1 and len(grid) >= 2, "t_grid must contain >= 2 points")
    if not _strictly_increasing(grid):
        raise ValueError("t_grid must be strictly increasing (non-monotonic grid rejected)")
    return grid


def _history(history: Sequence[tuple[float, float]], t_grid: np.ndarray,
             what: str) -> tuple[np.ndarray, np.ndarray]:
    """Knot times and values of a piecewise-linear history covering the grid."""
    ts = np.asarray([p[0] for p in history], dtype=float)
    vs = np.asarray([p[1] for p in history], dtype=float)
    _require(len(ts) >= 1, f"{what} history must be non-empty")
    _require(_strictly_increasing(ts),
             f"{what} history timestamps must be strictly increasing")
    if ts[0] > t_grid[0] or ts[-1] < t_grid[-1]:
        raise ValueError(
            f"{what} history covers [{ts[0]:g}, {ts[-1]:g}] s but the requested grid "
            f"spans [{t_grid[0]:g}, {t_grid[-1]:g}] s (coverage gap rejected)")
    return ts, vs


def _cumsum0(pieces: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(pieces)))


def _merged_nodes(grid: np.ndarray, *knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid plus every knot strictly inside its span, and the index of
    each grid point among those nodes."""
    inner = [k[(k > grid[0]) & (k < grid[-1])] for k in knots]
    # np.union1d would import numpy.ma on first use (~14 ms).
    nodes = np.sort(np.concatenate((grid, *inner)))
    nodes = nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]
    return nodes, np.searchsorted(nodes, grid)


def _pwl_product_integral(nodes: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cumulative integral of f*g, where f and g are piecewise linear with
    every knot among ``nodes``: each piece is a quadratic, integrated exactly."""
    return _cumsum0(np.diff(nodes) * (f[:-1] * (2.0 * g[:-1] + g[1:])
                                      + f[1:] * (g[:-1] + 2.0 * g[1:])) / 6.0)


def _drive_knots(voltage: DriveWaveform, grid: np.ndarray) -> np.ndarray:
    """Knots of a sampled drive's periodic extension over the grid span."""
    ts = voltage._times
    first = np.floor((grid[0] - ts[0]) / voltage.period)
    last = np.floor((grid[-1] - ts[0]) / voltage.period)
    shifts = np.arange(first, last + 1.0) * voltage.period
    return (shifts[:, None] + ts[None, :-1]).ravel()


def accumulate_electric_phase(charge: float, voltage: DriveWaveform,
                              t_grid: Sequence[float]) -> PhaseHistory:
    """Phase (charge/hbar) * integral of V(t) from the start of the grid.

    For a zero-mean sinusoidal drive V0*cos(omega*t) starting at t=0 the
    result is alpha*sin(omega*t) with FM modulation depth
    alpha = charge*V0/(hbar*omega).  The integral is exact, through
    ``voltage.antiderivative``.
    """
    grid = _validate_grid(t_grid)
    if charge == 0.0:
        return PhaseHistory(times=grid, phase=np.zeros_like(grid))
    integral = voltage.antiderivative(grid)
    integral = integral - integral[0]
    return PhaseHistory(times=grid, phase=(charge / HBAR) * integral)


def accumulate_grav_phase(mass_history: Sequence[tuple[float, float]],
                          potential_history: Sequence[tuple[float, float]],
                          t_grid: Sequence[float],
                          rel_tol: float | None = None) -> PhaseHistory:
    """Phase (1/hbar) * integral of m(t)*Phi(t) dt over the grid.

    Both histories are linearly interpolated and must cover the grid span;
    their product is integrated exactly on the grid merged with both
    histories' knots.
    """
    grid = _validate_grid(t_grid)
    mass_t, mass = _history(mass_history, grid, "mass")
    _require(bool(np.all(mass >= 0.0)), "mass history values must be non-negative")
    pot_t, pot = _history(potential_history, grid, "potential")
    nodes, at_grid = _merged_nodes(grid, mass_t, pot_t)
    integral = _pwl_product_integral(nodes, np.interp(nodes, mass_t, mass),
                                     np.interp(nodes, pot_t, pot))[at_grid]
    return PhaseHistory(times=grid, phase=integral / HBAR)


def net_bulk_phase(species: Sequence[SpeciesCount], voltage: DriveWaveform,
                   t_grid: Sequence[float]) -> PhaseHistory:
    """Signed sum of per-species phases (q_s/hbar) * integral N_s(t) V(t) dt.

    Per-unit charges follow the bulk sign convention (+2e Cooper pair,
    +e electron, -e ion), so a charge-neutral bulk accumulates zero net
    phase.  The species are first summed into one piecewise-linear charge
    history Q(t) = sum_s q_s N_s(t), whose product with V is integrated
    exactly: piece by piece in closed form for a sinusoid, and on the grid
    merged with the unrolled drive knots for a sampled drive (so its cost
    grows with the number of drive periods the grid spans).
    """
    _require(len(species) >= 1, "net_bulk_phase needs at least one species")
    grid = _validate_grid(t_grid)
    counts = [_history(s.counts, grid, f"{s.species.value} counts") for s in species]

    def charge(t: np.ndarray) -> np.ndarray:
        return sum(s.charge_per_unit * np.interp(t, ts, ns)
                   for s, (ts, ns) in zip(species, counts))

    if voltage.is_sinusoid:
        # Where Q has slope dQ/h on a piece of length h, the integral of
        # Q*cos(theta) is [Q*sin(theta)]/w + (dQ/h)*[cos(theta)]/w**2; the last
        # term is written -dQ*sin(theta_mid)*sinc(w*h/2)/w to keep its digits
        # when w*h is small.
        nodes, at_grid = _merged_nodes(grid, *(ts for ts, _ in counts))
        w, h, q = voltage.omega, np.diff(nodes), charge(nodes)
        q_sin = q * np.sin(w * nodes + voltage.phase0)
        mid = w * (nodes[:-1] + 0.5 * h) + voltage.phase0
        slope = _cumsum0(np.diff(q) * np.sin(mid) * np.sinc(0.5 * w * h / np.pi))
        integral = (voltage.amplitude / w) * ((q_sin - q_sin[0]) - slope)[at_grid]
    else:
        nodes, at_grid = _merged_nodes(grid, _drive_knots(voltage, grid),
                                       *(ts for ts, _ in counts))
        integral = _pwl_product_integral(nodes, charge(nodes),
                                         voltage.value(nodes))[at_grid]
    return PhaseHistory(times=grid, phase=integral / HBAR)


def write_phase_csv(history: PhaseHistory, path: str) -> None:
    """CSV export: header row, columns t_seconds, phase_rad, 17 digits."""
    _write_csv(path, ("t_seconds", "phase_rad"), history.times, history.phase)
