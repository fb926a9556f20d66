"""Two-level atom inside a time-varying mass shell: gravitational redshift,
FM modulation indices and transition sideband spectra, the phase inside an
exploding shell, plus the charge-superselection cancellation check for the
electric case.

The carrier line is redshifted by the DC shell potential -G*M0/r0 only; the
AC component shows up exclusively as FM sidebands at multiples of the
modulation frequency, with line amplitudes |J_n(delta_alpha)| where
delta_alpha = G*M1*(m_f - m_i)/(hbar*omega*r0) and m_f - m_i = delta_E/c^2.
For a charged system the common electric phase factor cancels in the
transition rate, so its spectrum never splits: that contrast is the point
of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .core import (C_LIGHT, G_NEWTON, HBAR, PLANCK_H, MassShell, SidebandSpectrum,
                   TwoLevelAtom, _require)
from .spectral import _check_bessel_arg, default_truncation, jacobi_anger_coeffs

if TYPE_CHECKING:
    from .ab_phase import PhaseHistory

__all__ = [
    "TransitionSpectrum",
    "ModulationIndices",
    "exploding_shell_potential",
    "redshifted_frequency",
    "modulation_indices",
    "transition_sideband_spectrum",
    "sideband_record",
    "exploding_shell_phase",
    "ion_cancellation_check",
]


def exploding_shell_potential(mass: float, radius_of_t, t_grid: Sequence[float],
                              ) -> list[tuple[float, float]]:
    """Sampled interior potential -G*mass/r(t) for a shell with fixed mass
    and time-dependent radius (expanding-shell scenario).

    Returns (t, potential) pairs suitable for
    :func:`scalar_ab.ab_phase.accumulate_grav_phase`.
    """
    _require(mass >= 0.0, "exploding_shell_potential mass must be non-negative")
    grid = np.asarray(t_grid, dtype=float)
    radii = np.asarray([float(radius_of_t(t)) for t in grid])
    _require(bool(np.all(radii > 0.0)),
             "exploding_shell_potential radius must stay strictly positive")
    return [(float(t), float(-G_NEWTON * mass / r)) for t, r in zip(grid, radii)]


def exploding_shell_phase(shell_mass: float, radius_start: float, speed: float,
                          system_mass: float, t_grid: Sequence[float]) -> PhaseHistory:
    """Gravitational AB phase of a system of constant mass ``system_mass``
    inside a shell of constant mass ``shell_mass`` whose radius grows as
    radius_start + speed*t, accumulated over ``t_grid``."""
    from . import ab_phase  # only this scenario needs it, so only it loads it

    potential = exploding_shell_potential(shell_mass, lambda t: radius_start + speed * t, t_grid)
    masses = [(t_grid[0], system_mass), (t_grid[-1], system_mass)]
    return ab_phase.accumulate_grav_phase(masses, potential, t_grid)


def _check_weak_potential(potential: float, op: str) -> None:
    if not abs(potential) < C_LIGHT ** 2:
        raise ValueError(
            f"{op}: |potential| = {abs(potential):.3g} J/kg is not below c^2 "
            f"= {C_LIGHT ** 2:.3g}; outside the weak-potential regime")


def redshifted_frequency(local_frequency: float, potential: float) -> float:
    """Frequency seen far away: f_local / (1 - potential/c^2).

    For a negative potential the distant observer sees a lower frequency
    (gravitational redshift).
    """
    _check_weak_potential(potential, "redshifted_frequency")
    return local_frequency / (1.0 - potential / C_LIGHT ** 2)


class ModulationIndices(NamedTuple):
    alpha_i: float
    alpha_f: float
    delta_alpha: float


def modulation_indices(atom: TwoLevelAtom, shell: MassShell) -> ModulationIndices:
    """FM modulation depths G*M1*m/(hbar*omega*r0) for both levels.

    ``delta_alpha`` = alpha_f - alpha_i, the observable splitting index, is
    computed from the atom's ``delta_m``, not as that difference; it is linear
    in the shell's AC mass and in delta_m, and inversely linear in the
    modulation frequency and shell radius.
    """
    _require(shell.omega > 0.0, "modulation_indices requires shell.omega > 0")
    scale = G_NEWTON * shell.m1 / (HBAR * shell.omega * shell.radius)
    return ModulationIndices(alpha_i=scale * atom.rest_mass_i, alpha_f=scale * atom.rest_mass_f,
                             delta_alpha=scale * atom.delta_m)


@dataclass(frozen=True)
class TransitionSpectrum:
    """Observable emission/absorption line pattern of the enclosed atom.

    Stores the carrier, the splitting index and the Jacobi-Anger
    ``spectrum`` of that index, whose ``omega`` is the shell's modulation
    frequency; the lines are derived from them.  Line n sits
    ``offset`` = n*omega/(2*pi) from the carrier, at carrier + offset, with
    relative amplitude |c_n| = |J_n(delta_alpha)|, so the squared
    amplitudes sum to one.  Near an optical carrier the frequencies of
    neighbouring lines round to one float64; their offsets stay distinct.
    """

    carrier_frequency: float   # Hz, DC-redshifted unsplit line
    delta_alpha: float
    spectrum: SidebandSpectrum

    @property
    def omega(self) -> float:
        """rad/s, the shell's modulation frequency."""
        return self.spectrum.omega

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(n, offset in Hz, frequency in Hz, amplitude) per line, n ascending."""
        coeffs = self.spectrum.coefficients
        offsets = coeffs.n * self.omega / (2.0 * math.pi)
        return coeffs.n, offsets, self.carrier_frequency + offsets, np.abs(coeffs.c)

    @property
    def sideband_lines(self) -> list[tuple[int, float, float]]:
        """(n, frequency in Hz, relative amplitude) per line, n ascending."""
        n, _, freqs, amps = self._columns()
        return list(zip(n.tolist(), freqs.tolist(), amps.tolist()))

    def amplitude(self, n: int) -> float:
        return abs(self.spectrum.amplitude(n))

    def lines_above(self, threshold: float) -> list[tuple[int, float, float]]:
        return [line for line in self.sideband_lines if line[2] > threshold]

    def to_dict(self) -> dict:
        return {
            "carrier_frequency_Hz": self.carrier_frequency,
            "omega_rad_per_s": self.omega,
            "delta_alpha": self.delta_alpha,
            "sideband_lines": [
                {"n": n, "offset_Hz": o, "frequency_Hz": f, "relative_amplitude": a}
                for n, o, f, a in zip(*(column.tolist() for column in self._columns()))
            ],
        }


def transition_sideband_spectrum(atom: TwoLevelAtom, shell: MassShell,
                                 truncation_n: int) -> TransitionSpectrum:
    """Line spectrum of the atom's transition inside the modulated shell.

    The carrier is the transition frequency redshifted by the DC potential
    -G*M0/r0; sidebands at carrier + n*omega/2pi carry relative amplitudes
    |J_n(delta_alpha)|.  For large delta_alpha the dominant sidebands sit
    near n = +-delta_alpha.  |delta_alpha| >= 1e6 is rejected with the cap,
    and a truncation below ``spectral.required_truncation`` with the minimum.
    """
    indices = modulation_indices(atom, shell)
    _check_bessel_arg("transition_sideband_spectrum", "delta_alpha", indices.delta_alpha)
    local_frequency = atom.transition_energy / PLANCK_H
    dc_potential = -G_NEWTON * shell.m0 / shell.radius
    return TransitionSpectrum(
        carrier_frequency=redshifted_frequency(local_frequency, dc_potential),
        delta_alpha=indices.delta_alpha,
        spectrum=jacobi_anger_coeffs(indices.delta_alpha, truncation_n, omega=shell.omega))


def sideband_record(atom: TwoLevelAtom, shell: MassShell,
                    truncation_n: int | None = None) -> dict:
    """The transition spectrum's ``to_dict()`` plus the levels' modulation
    depths ``alpha_i`` and ``alpha_f`` and the carrier's fractional redshift
    ``carrier_fractional_shift`` = (f_local - carrier)/f_local, in the closed
    form x/(1 + x) with x = G*M0/(r0*c^2), which keeps every digit.
    ``truncation_n`` None takes ``spectral.default_truncation(delta_alpha)``.
    """
    indices = modulation_indices(atom, shell)
    if truncation_n is None:
        truncation_n = default_truncation(indices.delta_alpha)
    spectrum = transition_sideband_spectrum(atom, shell, truncation_n)
    x = G_NEWTON * shell.m0 / (shell.radius * C_LIGHT ** 2)
    return {**spectrum.to_dict(), "alpha_i": indices.alpha_i, "alpha_f": indices.alpha_f,
            "carrier_fractional_shift": x / (1.0 + x)}


def ion_cancellation_check(common_phase: PhaseHistory, base_rate: float) -> float:
    """Transition rate |exp(+i*phi) * A * exp(-i*phi)|^2 with A = sqrt(base_rate).

    Charge superselection forces bra and ket of any transition to carry the
    same charge, hence the same accumulated electric phase; the two phase
    factors combine to exp(i*(phi - phi)), whose exponent cancels exactly in
    floating point for every sample, so the returned rate equals
    ``base_rate`` to within one ulp no matter how large or wild phi(t) is.
    """
    _require(base_rate >= 0.0, "ion_cancellation_check base_rate must be non-negative")
    bra_phase = common_phase.phase
    ket_phase = -common_phase.phase
    unimodular = np.exp(1j * (bra_phase + ket_phase))
    rates = base_rate * (unimodular.real ** 2 + unimodular.imag ** 2)
    # All samples are equal by construction; return the one farthest from
    # base_rate so any numerical surprise is the value callers see.
    worst = int(np.argmax(np.abs(rates - base_rate)))
    return float(rates[worst])
