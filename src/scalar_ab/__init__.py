"""Scalar Aharonov-Bohm simulation toolkit.

Numerical realizations of two field-free, potential-only experiments: a
driven Josephson circuit enclosed in a superconducting shield, and a
two-level atom inside a mass shell with a time-varying potential.  The
library covers AB phase accumulation by quadrature, driven nonlinear circuit
dynamics, temporal-Bloch (Floquet) sideband spectra, and time-dependent
gravitational redshift, plus a strict-config CLI (``scalar-ab``).

Importing the package loads no submodule and no numpy: each public name is
imported from its submodule on first access (PEP 562), so ``scalar_ab.cli``
can set up the process before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("CircuitParams", "DriveWaveform", "Trajectory", "SidebandSpectrum", "MassShell",
             "TwoLevelAtom"),
    "ab_phase": ("PhaseHistory", "Species", "SpeciesCount", "accumulate_electric_phase",
                 "accumulate_grav_phase", "net_bulk_phase", "write_phase_csv"),
    "circuit": ("EomParams", "DriveEnvelope", "StepControl", "PotentialLandscape",
                "IntegrationError", "build_eom", "integrate_trajectory", "specific_energy",
                "potential_landscape"),
    "spectral": ("FloquetDecomposition", "bessel_j", "jacobi_anger_coeffs",
                 "required_truncation", "quasi_energy_ladder", "floquet_decompose",
                 "fm_spectrum_via_fft"),
    "redshift": ("ModulationIndices", "TransitionSpectrum", "exploding_shell_potential",
                 "redshifted_frequency", "modulation_indices",
                 "transition_sideband_spectrum", "ion_cancellation_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
