"""AB phase accumulation, checked against closed forms, a dense Riemann-sum
oracle and Gauss-Legendre quadrature between every kink of the integrand."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalar_ab
from scalar_ab.ab_phase import (PhaseHistory, Species, SpeciesCount,
                                _merged_nodes, accumulate_electric_phase,
                                accumulate_grav_phase, net_bulk_phase)
from scalar_ab.core import E_CHARGE, G_NEWTON, HBAR, DriveWaveform

E, G = E_CHARGE, G_NEWTON

# fig3-preset drive: V0 = 1 uV at 150 MHz; the Cooper-pair modulation
# depth 2*e*V0/(hbar*omega) evaluates to 3.2239856... (dimensionless).
OMEGA_DRIVE = 2 * math.pi * 150e6
ALPHA_COOPER_PAIR = 3.223985658088622


# A kinked sampled drive over one 150 MHz period with a nonzero mean.
SAMPLE_T = np.linspace(0.0, 1 / 150e6, 17)
SAMPLE_V = 2e-6 * (0.25 + np.cos(OMEGA_DRIVE * SAMPLE_T)
                   + 0.3 * np.sin(3 * OMEGA_DRIVE * SAMPLE_T))
SAMPLE_V[-1] = SAMPLE_V[0]


def constant_waveform(value, period=1.0):
    return DriveWaveform.sampled([0.0, period], [value, value])


def gauss_legendre_cumulative(integrand, breaks, grid, order=8):
    """Integral from grid[0] at each grid point, by Gauss-Legendre quadrature
    on every piece between ``breaks``, which hold the grid and every kink."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(breaks)
    t = (breaks[:-1] + half)[:, None] + half[:, None] * x[None, :]
    cum = np.concatenate([[0.0], np.cumsum(half * (integrand(t) @ w))])
    return cum[np.searchsorted(breaks, grid)]


class TestElectricPhase:
    def test_constant_voltage_linear_ramp(self):
        grid = np.linspace(0.0, 5.0, 101)
        history = accumulate_electric_phase(E, constant_waveform(2.5, 10.0), grid)
        assert np.allclose(history.phase, E * 2.5 * grid / HBAR, rtol=1e-12)

    def test_cooper_pair_fm_depth_matches_frozen_value(self):
        alpha = 2 * E * 1e-6 / (HBAR * OMEGA_DRIVE)
        assert alpha == pytest.approx(ALPHA_COOPER_PAIR, rel=1e-12, abs=0.0)
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        grid = np.linspace(0.0, 3 / 150e6, 1501)
        history = accumulate_electric_phase(2 * E, drive, grid)
        expected = ALPHA_COOPER_PAIR * np.sin(OMEGA_DRIVE * grid)
        assert np.max(np.abs(history.phase - expected)) < 1e-9 * ALPHA_COOPER_PAIR

    def test_zero_charge_gives_zero_phase(self):
        drive = DriveWaveform.sinusoid(1.0, 1e6)
        grid = np.linspace(0.0, 1e-5, 64)
        history = accumulate_electric_phase(0.0, drive, grid)
        assert np.all(history.phase == 0.0)

    def test_rejects_nonmonotonic_grid(self):
        drive = DriveWaveform.sinusoid(1.0, 1e6)
        with pytest.raises(ValueError, match="non-monotonic grid rejected"):
            accumulate_electric_phase(E, drive, [0.0, 2e-6, 1e-6])

    def test_phase_starts_at_zero(self):
        drive = DriveWaveform.sinusoid(1.0, 1e6)
        history = accumulate_electric_phase(E, drive, np.linspace(1e-6, 2e-6, 11))
        assert history.phase[0] == 0.0


class TestGravPhase:
    def test_constant_mass_and_potential(self):
        grid = np.linspace(0.0, 10.0, 21)
        history = accumulate_grav_phase([(0.0, 2.0), (10.0, 2.0)],
                                        [(0.0, -5.0), (10.0, -5.0)], grid)
        assert np.allclose(history.phase, 2.0 * (-5.0) * grid / HBAR, rtol=1e-12)

    def test_shell_modulation_matches_closed_form(self):
        # Phi(t) = -G*(M0 + M1*cos(w*t))/r0 with constant mass m integrates to
        # -G*m*M0*t/(hbar*r0) - alpha*sin(w*t), alpha = G*m*M1/(hbar*w*r0).
        m, m0, m1, r0, w = 1e-25, 5e24, 5e22, 6.4e6, 2 * math.pi * 0.5
        grid = np.linspace(0.0, 6.0, 2001)
        dense = np.linspace(0.0, 6.0, 48001)
        potential = [(t, -G * (m0 + m1 * math.cos(w * t)) / r0) for t in dense]
        history = accumulate_grav_phase([(0.0, m), (6.0, m)], potential, grid)
        alpha = G * m * m1 / (HBAR * w * r0)
        expected = -G * m * m0 * grid / (HBAR * r0) - alpha * np.sin(w * grid)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(history.phase - expected)) < 1e-9 * scale

    def test_dc_only_shell_has_no_oscillation(self):
        m, m0, r0 = 1e-25, 5e24, 6.4e6
        grid = np.linspace(0.0, 4.0, 401)
        potential = [(t, -G * m0 / r0) for t in grid]
        history = accumulate_grav_phase([(0.0, m), (4.0, m)], potential, grid)
        ramp = -G * m * m0 * grid / (HBAR * r0)
        assert np.allclose(history.phase, ramp, rtol=1e-12)

    def test_knots_between_grid_points_match_gauss_legendre(self):
        grid = np.linspace(0.0, 10.0, 11)
        mass_t = np.linspace(0.0, 10.0, 38)
        mass_v = 1e-25 * (2.0 + np.sin(mass_t))
        pot_t = np.linspace(-1.0, 11.0, 24)
        pot_v = -G * 5e24 / 6.4e6 * (1.0 + 0.1 * np.cos(pot_t))
        history = accumulate_grav_phase(list(zip(mass_t, mass_v)),
                                        list(zip(pot_t, pot_v)), grid)
        breaks = np.union1d(grid, np.concatenate([mass_t, pot_t[(pot_t > 0) & (pot_t < 10)]]))
        oracle = gauss_legendre_cumulative(
            lambda t: np.interp(t, mass_t, mass_v) * np.interp(t, pot_t, pot_v),
            breaks, grid) / HBAR
        assert history.phase[0] == 0.0
        assert np.max(np.abs(history.phase - oracle)) < 1e-12 * np.max(np.abs(oracle))

    def test_rejects_coverage_gap(self):
        grid = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ValueError, match="coverage gap"):
            accumulate_grav_phase([(0.0, 1.0), (5.0, 1.0)],
                                  [(0.0, 1.0), (10.0, 1.0)], grid)


class TestBulkPhase:
    def test_charge_neutral_bulk_accumulates_nothing(self):
        # N_ion = 2*N_CP + N_els makes the net bulk charge zero at all times.
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        t_end = 2 / 150e6
        grid = np.linspace(0.0, t_end, 301)
        ts = np.linspace(0.0, t_end, 7)
        n_cp = 1e9 * (1 + 0.3 * np.sin(2 * math.pi * ts / t_end) ** 2)
        n_els = np.full_like(ts, 4e9)
        species = [
            SpeciesCount(Species.COOPER_PAIR, tuple(zip(ts, n_cp))),
            SpeciesCount(Species.ELECTRON, tuple(zip(ts, n_els))),
            SpeciesCount(Species.ION, tuple(zip(ts, 2 * n_cp + n_els))),
        ]
        net = net_bulk_phase(species, drive, grid)
        single = accumulate_electric_phase(2 * E, drive, grid)
        scale = 1e9 * np.max(np.abs(single.phase))
        assert np.max(np.abs(net.phase)) < 1e-12 * scale

    def test_single_constant_species_reduces_to_scaled_electric(self):
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        grid = np.linspace(0.0, 1 / 150e6, 257)
        n = 3.0e7
        bulk = net_bulk_phase(
            [SpeciesCount.constant(Species.COOPER_PAIR, n, (0.0, grid[-1]))],
            drive, grid)
        single = accumulate_electric_phase(2 * E, drive, grid)
        scale = n * np.max(np.abs(single.phase))
        assert np.max(np.abs(bulk.phase - n * single.phase)) < 1e-9 * scale

    @pytest.mark.parametrize("drive, drive_knots, start_periods, end_periods", [
        # A three-quarter period window so the net phase does not cancel.
        pytest.param(DriveWaveform.sinusoid(2e-6, OMEGA_DRIVE), np.empty(0), 0.0, 0.75,
                     id="sinusoid"),
        # A grid starting off the drive origin and spanning several periods.
        pytest.param(DriveWaveform.sampled(SAMPLE_T, SAMPLE_V), SAMPLE_T, 0.37, 3.6,
                     id="sampled"),
    ])
    def test_time_varying_counts_match_riemann_oracle(self, drive, drive_knots,
                                                      start_periods, end_periods):
        t_start, t_end = start_periods / 150e6, end_periods / 150e6
        grid = np.linspace(t_start, t_end, 401)
        ts = np.linspace(0.0, t_end, 9)
        n_cp = 1e8 * (1 + 0.5 * np.cos(2 * math.pi * ts / t_end) ** 2)
        species = [
            SpeciesCount(Species.COOPER_PAIR, tuple(zip(ts, n_cp))),
            SpeciesCount.constant(Species.ELECTRON, 2e8, (0.0, t_end)),
            SpeciesCount.constant(Species.ION, 7e8, (0.0, t_end)),
        ]
        net = net_bulk_phase(species, drive, grid)

        def integrand(t):
            out = np.zeros_like(t)
            for s in species:
                cts = np.array([c[0] for c in s.counts])
                cns = np.array([c[1] for c in s.counts])
                out += s.charge_per_unit * np.interp(t, cts, cns) * drive.value(t)
            return out

        # Midpoint Riemann sum on a 10x denser grid, fully independent path.
        dense = np.linspace(t_start, t_end, (len(grid) - 1) * 10 + 1)
        mids = 0.5 * (dense[1:] + dense[:-1])
        oracle = np.concatenate([[0.0], np.cumsum(integrand(mids) * np.diff(dense))]) / HBAR
        oracle_at_grid = oracle[::10]
        scale = np.max(np.abs(net.phase))
        assert np.abs(net.phase[-1]) > 0.01 * scale  # genuinely nonzero
        assert np.max(np.abs(net.phase - oracle_at_grid)) < 1e-6 * scale

        # Gauss-Legendre between the grid, count and unrolled drive knots.
        unrolled = (drive_knots[:, None] + np.arange(5) / 150e6).ravel()
        kinks = np.concatenate([ts, unrolled])
        breaks = np.union1d(grid, kinks[(kinks > t_start) & (kinks < t_end)])
        exact = gauss_legendre_cumulative(integrand, breaks, grid) / HBAR
        assert net.phase[0] == 0.0
        assert np.max(np.abs(net.phase - exact)) < 1e-12 * scale

    def test_requires_at_least_one_species(self):
        drive = DriveWaveform.sinusoid(1.0, 1e6)
        with pytest.raises(ValueError, match="at least one species"):
            net_bulk_phase([], drive, np.linspace(0, 1e-5, 16))

    def test_rejects_count_coverage_gap(self):
        drive = DriveWaveform.sinusoid(1.0, 1e6)
        grid = np.linspace(0.0, 1e-5, 16)
        short = SpeciesCount(Species.ELECTRON, ((0.0, 1.0), (5e-6, 1.0)))
        with pytest.raises(ValueError, match="coverage gap"):
            net_bulk_phase([short], drive, grid)


class TestQuadratureProperties:
    def test_linearity_in_the_waveform(self):
        # w1, w2 and w1 + w2 sampled on the same knots: the exact integral of
        # each interpolant is linear in the samples.
        t = np.linspace(0.0, 1 / 150e6, 65)

        def sampled(values):
            values[-1] = values[0]
            return DriveWaveform.sampled(t, values)

        v1 = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE).value(t)
        v2 = DriveWaveform.sinusoid(0.4e-6, OMEGA_DRIVE, phase0=1.1).value(t)
        grid = np.linspace(0.0, 1 / 150e6, 65)
        p1 = accumulate_electric_phase(E, sampled(v1.copy()), grid)
        p2 = accumulate_electric_phase(E, sampled(v2.copy()), grid)
        p_sum = accumulate_electric_phase(E, sampled(v1 + v2), grid)
        scale = np.max(np.abs(p_sum.phase))
        assert np.max(np.abs(p_sum.phase - (p1.phase + p2.phase))) < 1e-14 * scale

    def test_additivity_in_time(self):
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE, phase0=0.3)
        t1, t2 = 0.6 / 150e6, 1.7 / 150e6
        full = accumulate_electric_phase(E, drive, np.linspace(0.0, t2, 3001))
        first = accumulate_electric_phase(E, drive, np.linspace(0.0, t1, 1501))
        second = accumulate_electric_phase(E, drive, np.linspace(t1, t2, 1501))
        combined = first.phase[-1] + second.phase[-1]
        scale = np.max(np.abs(full.phase))
        assert full.phase[-1] == pytest.approx(combined, abs=1e-9 * scale)

    def test_phase_is_grid_independent(self):
        # The exact integral does not depend on the grid: a 301- and a
        # 601-point grid agree where they share samples, and both give
        # alpha*sin(omega*t).
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        alpha = E * 1e-6 / (HBAR * OMEGA_DRIVE)
        coarse, fine = (accumulate_electric_phase(E, drive, np.linspace(0.0, 3 / 150e6, n))
                        for n in (301, 601))
        assert np.max(np.abs(coarse.phase - fine.phase[::2])) < 1e-15 * alpha
        for history in (coarse, fine):
            expected = alpha * np.sin(OMEGA_DRIVE * history.times)
            assert np.max(np.abs(history.phase - expected)) < 1e-15 * alpha

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0])
    def test_rel_tol_is_ignored(self, rel_tol):
        # accumulate_grav_phase accepts rel_tol for compatibility; every value
        # gives the same exact phase, bit for bit.  The electric and bulk
        # phases take no rel_tol.
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        grid = np.linspace(0.0, 1e-8, 11)
        history = [(0.0, 1.0), (1e-8, 2.0)]
        species = [SpeciesCount(Species.ELECTRON, ((0.0, 1.0), (1e-8, 3.0)))]
        phases = {accumulate_grav_phase(history, history, grid, rel_tol=tol).phase.tobytes()
                  for tol in (None, 1e-9, rel_tol)}
        assert len(phases) == 1
        with pytest.raises(TypeError, match="rel_tol"):
            accumulate_electric_phase(E, drive, grid, rel_tol=rel_tol)
        with pytest.raises(TypeError, match="rel_tol"):
            net_bulk_phase(species, drive, grid, rel_tol=rel_tol)

    def test_rough_sampled_drive_is_exact(self):
        # 4,097 white-noise samples over 1 us phased over three periods: the
        # exact integral of the interpolant, with no refinement loop to stall.
        rng = np.random.default_rng(4097)
        kt = np.linspace(0.0, 1e-6, 4097)
        kv = rng.normal(0.0, 1e-6, 4097)
        kv[-1] = kv[0]
        grid = np.linspace(0.0, 3e-6, 20001)
        history = accumulate_electric_phase(E, DriveWaveform.sampled(kt, kv), grid)
        # Oracle: trapezoid on the grid merged with the drive knots of all
        # three periods, which is exact for the piecewise-linear drive.
        unrolled = (kt[:-1, None] + np.array([0.0, 1e-6, 2e-6])).ravel()
        nodes = np.union1d(grid, unrolled[unrolled < grid[-1]])
        v = np.interp(np.mod(nodes, 1e-6), kt, kv)
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(nodes))])
        oracle = E / HBAR * cum[np.searchsorted(nodes, grid)]
        assert history.phase[0] == 0.0
        assert np.max(np.abs(history.phase - oracle)) < 1e-12 * np.max(np.abs(oracle))

    def test_refinement_meets_requested_tolerance(self):
        drive = DriveWaveform.sinusoid(1e-6, OMEGA_DRIVE)
        alpha = E * 1e-6 / (HBAR * OMEGA_DRIVE)
        grid = np.linspace(0.0, 2 / 150e6, 41)  # deliberately coarse
        history = accumulate_electric_phase(E, drive, grid)
        expected = alpha * np.sin(OMEGA_DRIVE * grid)
        assert np.max(np.abs(history.phase - expected)) < 2e-9 * alpha


class TestPhaseHistoryType:
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match=r"phase\[0\]"):
            PhaseHistory(times=[0.0, 1.0], phase=[0.1, 0.2])

    def test_round_trip(self):
        import json

        history = PhaseHistory(times=[0.0, 1e-9, 3e-9], phase=[0.0, 0.7, -2.4])
        again = PhaseHistory(**json.loads(json.dumps(history.to_dict())))
        assert np.array_equal(again.times, history.times)
        assert np.array_equal(again.phase, history.phase)

    def test_rejects_nonmonotonic_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PhaseHistory(times=[0.0, 1.0, 1.0], phase=[0.0, 0.1, 0.2])

    def test_species_count_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpeciesCount(Species.ELECTRON, ((0.0, -1.0), (1.0, 1.0)))


class TestMergedNodes:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_union1d(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.choice(np.linspace(-1.0, 1.0, 41), 12, replace=False))
        knots = [rng.choice(np.linspace(-1.5, 1.5, 61), rng.integers(0, 30))
                 for _ in range(rng.integers(1, 4))]
        nodes, at_grid = _merged_nodes(grid, *knots)
        inner = [k[(k > grid[0]) & (k < grid[-1])] for k in knots]
        expected = np.union1d(grid, np.concatenate(inner))
        assert nodes.tobytes() == expected.tobytes()
        assert np.array_equal(nodes[at_grid], grid)

    def test_phase_ops_leave_numpy_ma_unimported(self):
        # np.union1d imports numpy.ma (~14 ms) on its first call.
        code = """
import sys
import numpy as np
from scalar_ab.ab_phase import (Species, SpeciesCount, accumulate_grav_phase,
                                net_bulk_phase)
from scalar_ab.core import DriveWaveform
grid = np.linspace(0.0, 1e-8, 101)
count = SpeciesCount(Species.ELECTRON, ((0.0, 1.0), (3.3e-9, 2.0), (1e-8, 1.0)))
net_bulk_phase([count], DriveWaveform.sinusoid(1e-6, 1e9), grid)
accumulate_grav_phase([(0.0, 1.0), (5.5e-9, 2.0), (1e-8, 2.0)],
                      [(0.0, -1.0), (2.2e-9, -3.0), (1e-8, -2.0)], grid)
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""
        src = str(Path(scalar_ab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
