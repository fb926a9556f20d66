"""Self-test of the benchmark's correctness checks.

Each check must accept the program's real output and reject the same output
with a small perturbation.  Runs in a few seconds:

    python3 perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import scalar_ab as ab  # noqa: E402
from run import parse_importtime  # noqa: E402
from scalar_ab import cli  # noqa: E402
from tracer import Tracer, outermost_total  # noqa: E402


def circuit_params(elements):
    return ab.CircuitParams(**{k: elements[k] for k in (
        "c_sphere", "c_sigma", "c_gate", "c_prime", "inductance", "e_josephson",
        "c_josephson")})


def run_preset(name: str, directory: Path) -> str:
    path = directory / inputs.PRESET_OUTPUT[name]
    doc = json.loads(json.dumps(cli.PRESETS[name]))
    doc["output"] = {"path": str(path)}
    cli.run_experiment(cli.parse_config(json.dumps(doc)))
    return path.read_text()


def shift_column(text: str, column: int) -> str:
    """Shift one CSV column down by one row, keeping the first data row."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = [r[column] for r in rows]
    values = values[:1] + values[:-1]
    for r, v in zip(rows, values):
        r[column] = v
    return "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


class CircuitChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = inputs.ode_inputs(7)
        cls.undriven = dict(spec["undriven"], periods=50)
        cls.undriven_eom = ab.build_eom(circuit_params(cls.undriven["elements"]), None)
        period = 2 * math.pi / inputs.omega_c(cls.undriven["elements"])
        cls.undriven_run = ab.integrate_trajectory(
            cls.undriven_eom, 1.0, 0.0, (0.0, 50 * period), n_samples=cls.undriven["n_samples"])
        cls.linear = spec["linear"]
        eom = ab.build_eom(circuit_params(cls.linear["elements"]), None)
        cls.linear_run = ab.integrate_trajectory(
            eom, 0.1, 0.0, (0.0, 100 * 2 * math.pi / inputs.omega_c(cls.linear["elements"])),
            n_samples=2001)
        cls.period = period

    def test_undriven_energy(self):
        t = self.undriven_run
        phi, phidot = np.array(t.delta_phi), np.array(t.delta_phi_dot)
        self.assertIsNone(checks.check_undriven(t.times, phi, phidot, self.undriven))
        phidot[1000] *= 1 + 1e-5
        self.assertIsNotNone(checks.check_undriven(t.times, phi, phidot, self.undriven))
        phidot[1000] = math.nan
        self.assertIsNotNone(checks.check_undriven(t.times, phi, phidot, self.undriven))

    def test_linear_limit(self):
        t = self.linear_run
        phi = np.array(t.delta_phi)
        self.assertIsNone(checks.check_linear(t.times, phi, self.linear))
        phi[700] += 1e-6
        self.assertIsNotNone(checks.check_linear(t.times, phi, self.linear))

    def test_backward_return(self):
        out = ab.integrate_trajectory(self.undriven_eom, 0.7, 0.0, (0.0, 20 * self.period),
                                      n_samples=11)
        back = ab.integrate_trajectory(self.undriven_eom, float(out.delta_phi[-1]),
                                       float(out.delta_phi_dot[-1]), (20 * self.period, 0.0),
                                       n_samples=11)
        elements = self.undriven["elements"]
        got = float(back.delta_phi[0]), float(back.delta_phi_dot[0])
        self.assertIsNone(checks.check_backward((0.7, 0.0), *got, elements))
        self.assertIsNotNone(checks.check_backward((0.7, 0.0), got[0] + 1e-6, got[1], elements))

    def test_mirror(self):
        drive = ab.DriveWaveform.sinusoid(1e-6, inputs.FIG3["drive_omega"])
        t = ab.integrate_trajectory(ab.build_eom(circuit_params(inputs.FIG3), drive), 0.0, 0.0,
                                    (0.0, 2e-9), n_samples=201)
        phi = np.asarray(t.delta_phi)
        self.assertIsNone(checks.check_mirror(phi, -phi))
        self.assertIsNotNone(checks.check_mirror(phi, phi))
        self.assertIsNotNone(checks.check_mirror(phi, -phi * (1 + 1e-8)))

    def test_fig3_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            text = run_preset("fig3", Path(tmp))
        self.assertIsNone(checks.check_fig3_csv(text))
        self.assertIsNotNone(checks.check_fig3_csv(shift_column(text, 1)))
        self.assertIsNotNone(checks.check_fig3_csv(shift_column(text, 2)))
        self.assertIsNotNone(checks.check_fig3_csv(text.replace("delta_phi_rad", "phi")))

    def test_fig4_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            text = run_preset("fig4", Path(tmp))
        self.assertIsNone(checks.check_fig4_json(text))
        doc = json.loads(text)
        doc["minima"][1][0] += 1e-6
        self.assertIsNotNone(checks.check_fig4_json(json.dumps(doc)))
        doc = json.loads(text)
        doc["barrier_heights"][0] *= 1 + 1e-6
        self.assertIsNotNone(checks.check_fig4_json(json.dumps(doc)))
        doc = json.loads(text)
        doc["minima"].pop()
        doc["barrier_heights"].pop()
        self.assertIsNotNone(checks.check_fig4_json(json.dumps(doc)))


class PhaseChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = inputs.phase_inputs(7)

    def test_sinusoid_phase(self):
        s = dict(self.spec["sinusoid"], grid=self.spec["sinusoid"]["grid"][:20001])
        h = ab.accumulate_electric_phase(s["charge"], ab.DriveWaveform.sinusoid(
            s["amplitude"], s["omega"]), s["grid"])
        phase = np.array(h.phase)
        self.assertIsNone(checks.check_sinusoid_phase(h.times, phase, s))
        phase[2500] += 1e-7 * float(np.max(np.abs(phase)))
        self.assertIsNotNone(checks.check_sinusoid_phase(h.times, phase, s))

    def test_sampled_phase_and_values(self):
        s = self.spec["sampled"]
        drive = ab.DriveWaveform.sampled(s["times"], s["values"])
        h = ab.accumulate_electric_phase(s["charge"], drive, s["grid"])
        phase = np.array(h.phase)
        self.assertIsNone(checks.check_sampled_phase(h.times, phase, s))
        phase[np.argmax(np.abs(phase))] *= 1 + 1e-7
        self.assertIsNotNone(checks.check_sampled_phase(h.times, phase, s))
        for t in s["value_times"][:20]:
            got = drive.value(float(t))
            self.assertIsNone(checks.check_drive_value(s, float(t), got))
            self.assertIsNotNone(checks.check_drive_value(s, float(t), got + 1e-9 * 1e-6))

    def test_bulk_phase(self):
        b = self.spec["bulk"]
        species = [
            ab.SpeciesCount.constant(ab.Species.COOPER_PAIR, b["cooper_pairs"], (0, b["t_end"])),
            ab.SpeciesCount.constant(ab.Species.ELECTRON, b["electrons"], (0, b["t_end"])),
            ab.SpeciesCount(species=ab.Species.ION,
                            counts=tuple(zip(b["ion_knots"], b["ion_counts"]))),
        ]
        h = ab.net_bulk_phase(species, ab.DriveWaveform.sinusoid(b["amplitude"], b["omega"]),
                              b["grid"])
        self.assertIsNone(checks.check_bulk_phase(h.phase, b))
        wrong_ions = dict(b, ion_counts=b["ion_counts"] * (1 + 1e-6))
        self.assertIsNotNone(checks.check_bulk_phase(h.phase, wrong_ions))

    def test_exploding_shell(self):
        g = self.spec["grav"]
        pot = ab.exploding_shell_potential(g["shell_mass"], lambda t: g["r0"] + g["speed"] * t,
                                           g["grid"])
        mass = [(0.0, g["system_mass"]), (g["t_end"], g["system_mass"])]
        for rel_tol in (None, 1e-9):
            h = ab.accumulate_grav_phase(mass, pot, g["grid"], rel_tol=rel_tol)
            phase = np.array(h.phase)
            self.assertIsNone(checks.check_exploding_shell_phase(h.times, phase, g))
            phase[1000] *= 1 + 1e-6
            self.assertIsNotNone(checks.check_exploding_shell_phase(h.times, phase, g))

    def test_supernova_csv(self):
        with tempfile.TemporaryDirectory() as tmp:
            text = run_preset("supernova-shell", Path(tmp))
        self.assertIsNone(checks.check_supernova_csv(text))
        self.assertIsNotNone(checks.check_supernova_csv(shift_column(text, 1)))


class SpectrumChecks(unittest.TestCase):
    def coeffs(self, spectrum):
        ns = sorted(spectrum.coefficients)
        return ns, np.array([spectrum.coefficients[n] for n in ns])

    def test_jacobi_anger(self):
        for alpha in (1e4, 3.7):
            ns, c = self.coeffs(ab.jacobi_anger_coeffs(alpha, ab.required_truncation(alpha)))
            self.assertIsNone(checks.check_bessel_coeffs(ns, c, alpha, "JA"))
            k = int(np.argmax(np.abs(c)))
            c[k] = -c[k]
            self.assertIsNotNone(checks.check_bessel_coeffs(ns, c, alpha, "JA"))

    def test_norm(self):
        c = np.array([0.6, 0.8])
        self.assertIsNone(checks.check_norm(c, "x"))
        self.assertIsNotNone(checks.check_norm(c * (1 + 1e-8), "x"))

    def test_bessel_value(self):
        got = ab.bessel_j(123, 9.9e5)
        self.assertIsNone(checks.check_bessel_value(123, 9.9e5, got))
        self.assertIsNotNone(checks.check_bessel_value(123, 9.9e5, got + 1e-9))
        self.assertIsNotNone(checks.check_bessel_value(124, 9.9e5, got))

    def test_fft_oracle(self):
        f = inputs.phase_inputs(3)["fft_oracle"]
        t = np.linspace(0.0, 2 * math.pi / f["omega"], f["intervals"] + 1)
        h = ab.PhaseHistory(times=t, phase=f["alpha"] * np.sin(f["omega"] * t))
        ns, c = self.coeffs(ab.fm_spectrum_via_fft(h, f["omega"], f["truncation_n"]))
        self.assertIsNone(checks.check_bessel_coeffs(ns, c, f["alpha"], "FFT"))
        self.assertIsNotNone(checks.check_bessel_coeffs(ns, np.conj(c) * 1j, f["alpha"], "FFT"))

    def test_floquet(self):
        spec = inputs.phase_inputs(5)
        fs, fp = spec["floquet_sinusoid"], spec["floquet_sampled"]
        d = ab.floquet_decompose(ab.DriveWaveform.sinusoid(
            fs["alpha"] * inputs.HBAR * fs["omega"], fs["omega"]), fs["base_energy"])
        ns, c = self.coeffs(d)
        self.assertIsNone(checks.check_floquet_sinusoid(ns, c, d.quasi_energy, fs))
        c[len(c) // 2 + 2] *= 1 + 1e-6
        self.assertIsNotNone(checks.check_floquet_sinusoid(ns, c, d.quasi_energy, fs))
        d = ab.floquet_decompose(ab.DriveWaveform.sampled(fp["times"], fp["values"]),
                                 fp["base_energy"])
        ns, c = self.coeffs(d)
        args = (d.quasi_energy, d.residual, d.residual_tol, fp)
        self.assertIsNone(checks.check_floquet_sampled(ns, c, *args))
        self.assertIsNotNone(checks.check_floquet_sampled(ns, c, d.quasi_energy, 2e-8, 1e-8, fp))
        self.assertIsNotNone(checks.check_floquet_sampled(
            ns, c, d.quasi_energy * (1 + 1e-9), *args[1:]))
        c[len(c) // 2 + 1] *= 1 + 1e-6
        self.assertIsNotNone(checks.check_floquet_sampled(ns, c, *args))


class RedshiftChecks(unittest.TestCase):
    def test_transition_lines(self):
        tr = inputs.phase_inputs(1)["transition"]
        atom = ab.TwoLevelAtom.from_transition(tr["rest_mass"], tr["transition_energy"])
        shell = ab.MassShell(m0=tr["m0"], m1=tr["m1"], radius=tr["radius"], omega=tr["omega"])
        depth = ab.modulation_indices(atom, shell).delta_alpha
        s = ab.transition_sideband_spectrum(atom, shell, ab.required_truncation(depth))
        lines = list(s.sideband_lines)
        args = (s.carrier_frequency, s.omega, s.delta_alpha)
        self.assertIsNone(checks.check_transition_lines(lines, *args))
        n, f, a = lines[len(lines) // 2 + 9999]
        lines[len(lines) // 2 + 9999] = (n, f, a * (1 + 1e-6))
        self.assertIsNotNone(checks.check_transition_lines(lines, *args))
        lines = list(s.sideband_lines)
        n, f, a = lines[0]
        lines[0] = (n, f + 1e3, a)
        self.assertIsNotNone(checks.check_transition_lines(lines, *args))

    def test_transition_energy(self):
        earth = inputs.EARTH
        want = checks.earth_shell_expected(earth)
        carrier, depth = want["carrier_frequency_Hz"], want["delta_alpha"]
        self.assertIsNone(checks.check_transition_energy(carrier, depth, earth))
        self.assertIsNotNone(checks.check_transition_energy(carrier * (1 + 1e-8), depth, earth))
        self.assertIsNotNone(checks.check_transition_energy(carrier, depth * (1 - 1e-8), earth))

    def test_earth_shell_json(self):
        with tempfile.TemporaryDirectory() as tmp:
            text = run_preset("earth-shell", Path(tmp))
        self.assertIsNone(checks.check_earth_shell_json(text, inputs.EARTH))
        doc = json.loads(text)
        doc["sideband_lines"][20]["relative_amplitude"] *= -1
        self.assertIsNotNone(checks.check_earth_shell_json(json.dumps(doc), inputs.EARTH))
        doc = json.loads(text)
        doc["carrier_fractional_shift"] *= 1 + 1e-4
        self.assertIsNotNone(checks.check_earth_shell_json(json.dumps(doc), inputs.EARTH))


class Harness(unittest.TestCase):
    def test_outermost_total_counts_nested_spans_once(self):
        tracer = Tracer()
        with tracer.span("kernel.a"):
            with tracer.span("kernel.b"):
                pass
        with tracer.span("write.c"):
            pass
        outer = tracer.spans[0]
        self.assertEqual(outermost_total(tracer.spans, "kernel."), outer["cpu"])

    def test_parse_importtime(self):
        report = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy",
            "import time:        20 |         20 |       scipy._lib",
            "import time:        10 |        500 |     scipy.integrate",
            "import time:        30 |        900 |   scalar_ab.circuit",
            "import time:        40 |       1300 | scalar_ab",
            "import time:         5 |         25 | scalar_ab.cli",
        ])
        got = parse_importtime(report)
        self.assertAlmostEqual(got["import.numpy_s"], 300e-6)
        self.assertAlmostEqual(got["import.scipy_s"], 550e-6)
        self.assertAlmostEqual(got["import.scalar_ab_s"], 1325e-6)

    def test_sweep_configs_are_fig3_at_200_ns(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = inputs.write_sweep_configs(Path(tmp))
            configs = [cli.parse_config(p.read_text()) for p in paths]
        self.assertEqual([c.parameters["drive_amplitude_uV"] for c in configs], [1.0, 2.0])
        for c in configs:
            self.assertEqual(c.parameters["t_end_ns"], 200.0)
            self.assertTrue(math.isclose(c.parameters["drive_t_off_ns"] * 1e-9,
                                         inputs.FIG3["t_off"], rel_tol=1e-12))


if __name__ == "__main__":
    unittest.main()
