"""One fresh interpreter per in-process operation group.

    python3 perfbench/worker.py --group ode|phase|cli --seed N --workdir DIR \
        --mode setup|serve

Set-up is the import of ``scalar_ab`` (``scalar_ab.cli`` for the cli group)
plus building the group's inputs; the worker then prints ``ready`` and the
CPU seconds the process has used so far.  With ``--mode setup`` it exits
there.  With ``--mode serve`` it then reads one line per slice from standard
input, ``0`` for an untraced slice or ``1`` for a traced one, and runs the
next slice of its pass.  A pass has ``inputs.SLICES`` slices, so that run.py
can spread each group's work over the whole round.  After an intermediate
slice the worker prints ``{}``; after the last slice of a pass it checks the
outputs and prints one JSON object with the counts, the end-to-end figures
or, for a traced pass, the per-layer figures and spans.  Times are CPU
seconds (tracer.py says why).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import inputs


def check_named(name: str, problem: str | None) -> str | None:
    return f"{name}: {problem}" if problem else None


class Pass:
    """Runs operations one at a time, timing each under its span name."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.attempted = 0
        self.errors: list[str] = []

    def op(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            with self.clock.span(name):
                return fn(*args, **kwargs)
        except Exception as exc:  # the program failed this operation
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


# --- circuit-ode ------------------------------------------------------------

def build_ode(seed: int):
    import scalar_ab as ab

    spec = inputs.ode_inputs(seed)

    def params(elements):
        return ab.CircuitParams(**{k: elements[k] for k in (
            "c_sphere", "c_sigma", "c_gate", "c_prime", "inductance", "e_josephson",
            "c_josephson")})

    def period(elements):
        return 2.0 * math.pi * math.sqrt(elements["inductance"] * elements["c_prime"])

    fig3 = inputs.FIG3
    drive = ab.DriveWaveform.sinusoid(fig3["drive_amplitude"], fig3["drive_omega"])
    return {
        "ab": ab,
        "spec": spec,
        "undriven_eom": ab.build_eom(params(spec["undriven"]["elements"]), None),
        "undriven_t": spec["undriven"]["periods"] * period(spec["undriven"]["elements"]),
        "linear_eom": ab.build_eom(params(spec["linear"]["elements"]), None),
        "linear_t": spec["linear"]["periods"] * period(spec["linear"]["elements"]),
        "driven_eom": ab.build_eom(params(fig3), drive),
        "envelope": ab.DriveEnvelope(t_on=0.0, t_off=spec["driven"]["t_off"],
                                     ramp_duration=0.0),
        "backward_t": spec["backward"]["periods"] * period(spec["backward"]["elements"]),
        "fig3_params": params(fig3),
    }


def _mirror(ab, params, n_samples, t_end):
    trajectories = []
    for sign in (1.0, -1.0):
        drive = ab.DriveWaveform.sinusoid(sign * inputs.FIG3["drive_amplitude"],
                                          inputs.FIG3["drive_omega"])
        trajectories.append(ab.integrate_trajectory(
            ab.build_eom(params, drive), 0.0, 0.0, (0.0, t_end), n_samples=n_samples))
    return trajectories


def _out_and_back(ab, eom, phi0, t_end, n_samples):
    out = ab.integrate_trajectory(eom, phi0, 0.0, (0.0, t_end), n_samples=n_samples)
    back = ab.integrate_trajectory(eom, float(out.delta_phi[-1]), float(out.delta_phi_dot[-1]),
                                   (t_end, 0.0), n_samples=n_samples)
    return back


def _undriven_part(p: Pass, ctx, out: dict, k: int) -> None:
    """Part k of the 1,000-period undriven run, continuing from part k - 1."""
    ab, spec = ctx["ab"], ctx["spec"]["undriven"]
    parts = spec["parts"]
    if k == 0:
        state = (spec["phi0"], 0.0)
    elif out["undriven"][k - 1] is not None:
        last = out["undriven"][k - 1]
        state = (float(last.delta_phi[-1]), float(last.delta_phi_dot[-1]))
    else:
        p.attempted += 1
        p.errors.append(f"circuit.undriven: part {k} has no start state")
        out["undriven"].append(None)
        return
    span = (k * ctx["undriven_t"] / parts, (k + 1) * ctx["undriven_t"] / parts)
    out["undriven"].append(p.op("circuit.undriven", ab.integrate_trajectory,
                                ctx["undriven_eom"], *state, span,
                                n_samples=(spec["n_samples"] - 1) // parts + 1))


def ode_slice(k: int, ctx, p: Pass, out: dict) -> None:
    """The undriven run is split in three, one part per slice; the other
    operations go where they even out the slices."""
    ab, spec = ctx["ab"], ctx["spec"]
    out.setdefault("undriven", [])
    _undriven_part(p, ctx, out, k)
    if k == 0:
        out["linear"] = p.op("circuit.linear", ab.integrate_trajectory, ctx["linear_eom"],
                             spec["linear"]["phi0"], 0.0, (0.0, ctx["linear_t"]),
                             n_samples=spec["linear"]["n_samples"])
    elif k == 1:
        out["driven"] = p.op("circuit.driven", ab.integrate_trajectory, ctx["driven_eom"],
                             0.0, 0.0, (0.0, spec["driven"]["t_end"]),
                             envelope=ctx["envelope"], n_samples=spec["driven"]["n_samples"])
    else:
        out["backward"] = p.op("circuit.backward", _out_and_back, ab, ctx["undriven_eom"],
                               spec["backward"]["phi0"], ctx["backward_t"],
                               spec["backward"]["n_samples"])
        out["mirror"] = p.op("circuit.mirror", _mirror, ab, ctx["fig3_params"],
                             spec["mirror"]["n_samples"], spec["mirror"]["t_end"])


def check_ode(ctx, out: dict) -> tuple[list[str], list[str]]:
    """Returns (incorrect, probe failures)."""
    import checks

    spec = ctx["spec"]
    bad = []
    if all(part is not None for part in out["undriven"]):
        import numpy as np

        parts = out["undriven"]
        joined = [np.concatenate([getattr(parts[0], name)]
                                 + [getattr(t, name)[1:] for t in parts[1:]])
                  for name in ("times", "delta_phi", "delta_phi_dot")]
        bad.append(check_named("undriven", checks.check_undriven(*joined, spec["undriven"])))
    if out["linear"] is not None:
        bad.append(check_named("linear", checks.check_linear(
            out["linear"].times, out["linear"].delta_phi, spec["linear"])))
    if out["driven"] is not None:
        t = out["driven"]
        bad.append(check_named("driven", checks.check_post_drive_energy(
            t.times, t.delta_phi, t.delta_phi_dot, spec["driven"]["elements"],
            spec["driven"]["t_off"], spec["driven"]["t_end"], spec["driven"]["n_samples"])))
    if out["backward"] is not None:
        back = out["backward"]
        bad.append(check_named("backward", checks.check_backward(
            (spec["backward"]["phi0"], 0.0), float(back.delta_phi[0]),
            float(back.delta_phi_dot[0]), spec["backward"]["elements"])))
    probes = []
    if out["mirror"] is not None:
        plus, minus = out["mirror"]
        probes.append(check_named("circuit.mirror", checks.check_mirror(
            plus.delta_phi, minus.delta_phi)))
    return [b for b in bad if b], [p for p in probes if p]


def ode_metrics(ctx, clock, out: dict, cpu: float) -> dict:
    """run_s and undriven periods per CPU second, over the three parts."""
    periods = ctx["spec"]["undriven"]["periods"]
    return {"run_s": cpu, "ode_periods_per_s": periods / clock.totals["circuit.undriven"]}


def ode_layers(ctx, tracer, out: dict) -> dict:
    undriven = tracer.totals["circuit.undriven"]
    return {
        "circuit.undriven.integrate_s": undriven,
        "circuit.undriven.us_per_period": 1e6 * undriven / ctx["spec"]["undriven"]["periods"],
        "circuit.linear.integrate_s": tracer.totals["circuit.linear"],
        "circuit.driven.integrate_s": tracer.totals["circuit.driven"],
        "circuit.backward.integrate_s": tracer.totals["circuit.backward"],
    }


# --- phase-spectra ------------------------------------------------------------

PHASE_OPS = ("ab_phase.electric_sinusoid", "ab_phase.electric_sampled", "ab_phase.bulk",
             "ab_phase.grav")
SPECTRUM_OPS = ("spectral.jacobi_anger_large", "spectral.jacobi_anger_small",
                "spectral.floquet_sinusoid", "spectral.floquet_sampled", "spectral.fft_oracle",
                "redshift.transition_spectrum", "redshift.amplitude_lookup")


def build_phase(seed: int):
    import numpy as np
    import scalar_ab as ab

    spec = inputs.phase_inputs(seed)
    sin, smp, bulk = spec["sinusoid"], spec["sampled"], spec["bulk"]
    bulk_drive = ab.DriveWaveform.sinusoid(bulk["amplitude"], bulk["omega"])
    span = (0.0, bulk["t_end"])
    species = [
        ab.SpeciesCount.constant(ab.Species.COOPER_PAIR, bulk["cooper_pairs"], span),
        ab.SpeciesCount.constant(ab.Species.ELECTRON, bulk["electrons"], span),
        ab.SpeciesCount(species=ab.Species.ION,
                        counts=tuple(zip(bulk["ion_knots"], bulk["ion_counts"]))),
    ]
    fs, fp, fft = spec["floquet_sinusoid"], spec["floquet_sampled"], spec["fft_oracle"]
    fft_t = np.linspace(0.0, 2.0 * math.pi / fft["omega"], fft["intervals"] + 1)
    tr = spec["transition"]
    shell = ab.MassShell(m0=tr["m0"], m1=tr["m1"], radius=tr["radius"], omega=tr["omega"])
    atom = ab.TwoLevelAtom.from_transition(tr["rest_mass"], tr["transition_energy"])
    depth = ab.modulation_indices(atom, shell).delta_alpha
    return {
        "ab": ab,
        "spec": spec,
        "sin_drive": ab.DriveWaveform.sinusoid(sin["amplitude"], sin["omega"]),
        "sampled_drive": ab.DriveWaveform.sampled(smp["times"], smp["values"]),
        "bulk_drive": bulk_drive,
        "species": species,
        "floquet_sin": ab.DriveWaveform.sinusoid(fs["alpha"] * inputs.HBAR * fs["omega"],
                                                 fs["omega"]),
        "floquet_sampled": ab.DriveWaveform.sampled(fp["times"], fp["values"]),
        "fft_history": ab.PhaseHistory(times=fft_t,
                                       phase=fft["alpha"] * np.sin(fft["omega"] * fft_t)),
        "atom": atom,
        "shell": shell,
        "transition_n": ab.required_truncation(depth),
        "ja_large_n": ab.required_truncation(spec["ja_large_alpha"]),
        "ja_small_n": [ab.required_truncation(a) for a in spec["ja_small_alphas"]],
    }


def lookup_indices(ctx) -> range:
    """Every third line of the delta_alpha = 1e4 spectrum (6,727 lookups,
    ~2 s): all 20,181 would take a fifth of a round."""
    n_max = ctx["transition_n"]
    return range(-n_max, n_max + 1, 3)


def _earth_shell_spectrum(ab, earth):
    atom = ab.TwoLevelAtom.from_transition(earth["rest_mass"], earth["transition_energy"])
    shell = ab.MassShell(m0=earth["m0"], m1=earth["m1"], radius=earth["radius"],
                         omega=earth["omega"])
    depth = ab.modulation_indices(atom, shell).delta_alpha
    return ab.transition_sideband_spectrum(atom, shell, ab.required_truncation(depth))


def phase_slice(k: int, ctx, p: Pass, out: dict) -> None:
    """The 2,000 small Jacobi-Anger calls and the lookups are split over the
    three slices; each other call runs once, where it evens out the slices."""
    ab, spec = ctx["ab"], ctx["spec"]
    alphas = list(zip(spec["ja_small_alphas"], ctx["ja_small_n"]))[k::inputs.SLICES]
    if k == 0:
        out["sinusoid"] = p.op("ab_phase.electric_sinusoid", ab.accumulate_electric_phase,
                               spec["sinusoid"]["charge"], ctx["sin_drive"],
                               spec["sinusoid"]["grid"])
        out["sampled"] = p.op("ab_phase.electric_sampled", ab.accumulate_electric_phase,
                              spec["sampled"]["charge"], ctx["sampled_drive"],
                              spec["sampled"]["grid"])
        out["values"] = [p.op("core.drive_value", ctx["sampled_drive"].value, float(t))
                         for t in spec["sampled"]["value_times"]]
        out["transition"] = p.op("redshift.transition_spectrum",
                                 ab.transition_sideband_spectrum, ctx["atom"], ctx["shell"],
                                 ctx["transition_n"])
        out["ja_small"], out["lookups"] = [], []
    elif k == 1:
        out["bulk"] = p.op("ab_phase.bulk", ab.net_bulk_phase, ctx["species"],
                           ctx["bulk_drive"], spec["bulk"]["grid"])
        grav = spec["grav"]
        r0, v = grav["r0"], grav["speed"]
        out["potential"] = p.op("redshift.exploding_shell_potential",
                                ab.exploding_shell_potential, grav["shell_mass"],
                                lambda t: r0 + v * t, grav["grid"])
        if out["potential"] is not None:
            mass = [(0.0, grav["system_mass"]), (grav["t_end"], grav["system_mass"])]
            out["grav"] = p.op("ab_phase.grav", ab.accumulate_grav_phase, mass,
                               out["potential"], grav["grid"])
        out["ja_large"] = p.op("spectral.jacobi_anger_large", ab.jacobi_anger_coeffs,
                               spec["ja_large_alpha"], ctx["ja_large_n"])
        out["floquet_sin"] = p.op("spectral.floquet_sinusoid", ab.floquet_decompose,
                                  ctx["floquet_sin"], spec["floquet_sinusoid"]["base_energy"])
    else:
        big = spec["bessel_large"]
        out["bessel_large"] = p.op("spectral.bessel_j_large", ab.bessel_j, big["n"],
                                   big["alpha"])
        out["bessel_tiny"] = p.op("spectral.bessel_j_subnormal", ab.bessel_j, 1, 5e-324)
        out["floquet_sampled"] = p.op("spectral.floquet_sampled", ab.floquet_decompose,
                                      ctx["floquet_sampled"],
                                      spec["floquet_sampled"]["base_energy"])
        fft = spec["fft_oracle"]
        out["fft"] = p.op("spectral.fft_oracle", ab.fm_spectrum_via_fft, ctx["fft_history"],
                          fft["omega"], fft["truncation_n"])
        out["earth"] = p.op("redshift.transition_energy", _earth_shell_spectrum, ab,
                            spec["earth"])
    out["ja_small"] += [p.op("spectral.jacobi_anger_small", ab.jacobi_anger_coeffs,
                             float(a), n) for a, n in alphas]
    if out["transition"] is not None:
        out["lookups"] += [p.op("redshift.amplitude_lookup", out["transition"].amplitude, n)
                           for n in lookup_indices(ctx)[k::inputs.SLICES]]


def _sorted_coeffs(mapping):
    ns = sorted(mapping)
    return ns, [mapping[n] for n in ns]


def check_phase(ctx, out: dict) -> tuple[list[str], list[str]]:
    import checks
    import numpy as np

    spec = ctx["spec"]
    bad = []

    def add(name, result):
        bad.append(check_named(name, result))

    if out["sinusoid"] is not None:
        add("electric_sinusoid", checks.check_sinusoid_phase(
            out["sinusoid"].times, out["sinusoid"].phase, spec["sinusoid"]))
    if out["sampled"] is not None:
        add("electric_sampled", checks.check_sampled_phase(
            out["sampled"].times, out["sampled"].phase, spec["sampled"]))
    for t, got in zip(spec["sampled"]["value_times"], out["values"]):
        if got is not None:
            add("drive_value", checks.check_drive_value(spec["sampled"], float(t), got))
    if out["bulk"] is not None:
        add("bulk", checks.check_bulk_phase(out["bulk"].phase, spec["bulk"]))
    if out["potential"] is not None:
        grav = spec["grav"]
        got = np.array([u for _, u in out["potential"]])
        want = -inputs.G * grav["shell_mass"] / (grav["r0"] + grav["speed"] * grav["grid"])
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        add("exploding_shell_potential",
            None if err <= 1e-14 else f"potential -G*M/r off by {err:.3g} relative")
    if out.get("grav") is not None:
        add("grav", checks.check_exploding_shell_phase(
            out["grav"].times, out["grav"].phase, spec["grav"]))
    if out["ja_large"] is not None:
        add("jacobi_anger_large", checks.check_bessel_coeffs(
            *_sorted_coeffs(out["ja_large"].coefficients), spec["ja_large_alpha"],
            "Jacobi-Anger"))
    slices = range(inputs.SLICES)
    alphas = [a for k in slices for a in spec["ja_small_alphas"][k::inputs.SLICES]]
    for alpha, spectrum in zip(alphas, out["ja_small"]):
        if spectrum is not None:
            add("jacobi_anger_small", checks.check_bessel_coeffs(
                *_sorted_coeffs(spectrum.coefficients), float(alpha), "Jacobi-Anger"))
    if out["bessel_large"] is not None:
        big = spec["bessel_large"]
        add("bessel_j_large", checks.check_bessel_value(big["n"], big["alpha"],
                                                        out["bessel_large"]))
    if out["floquet_sin"] is not None:
        f = out["floquet_sin"]
        add("floquet_sinusoid", checks.check_floquet_sinusoid(
            *_sorted_coeffs(f.coefficients), f.quasi_energy, spec["floquet_sinusoid"]))
    if out["floquet_sampled"] is not None:
        f = out["floquet_sampled"]
        add("floquet_sampled", checks.check_floquet_sampled(
            *_sorted_coeffs(f.coefficients), f.quasi_energy, f.residual, f.residual_tol,
            spec["floquet_sampled"]))
    if out["fft"] is not None:
        add("fft_oracle", checks.check_bessel_coeffs(
            *_sorted_coeffs(out["fft"].coefficients), spec["fft_oracle"]["alpha"],
            "FFT oracle"))
    if out["transition"] is not None:
        t = out["transition"]
        add("transition_spectrum", checks.check_transition_lines(
            t.sideband_lines, t.carrier_frequency, t.omega, t.delta_alpha))
        amplitude = {n: a for n, _, a in t.sideband_lines}
        indices = [n for k in slices for n in lookup_indices(ctx)[k::inputs.SLICES]]
        wrong = [n for n, got in zip(indices, out["lookups"])
                 if got is not None and got != amplitude[n]]
        add("amplitude_lookup", f"amplitude(n) differs from line n for n={wrong[:3]}"
            if wrong else None)

    probes = []
    tiny = out["bessel_tiny"]
    if tiny is not None and not abs(tiny) <= 5e-324:
        probes.append(f"spectral.bessel_j_subnormal: |J_1(5e-324)| = {abs(tiny):.3g}")
    if out["earth"] is not None:
        probes.append(check_named("redshift.transition_energy", checks.check_transition_energy(
            out["earth"].carrier_frequency, out["earth"].delta_alpha, spec["earth"])))
    return [b for b in bad if b], [p for p in probes if p]


def phase_metrics(ctx, clock, out: dict, cpu: float) -> dict:
    points = sum(len(out[k].times) for k in ("sinusoid", "sampled", "bulk", "grav")
                 if out.get(k) is not None)
    spectra = [out["ja_large"], *out["ja_small"], out["floquet_sin"], out["floquet_sampled"],
               out["fft"]]
    coeffs = sum(len(s.coefficients) for s in spectra if s is not None)
    if out["transition"] is not None:
        coeffs += len(out["transition"].sideband_lines)
    return {
        "run_s": cpu,
        "phase_samples_per_s": points / sum(clock.totals[k] for k in PHASE_OPS),
        "sidebands_per_s": coeffs / sum(clock.totals[k] for k in SPECTRUM_OPS),
    }


def phase_layers(ctx, tracer, out: dict) -> dict:
    values = [s["cpu"] for s in tracer.spans if s["name"] == "core.drive_value"]
    totals = tracer.totals
    layers = {f"{name}_s": totals[name] for name in (
        "ab_phase.electric_sinusoid", "ab_phase.electric_sampled", "ab_phase.bulk",
        "ab_phase.grav", "spectral.jacobi_anger_large", "spectral.jacobi_anger_small",
        "spectral.bessel_j_large", "spectral.floquet_sinusoid", "spectral.floquet_sampled",
        "spectral.fft_oracle", "redshift.transition_spectrum", "redshift.amplitude_lookup",
        "redshift.exploding_shell_potential")}
    layers["core.drive_value_us"] = 1e6 * statistics.median(values)
    sampled = out["floquet_sampled"]
    layers["spectral.floquet_sampled.truncation_n"] = \
        sampled.truncation_n if sampled is not None else 0
    return layers


GROUPS = {
    "ode": (build_ode, ode_slice, check_ode, ode_metrics, ode_layers),
    "phase": (build_phase, phase_slice, check_phase, phase_metrics, phase_layers),
}


def serve(group: str, ctx) -> None:
    """Run slices as standard input asks for them; report each whole pass."""
    from tracer import Clock, Tracer

    _, run_slice, check, metrics, layers = GROUPS[group]
    while True:
        for k in range(inputs.SLICES):
            line = sys.stdin.readline()
            if not line:
                return
            if k == 0:
                tracing = line.strip() == "1"
                clock = Tracer() if tracing else Clock()
                p = Pass(clock)
                out: dict = {}
                cpu = 0.0
            start = time.process_time()
            run_slice(k, ctx, p, out)
            cpu += time.process_time() - start
            if k < inputs.SLICES - 1:
                print("{}", flush=True)
        result = {"attempted": p.attempted, "traced": tracing, "cpu_s": cpu}
        if not tracing:
            result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        incorrect, probes = check(ctx, out)
        result["failed"] = p.errors + probes
        result["incorrect"] = incorrect
        if tracing:
            result["layers"] = layers(ctx, clock, out)
            result["spans"] = clock.spans
        else:
            result["e2e"] = metrics(ctx, clock, out, cpu)
        print(json.dumps(result), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--group", choices=("ode", "phase", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "serve"), required=True)
    args = parser.parse_args()

    if args.group == "cli":
        import scalar_ab.cli  # noqa: F401  (the import every CLI run pays)
        inputs.write_sweep_configs(args.workdir)
        ctx = None
    else:
        ctx = GROUPS[args.group][0](args.seed)
    print(f"ready {time.process_time()!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.group == "cli":
        raise SystemExit("the cli group runs from run.py, not in-process")
    serve(args.group, ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main())
