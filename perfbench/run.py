"""Benchmark of scalar-ab: CLI presets, long ODE runs, phase and spectrum kernels.

    python3 perfbench/run.py --workload cli-presets|circuit-ode|phase-spectra \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark has three operation groups:

* ``cli``: ``scalar-ab <preset>`` for the four presets, each a fresh
  ``python -m scalar_ab.cli`` process, three times over, and one two-config
  ``--sweep``;
* ``ode``: four ``circuit.integrate_trajectory`` workloads and the
  negative-amplitude probe, in one worker process;
* ``phase``: ``ab_phase``, ``spectral`` and ``redshift`` calls, in one worker.

A workload owns one group.  Every run must report every metric, so a round
makes one pass of every group.  Each pass is cut into ``SLICES`` slices and
the round interleaves them (owned group first in each), so that the samples
of a metric are spread over the round rather than taken in one stretch of
machine noise.  A run repeats whole rounds until ``--seconds`` have passed.
``run_s``, ``setup_s`` and ``peak_rss_mb`` describe the owned group; every
other metric comes from the group that computes it.  Times are CPU seconds
(tracer.py says why), except the sweep's wall time.  Every output is checked
(``checks.py``).  The last line of standard output is the JSON result; see
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {"cli-presets": "cli", "circuit-ode": "ode", "phase-spectra": "phase"}
GROUPS = ("cli", "ode", "phase")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3


def declared_metrics(traced: bool) -> dict:
    """Metric name -> unit, from BENCHMARK.json beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    # Nothing is written outside the checkout, and every run imports alike.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int, float]:
    """Run one process to its end: (wall seconds, CPU seconds, exit code,
    peak RSS in MB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss / 1024.0


def worker_argv(group: str, seed: int, workdir: Path, mode: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--group", group, "--seed", str(seed),
            "--workdir", str(workdir), "--mode", mode]


def time_setup(group: str, seed: int, workdir: Path) -> float:
    """CPU seconds of a fresh interpreter up to the worker's ``ready`` line."""
    proc = subprocess.run(worker_argv(group, seed, workdir, "setup"), cwd=ROOT,
                          env=child_env(), capture_output=True, check=False)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != b"ready":
        raise RuntimeError(f"set-up of the {group} group failed (exit {proc.returncode}):\n"
                           + proc.stderr.decode()[-2000:])
    return float(words[1])


class Result:
    """Counts, checks and per-metric samples of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []
        self.incorrect: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.traces: dict[str, object] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


# --- in-process groups ------------------------------------------------------

class Worker:
    """A ``worker.py --mode serve`` process that runs its group's slices."""

    def __init__(self, group: str, seed: int, workdir: Path) -> None:
        self.group = group
        self.log = workdir / f"log-worker-{group}.err"
        with open(self.log, "wb") as err:
            self.proc = subprocess.Popen(worker_argv(group, seed, workdir, "serve"), cwd=ROOT,
                                         env=child_env(), stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err, text=True)
        self._read()  # the ready line

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.group} worker ended early:\n"
                               + self.log.read_text(errors="replace")[-2000:])
        return line

    def slice(self, traced: bool) -> dict:
        """Run the next slice; the last slice of a pass returns its result."""
        self.proc.stdin.write(f"{int(traced)}\n")
        self.proc.stdin.flush()
        return json.loads(self._read())

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"{self.group} worker exited {self.proc.returncode}")


def record_inprocess(group: str, owned: bool, out: dict, ctx: dict, res: Result) -> None:
    res.attempted += out["attempted"]
    res.failed += out["failed"]
    res.incorrect += out["incorrect"]
    if out["traced"]:
        for name, value in out["layers"].items():
            res.add(name, value)
        res.traces[group] = out["spans"]
        if owned:
            res.add("trace.overhead_s", out["cpu_s"] - ctx["untraced_cpu"])
        return
    for name, value in out["e2e"].items():
        if name != "run_s":
            res.add(name, value)
    if owned:
        res.add("run_s", out["e2e"]["run_s"])
        res.add("peak_rss_mb", out["rss_mb"])
        ctx["untraced_cpu"] = out["cpu_s"]


# --- the CLI group ------------------------------------------------------------

def cli_slice(k: int) -> list[tuple[str, list[str]]]:
    """Slice k of the CLI pass: each preset once, and the sweep in the middle
    slice.  Over the three slices every preset runs three times, which gives
    a median that one burst of machine noise does not move."""
    from inputs import PRESET_OUTPUT, PRESETS, SLICES, SWEEP

    ops = [(p, [p, "--out", PRESET_OUTPUT[p]]) for p in PRESETS]
    if k == SLICES // 2:
        ops.append(("sweep", ["--sweep", *(f"{name}.json" for name, _ in SWEEP)]))
    return ops


def op_outputs(name: str) -> list[str]:
    from inputs import PRESET_OUTPUT, SWEEP

    return [f"{n}.csv" for n, _ in SWEEP] if name == "sweep" else [PRESET_OUTPUT[name]]


def cli_argv(args: list[str], spans: Path | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "scalar_ab.cli", *args]
    return [sys.executable, str(HERE / "cli_traced.py"), str(spans), *args]


def check_cli_output(workdir: Path, name: str) -> str | None:
    import checks
    from inputs import EARTH, FIG3, SWEEP, SWEEP_T_END

    def text(path: str) -> str:
        return (workdir / path).read_text()

    if name == "fig3":
        return checks.check_fig3_csv(text("fig3.csv"))
    if name == "fig4":
        return checks.check_fig4_json(text("fig4.json"))
    if name == "earth-shell":
        return checks.check_earth_shell_json(text("earth-shell.json"), EARTH)
    if name == "supernova-shell":
        return checks.check_supernova_csv(text("supernova-shell.csv"))
    for config, _ in SWEEP:
        problem = checks.check_trajectory_csv(text(f"{config}.csv"), SWEEP_T_END, FIG3["t_off"])
        if problem:
            return f"{config}: {problem}"
    return None


def run_cli_ops(k: int, workdir: Path, spans_dir: Path | None, res: Result) -> list[tuple]:
    """Run slice k's ops in turn, checking each output as it is written.
    Returns [(op, (wall, cpu, exit code, peak RSS), spans file or None)]."""
    done = []
    for name, args in cli_slice(k):
        for path in op_outputs(name):
            (workdir / path).unlink(missing_ok=True)
        spans = None if spans_dir is None else spans_dir / f"{k}-{name}.json"
        result = run_child(cli_argv(args, spans), workdir, workdir / f"log-{name}")
        done.append((name, result, spans))
        res.attempted += 1
        if result[2] != 0:
            err = (workdir / f"log-{name}.err").read_text(errors="replace").strip()
            res.failed.append(f"scalar-ab {name}: exit {result[2]}: {err[-300:]}")
            continue
        problem = check_cli_output(workdir, name)
        if problem:
            res.incorrect.append(f"scalar-ab {name}: {problem}")
    return done


def check_sweep_alone(workdir: Path, spans_dir: Path, res: Result) -> float:
    """Run each sweep config alone, traced, and compare bytes with the
    sweep's output; returns the summed kernel CPU time of the alone runs.
    Traced runs only: the ~5 s it costs would lengthen every run."""
    from inputs import SWEEP
    from tracer import outermost_total

    kernel_sum = 0.0
    for name, _ in SWEEP:
        alone = f"alone-{name}.csv"
        spans = spans_dir / f"alone-{name}.json"
        _, _, code, _ = run_child(cli_argv(["--config", f"{name}.json", "--out", alone], spans),
                                  workdir, workdir / f"log-alone-{name}")
        if code != 0:
            res.incorrect.append(f"{name} run alone exited {code}")
            continue
        if (workdir / alone).read_bytes() != (workdir / f"{name}.csv").read_bytes():
            res.incorrect.append(f"--sweep output {name}.csv differs from the config run alone")
        kernel_sum += outermost_total(json.loads(spans.read_text()), "kernel.")
    return kernel_sum


def import_times(workdir: Path) -> dict:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import scalar_ab.cli"],
                          cwd=workdir, env=child_env(), capture_output=True, check=True)
    return parse_importtime(proc.stderr.decode())


def parse_importtime(report: str) -> dict:
    """Cumulative import time of numpy, of the outermost scipy modules and of
    scalar_ab, from a ``python -X importtime`` report (children are listed
    before their parent, two spaces deeper)."""
    entries = []
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        name = field.strip()
        entries.append(((len(field) - len(field.lstrip())) // 2, name, int(parts[1]) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0, "scalar_ab": 0.0}
    stack: list[tuple[int, str]] = []  # ancestors, read in reverse (pre-order)
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cumulative
        stack.append((level, name))
    return {f"import.{k}_s": v for k, v in totals.items()}


def cli_layers(workdir: Path, done: list[tuple], kernel_sum: float, res: Result) -> dict:
    """Per-layer figures of a traced pass; returns its spans by op."""
    from tracer import outermost_total

    trace = {}
    parse_times = []
    for name, (wall, _, _, _), path in done:
        spans = json.loads(path.read_text())
        trace[path.stem] = spans
        parse_times += [s["cpu"] for s in spans if s["name"].startswith("parse.")]
        if name == "sweep":
            res.add("cli.sweep.kernel_sum_s", kernel_sum)
            res.add("cli.sweep.speedup", kernel_sum / wall)
            continue
        res.add(f"cli.{name}.kernel_s", outermost_total(spans, "kernel."))
        res.add(f"cli.{name}.write_s", outermost_total(spans, "write."))
        res.add(f"cli.{name}.bytes", sum((workdir / p).stat().st_size for p in op_outputs(name)))
        if name == "fig4":
            res.add("circuit.potential_landscape_s",
                    outermost_total(spans, "kernel.circuit.potential_landscape"))
    res.add("cli.parse_config_s", statistics.median(parse_times))
    return trace


def finish_cli_pass(owned: bool, traced: bool, done: list[tuple], ctx: dict,
                    res: Result) -> None:
    workdir = ctx["workdir"]
    cpu_sum = sum(result[1] for _, result, _ in done)
    if traced:
        kernel_sum = check_sweep_alone(workdir, workdir / "spans", res)
        res.traces["cli"] = cli_layers(workdir, done, kernel_sum, res)
        if owned:
            res.add("trace.overhead_s", cpu_sum - ctx["untraced_cpu"])
        for _ in range(IMPORT_SAMPLES):
            for name, value in import_times(workdir).items():
                res.add(name, value)
        return
    for name, (wall, cpu, _, _), _ in done:
        # The sweep is timed by the wall clock: its point is to use both cores.
        res.add("sweep_s" if name == "sweep" else f"preset.{name}_s",
                wall if name == "sweep" else cpu)
    if owned:
        res.add("run_s", cpu_sum)
        res.add("peak_rss_mb", max(result[3] for _, result, _ in done))
        ctx["untraced_cpu"] = cpu_sum


def run_round(owned_group: str, traced: bool, ctx: dict, res: Result,
              workers: dict) -> None:
    """One pass of every group, the groups' slices interleaved."""
    from inputs import SLICES

    spans_dir = None
    if traced:
        spans_dir = ctx["workdir"] / "spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
    order = (owned_group, *(g for g in GROUPS if g != owned_group))
    cli_done = []
    for k in range(SLICES):
        for group in order:
            if group == "cli":
                cli_done += run_cli_ops(k, ctx["workdir"], spans_dir, res)
                continue
            out = workers[group].slice(traced)
            if k == SLICES - 1:
                record_inprocess(group, group == owned_group, out, ctx, res)
    finish_cli_pass(owned_group == "cli", traced, cli_done, ctx, res)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "scalar_ab" / "__init__.py").is_file():
        print(f"perfbench: no scalar_ab package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from inputs import write_sweep_configs

    group = WORKLOADS[args.workload]
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    res = Result()
    ctx = {"seed": args.seed, "workdir": workdir}
    workers = {}
    try:
        for _ in range(SETUP_SAMPLES):
            res.add("setup_s", time_setup(group, args.seed, workdir))
        write_sweep_configs(workdir)
        for name in GROUPS[1:]:
            workers[name] = Worker(name, args.seed, workdir)
        start = time.perf_counter()
        while True:
            run_round(group, False, ctx, res, workers)
            if traced:
                run_round(group, True, ctx, res, workers)
            if time.perf_counter() - start >= args.seconds:
                break
        for worker in workers.values():
            worker.close()
    finally:
        for worker in workers.values():
            if worker.proc.poll() is None:
                worker.proc.kill()
                worker.proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": res.traces}))
    for problem in res.failed:
        print(f"failed: {problem}", file=sys.stderr)
    for problem in res.incorrect:
        print(f"INCORRECT: {problem}", file=sys.stderr)

    metrics = {}
    for name, unit in declared_metrics(traced).items():
        if name not in res.samples:
            print(f"perfbench: no measurement of {name}", file=sys.stderr)
            return 1
        metrics[name] = {"value": res.median(name), "unit": unit}
        print(f"{name} = {metrics[name]['value']:.6g} {unit} "
              f"(median of {len(res.samples[name])})")
    print(json.dumps({"correct": not res.incorrect, "attempted": res.attempted,
                      "failed": len(res.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
