"""``scalar-ab`` with spans around its parse, kernel and writer calls.

    python3 perfbench/cli_traced.py SPANS.json [scalar-ab arguments ...]

Calls ``scalar_ab.cli.main`` in this fresh process after wrapping the public
kernel and writer functions that the CLI reaches, then writes the spans to
SPANS.json and exits with ``main``'s exit code.  A name that a later version
of the program no longer has is skipped.
"""

from __future__ import annotations

import functools
import json
import sys

from tracer import Tracer

KERNELS = {
    "circuit": ("integrate_trajectory", "potential_landscape"),
    "ab_phase": ("accumulate_electric_phase", "accumulate_grav_phase", "net_bulk_phase"),
    "spectral": ("jacobi_anger_coeffs", "floquet_decompose"),
    "redshift": ("modulation_indices", "transition_sideband_spectrum",
                 "exploding_shell_potential"),
}
WRITERS = {"cli": ("_write_json",), "ab_phase": ("write_phase_csv",)}


def _wrap(owner, attr: str, span_name: str, tracer: Tracer) -> None:
    fn = getattr(owner, attr, None)
    if fn is None:
        return

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)

    setattr(owner, attr, traced)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import"):
        from scalar_ab import ab_phase, circuit, cli, core, redshift, spectral
    modules = {"circuit": circuit, "ab_phase": ab_phase, "spectral": spectral,
               "redshift": redshift, "cli": cli}
    _wrap(cli, "parse_config", "parse.cli.parse_config", tracer)
    for module, names in KERNELS.items():
        for name in names:
            _wrap(modules[module], name, f"kernel.{module}.{name}", tracer)
    for module, names in WRITERS.items():
        for name in names:
            _wrap(modules[module], name, f"write.{module}.{name}", tracer)
    _wrap(core.Trajectory, "to_csv", "write.core.Trajectory.to_csv", tracer)
    try:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
