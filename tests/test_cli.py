"""Config parsing strictness, preset expansion, experiment dispatch, output
schemas, exit codes, and byte-level determinism."""

import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalar_ab
from scalar_ab import cli
from scalar_ab.cli import (EXIT_CONFIG_ERROR, EXIT_DEPENDENCY_ERROR, EXIT_NUMERIC_FAILURE,
                           EXIT_OK, EXPERIMENTS, PRESETS, ConfigError, main, parse_config,
                           run_experiment)

GOLDEN = Path(__file__).parent / "golden"


def circuit_config(out_path, **overrides):
    params = {"preset": "fig3"}
    params.update(overrides)
    return {
        "experiment": "CircuitDynamics",
        "parameters": params,
        "output": {"path": str(out_path), "format": "csv"},
    }


# A sampled FloquetDecompose waveform over one 10 ns period.
SAMPLED_FLOQUET = {"waveform": "sampled", "frequency_MHz": 100.0,
                   "samples_t_ns": [0.0, 5.0, 10.0], "samples_u_over_h_GHz": [0.0, 1e-6, 0.0]}


def bulk_species(**entry):
    """BulkPhase parameters with one electron species ``entry``."""
    return {"drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0, "t_end_ns": 20.0,
            "n_samples": 5, "species": [{"species": "electron", **entry}]}


# For each preset: no overlay, a null on each of its keys and one changed value.
PRESET_OVERLAYS = [
    (name, overlay)
    for name, changed in (("fig3", {"t_end_ns": 10.0}), ("fig4", {"n_points": 2001}),
                          ("earth-shell", {"m1_kg": 2e10}), ("supernova-shell", {"t_end_s": 50.0}))
    for overlay in ({}, *({key: None} for key in PRESETS[name]["parameters"]), changed)]


@pytest.fixture(scope="module")
def preset_bytes(tmp_path_factory):
    """The bytes each preset target writes with no config."""
    out = {}
    for name in PRESETS:
        path = tmp_path_factory.mktemp("preset") / "out"
        assert main([name, "--out", str(path)]) == EXIT_OK
        out[name] = path.read_bytes()
    return out


class TestParseConfig:
    def test_fig3_preset_expands_to_documented_values(self):
        config = parse_config(json.dumps(
            {"experiment": "CircuitDynamics", "parameters": {"preset": "fig3"}}))
        p = config.parameters
        assert p["drive_amplitude_uV"] == 1.0
        assert p["drive_frequency_MHz"] == 150.0
        assert p["e_josephson_GHz"] == 25.0
        assert p["t_end_ns"] == 20.0

    def test_preset_values_can_be_overridden(self):
        config = parse_config(json.dumps(
            {"experiment": "CircuitDynamics",
             "parameters": {"preset": "fig3", "t_end_ns": 5.0}}))
        assert config.parameters["t_end_ns"] == 5.0
        assert config.parameters["drive_amplitude_uV"] == 1.0

    def test_null_value_keeps_the_preset_value(self):
        config = parse_config({"experiment": "CircuitDynamics",
                               "parameters": {"preset": "fig3", "t_end_ns": None}})
        assert config.parameters["t_end_ns"] == 20.0

    def test_unknown_key_names_nearest_valid_key(self):
        with pytest.raises(ConfigError,
                           match="unknown key 'volts'.*drive_amplitude_uV"):
            parse_config(json.dumps(
                {"experiment": "CircuitDynamics",
                 "parameters": {"preset": "fig3", "volts": 2.0}}))

    def test_unknown_key_without_close_match_names_a_schema_key(self):
        with pytest.raises(ConfigError, match="unknown key 'zzzz'") as info:
            parse_config(json.dumps(
                {"experiment": "CircuitDynamics", "parameters": {"zzzz": 1.0}}))
        suggestion = re.search(r"did you mean '([^']*)'\?$", str(info.value))
        assert suggestion and suggestion[1] in EXPERIMENTS["CircuitDynamics"].keys

    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ConfigError, match="required"):
            parse_config("{}")

    def test_missing_keys_name_units(self):
        with pytest.raises(ConfigError,
                           match="drive_amplitude_uV.*microvolts"):
            parse_config(json.dumps(
                {"experiment": "ElectricSidebands",
                 "parameters": {"drive_frequency_MHz": 150.0}}))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(json.dumps({"experiment": "Nonsense", "parameters": {}}))

    def test_malformed_number_rejected(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(json.dumps(
                {"experiment": "ElectricSidebands",
                 "parameters": {"drive_amplitude_uV": "one",
                                "drive_frequency_MHz": 150.0}}))

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError, match="not well-formed JSON"):
            parse_config("{experiment: CircuitDynamics}")

    def test_unknown_top_level_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level keys"):
            parse_config(json.dumps(
                {"experiment": "ElectricSidebands", "parameters": {},
                 "outputs": {}}))

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(json.dumps(
                {"experiment": "ElectricSidebands",
                 "parameters": {"drive_amplitude_uV": True,
                                "drive_frequency_MHz": 150.0}}))

    def test_numerics_validation(self):
        with pytest.raises(ConfigError, match="'rel_tol' in numerics must be positive"):
            parse_config(json.dumps(circuit_config("x.csv") | {"numerics": {"rel_tol": -1.0}}))

    def test_every_preset_parses(self):
        for name, preset in PRESETS.items():
            config = parse_config(json.dumps(preset))
            assert config.experiment == preset["experiment"]

    def test_every_preset_key_mutation_fails_specifically(self):
        for name, preset in PRESETS.items():
            doc = json.loads(json.dumps(preset))
            key = sorted(doc["parameters"])[0]
            doc["parameters"][key + "_typo"] = doc["parameters"].pop(key)
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(json.dumps(doc))

    def test_species_entries_validated(self):
        base = {"experiment": "BulkPhase",
                "parameters": {"drive_amplitude_uV": 1.0,
                               "drive_frequency_MHz": 150.0,
                               "t_end_ns": 10.0,
                               "species": [{"species": "quark", "count": 1.0}]}}
        with pytest.raises(ConfigError, match="species must be one of"):
            parse_config(json.dumps(base))

    def test_species_count_lists_of_unequal_length_rejected(self):
        # zip used to drop the unpaired entries and run silently
        doc = {"experiment": "BulkPhase",
               "parameters": {"drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0,
                              "t_end_ns": 10.0,
                              "species": [{"species": "electron", "counts_t_ns": [0, 10, 20],
                                           "counts_n": [1e9, 2e9]}]}}
        with pytest.raises(ConfigError, match="entry 0: .*of equal length"):
            parse_config(doc)

    def test_format_must_match_experiment_kind(self):
        with pytest.raises(ConfigError, match="only format 'csv'"):
            parse_config(json.dumps(circuit_config("x.json")
                                    | {"output": {"path": "x", "format": "json"}}))
        doc = json.loads(json.dumps(PRESETS["earth-shell"]))
        doc["output"] = {"path": "x.csv", "format": "csv"}
        with pytest.raises(ConfigError, match="writes 'json'"):
            parse_config(json.dumps(doc))

    def test_sampled_floquet_length_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="equal length"):
            parse_config(json.dumps(
                {"experiment": "FloquetDecompose",
                 "parameters": {"waveform": "sampled", "frequency_MHz": 150.0,
                                "samples_t_ns": [0.0, 1.0, 2.0],
                                "samples_u_over_h_GHz": [0.0, 1.0]}}))


class TestRunExperiment:
    def test_fig3_writes_trajectory_csv(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        config = parse_config(json.dumps(circuit_config(out)))
        assert run_experiment(config) == EXIT_OK
        summary = capsys.readouterr().out
        assert "CircuitDynamics" in summary and str(out) in summary
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_seconds", "delta_phi_rad", "delta_phi_dot_rad_per_s"]
        assert len(rows) == 2002  # header + n_samples

    def test_electric_sidebands_zero_depth(self, tmp_path):
        out = tmp_path / "spec.json"
        config = parse_config(json.dumps(
            {"experiment": "ElectricSidebands",
             "parameters": {"drive_amplitude_uV": 0.0,
                            "drive_frequency_MHz": 150.0},
             "output": {"path": str(out), "format": "json"}}))
        run_experiment(config)
        payload = json.loads(out.read_text())
        by_n = {entry["n"]: complex(entry["re"], entry["im"])
                for entry in payload["coefficients"]}
        assert by_n[0] == 1.0 + 0.0j
        assert all(abs(c) == 0.0 for n, c in by_n.items() if n != 0)

    def test_earth_preset_fractional_shift(self, tmp_path):
        out = tmp_path / "earth.json"
        doc = json.loads(json.dumps(PRESETS["earth-shell"]))
        doc["output"] = {"path": str(out), "format": "json"}
        run_experiment(parse_config(json.dumps(doc)))
        payload = json.loads(out.read_text())
        assert payload["carrier_fractional_shift"] == pytest.approx(6.96e-10,
                                                                    rel=1e-3, abs=0.0)
        assert payload["delta_alpha"] == pytest.approx(4.478524707361217e-07,
                                                       rel=1e-9, abs=0.0)

    def test_supernova_preset_phase_csv(self, tmp_path):
        out = tmp_path / "sn.csv"
        doc = json.loads(json.dumps(PRESETS["supernova-shell"]))
        doc["parameters"]["n_samples"] = 201
        doc["output"] = {"path": str(out), "format": "csv"}
        run_experiment(parse_config(json.dumps(doc)))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t_seconds", "phase_rad"]
        assert float(rows[-1][1]) < 0.0  # negative potential accumulates

    def test_bulk_phase_neutral_species(self, tmp_path):
        out = tmp_path / "bulk.csv"
        config = parse_config(json.dumps(
            {"experiment": "BulkPhase",
             "parameters": {"drive_amplitude_uV": 1.0,
                            "drive_frequency_MHz": 150.0,
                            "t_end_ns": 10.0,
                            "n_samples": 301,
                            "species": [
                                {"species": "cooper_pair", "count": 1e9},
                                {"species": "electron", "count": 4e9},
                                {"species": "ion", "count": 6e9},
                            ]},
             "output": {"path": str(out), "format": "csv"}}))
        run_experiment(config)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        final_phase = float(rows[-1][1])
        assert abs(final_phase) < 1e-3  # 2*N_cp + N_els - N_ion = 0

    def test_floquet_sampled_waveform(self, tmp_path):
        out = tmp_path / "floq.json"
        t_ns = list(np.linspace(0.0, 1000 / 150.0, 65))
        u = list(0.3 * np.cos(np.linspace(0.0, 2 * math.pi, 65)))
        u[-1] = u[0]
        config = parse_config(json.dumps(
            {"experiment": "FloquetDecompose",
             "parameters": {"waveform": "sampled", "frequency_MHz": 150.0,
                            "samples_t_ns": t_ns, "samples_u_over_h_GHz": u},
             "output": {"path": str(out), "format": "json"}}))
        run_experiment(config)
        payload = json.loads(out.read_text())
        total = sum(e["re"] ** 2 + e["im"] ** 2 for e in payload["coefficients"])
        assert total == pytest.approx(1.0, abs=1e-9)


class TestMainAndExitCodes:
    def test_unknown_target_is_config_error(self, capsys):
        assert main(["definitely-not-a-thing"]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "CircuitDynamics",
                                   "parameters": {"volts": 1.0}}))
        assert main(["CircuitDynamics", "--config", str(bad)]) == EXIT_CONFIG_ERROR
        assert "volts" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (b"{bad", "config error: config is not well-formed JSON: "),
        (b"[1,2]", "config error: config document must be a JSON object\n"),
        # these two used to end in a UnicodeDecodeError or a TypeError traceback
        (b"\xff\xfe{}", r"config error: config '.*conf\.json' is not UTF-8 text: "),
        (b'{"parameters": {"preset": "earth-shell"}, "experiment": "GravRedshift", '
         b'"output": "x.json"}', "config error: 'output' must be a JSON object\n")])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, text, message):
        doc = tmp_path / "conf.json"
        doc.write_bytes(text)
        out = str(tmp_path / "out.json")
        for argv in (["--config", str(doc), "--out", out, "--format", "json"],
                     ["--sweep", str(doc)]):
            assert main(argv) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            assert re.match(message, err) and err.count("\n") == 1

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # A kinked sampled waveform cannot meet the default residual target.
        square = tmp_path / "square.json"
        t_ns = list(np.linspace(0.0, 1000 / 150.0, 129))
        u = [3.0 if i < 64 else -3.0 for i in range(129)]
        u[-1] = u[0]
        square.write_text(json.dumps(
            {"experiment": "FloquetDecompose",
             "parameters": {"waveform": "sampled", "frequency_MHz": 150.0,
                            "samples_t_ns": t_ns, "samples_u_over_h_GHz": u},
             "output": {"path": str(tmp_path / "x.json"), "format": "json"}}))
        assert main(["FloquetDecompose", "--config", str(square)]) \
            == EXIT_NUMERIC_FAILURE
        assert "numeric failure" in capsys.readouterr().err

    def test_loose_residual_tol_floquet_succeeds(self, tmp_path, capsys):
        # residual_tol 1e-3 stops at a truncation whose norm deficit (~7e-9)
        # exceeds 1e-9 but not residual^2 (~1.5e-7)
        conf = tmp_path / "loose.json"
        out = tmp_path / "loose_out.json"
        conf.write_text(json.dumps(
            {"experiment": "FloquetDecompose",
             "parameters": {"waveform": "sampled", "frequency_MHz": 100.0,
                            "samples_t_ns": [0.0, 2.5, 5.0, 7.5, 10.0],
                            "samples_u_over_h_GHz": [0.0, 0.2, -0.1, 0.05, 0.0],
                            "residual_tol": 1e-3},
             "output": {"path": str(out), "format": "json"}}))
        assert main(["FloquetDecompose", "--config", str(conf)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        deficit = 1.0 - sum(e["re"] ** 2 + e["im"] ** 2 for e in payload["coefficients"])
        assert 1e-9 < deficit <= payload["residual"] ** 2 <= 1e-6

    def test_dump_preset_round_trips(self, tmp_path, capsys):
        assert main(["--dump-preset", "fig4"]) == EXIT_OK
        text = capsys.readouterr().out
        doc = json.loads(text)
        doc["output"] = {"path": str(tmp_path / "fig4.json"), "format": "json"}
        config = parse_config(json.dumps(doc))
        assert run_experiment(config) == EXIT_OK
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert len(payload["minima"]) == 5

    def test_preset_target_with_out_override(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["fig3", "--out", str(out)]) == EXIT_OK
        assert out.exists()

    @pytest.mark.parametrize("name, overlay", PRESET_OVERLAYS,
                             ids=[f"{n}-{json.dumps(o)}" for n, o in PRESET_OVERLAYS])
    def test_preset_target_is_its_parameters_preset(self, tmp_path, capsys, preset_bytes,
                                                    name, overlay):
        # fig3 with drive_t_off_ns null used to run with the drive never off,
        # and a null on a required key used to drop the preset's value
        spelled = {"experiment": PRESETS[name]["experiment"],
                   "parameters": {"preset": name, **overlay}}
        written = []
        for i, (argv, doc) in enumerate((([name], {"parameters": overlay}), ([], spelled))):
            conf, out = tmp_path / f"{i}.json", tmp_path / f"{i}.out"
            conf.write_text(json.dumps(doc))
            assert main([*argv, "--config", str(conf), "--out", str(out)]) == EXIT_OK
            written.append(out.read_bytes())
        assert written[0] == written[1]
        # a null keeps the preset's value, so only a changed value changes the bytes
        assert (written[0] == preset_bytes[name]) == all(v is None for v in overlay.values())

    def test_null_preset_keeps_the_preset_target(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"parameters": {"preset": None}}))
        outs = tmp_path / "target.json", tmp_path / "null.json"
        assert main(["fig4", "--out", str(outs[0])]) == EXIT_OK
        assert main(["fig4", "--config", str(conf), "--out", str(outs[1])]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_mismatched_experiment_rejected(self, tmp_path, capsys):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"experiment": "BulkPhase", "parameters": {}}))
        assert main(["CircuitDynamics", "--config", str(doc)]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("t_on, t_off", [(0.0, 0.0), (8.0, 5.0)])
    def test_drive_off_not_after_on_is_config_error(self, tmp_path, capsys, t_on, t_off):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps(circuit_config(tmp_path / "x.csv", drive_t_on_ns=t_on,
                                                 drive_t_off_ns=t_off)))
        assert main(["CircuitDynamics", "--config", str(doc)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "drive_t_off_ns" in err and "drive_t_on_ns" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("target, overrides, key", [
        ("fig3", {"n_samples": 1}, "n_samples"),
        # the integrator knobs are gone; fixed_step_ns used to be read by rk4 only
        ("fig3", {"fixed_step_ns": 0.001}, "fixed_step_ns"),
        ("fig3", {"method": "rk45"}, "method"),
        ("fig4", {"n_points": 2}, "n_points"),
        ("earth-shell", {"m1_kg": 1e30}, "m1_kg"),
        ("fig4", {"phi_min_rad": 5, "phi_max_rad": -5}, "phi_max_rad"),
        ("fig3", {"c_josephson_fF": -100}, "c_josephson_fF"),
        # these used to underflow to 0 J and run silently as E_J = 0
        ("fig3", {"e_josephson_GHz": 1e-300}, "e_josephson_GHz"),
        ("fig3", {"e_josephson_GHz": 5e-324}, "e_josephson_GHz"),
        # these used to exit 2 from the kernel, after a sweep's earlier runs
        ("supernova-shell", {"shell_mass_kg": -1.0}, "shell_mass_kg"),
        ("supernova-shell", {"expansion_speed_m_per_s": -1e7}, "expansion_speed_m_per_s"),
        # no landscape reads a capacitance
        ("fig4", {"c_sigma_fF": 999}, "c_sigma_fF"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, target, overrides, key):
        experiment = PRESETS[target]["experiment"]
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps(
            {"experiment": experiment,
             "parameters": {"preset": target, **overrides},
             "output": {"path": str(tmp_path / "out")}}))
        assert main([experiment, "--config", str(doc)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert key in err and "numeric failure" not in err
        assert not (tmp_path / "out").exists()

    def test_tiny_energy_that_converts_still_runs(self, tmp_path, capsys):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"parameters": {"e_josephson_GHz": 1e-290, "t_end_ns": 1.0}}))
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--config", str(doc), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == "" and out.exists()

    def test_numerics_seed_is_unknown_key(self, tmp_path, capsys):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"numerics": {"seed": 1}}))
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--config", str(doc), "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: unknown key 'seed' in numerics")
        assert not out.exists()

    def test_circuit_invariant_is_config_error_naming_keys(self, tmp_path, capsys):
        # CircuitParams requires c_sigma >= c_josephson; this used to exit 2
        # as a numeric failure.
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"parameters": {"c_josephson_fF": 100.0}}))
        out = tmp_path / "fig3.csv"
        assert main(["fig3", "--config", str(doc), "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: c_sigma_fF, c_josephson_fF: ")
        assert "c_sigma must be >= c_josephson" in err
        assert not out.exists()

    @pytest.mark.parametrize("target, overrides, key", [
        # these used to run silently: as E_J = 0 (fig3 wrote the bytes of 0,
        # fig4 found 1 minimum instead of 5) and as an instant switch
        ("fig3", {"e_josephson_GHz": -25}, "e_josephson_GHz"),
        ("fig4", {"e_josephson_GHz": -25}, "e_josephson_GHz"),
        ("fig3", {"drive_switch": "ramp", "ramp_periods": -3}, "ramp_periods"),
    ])
    def test_value_type_invariant_is_config_error_naming_its_key(self, tmp_path, capsys,
                                                                  target, overrides, key):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"parameters": overrides}))
        out = tmp_path / "out"
        assert main([target, "--config", str(doc), "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: {key}: invariant violated: ")
        assert not out.exists()

    @pytest.mark.parametrize("experiment, parameters, key", [
        # used to end in an IndexError traceback
        ("FloquetDecompose", {"waveform": "sampled", "frequency_MHz": 100.0,
                              "samples_t_ns": [], "samples_u_over_h_GHz": []},
         "samples_t_ns"),
        # used to exit 2 with "float division by zero"
        ("FloquetDecompose", {"waveform": "sampled", "frequency_MHz": 100.0,
                              "samples_t_ns": [0.0], "samples_u_over_h_GHz": [0.0]},
         "samples_t_ns"),
        # an unhashable preset name must not reach the preset table
        ("CircuitDynamics", {"preset": [1]}, "preset"),
        # a key the other waveform reads
        ("FloquetDecompose", {**SAMPLED_FLOQUET, "phase0_rad": 1.0}, "phase0_rad"),
        ("FloquetDecompose", {**SAMPLED_FLOQUET, "u0_over_h_GHz": 0.5}, "u0_over_h_GHz"),
        ("FloquetDecompose", {"waveform": "sinusoid", "frequency_MHz": 100.0,
                              "u0_over_h_GHz": 0.5, "samples_t_ns": [0.0, 10.0]},
         "samples_t_ns"),
        # a non-finite list entry used to run and write NaN, or run as the
        # previous knot; an int beyond the float range ended in a traceback
        ("BulkPhase", bulk_species(counts_t_ns=[0.0, 20.0], counts_n=[1e9, math.inf]),
         "counts_n"),
        ("BulkPhase", bulk_species(counts_t_ns=[0.0, math.inf], counts_n=[1e9, 1e9]),
         "counts_t_ns"),
        ("BulkPhase", bulk_species(counts_t_ns=[0.0, 20.0], counts_n=[1e9, 10 ** 400]),
         "counts_n"),
        ("BulkPhase", bulk_species(count=-10 ** 400), "count"),
        ("FloquetDecompose", {**SAMPLED_FLOQUET, "samples_t_ns": [0.0, 5.0, math.inf]},
         "samples_t_ns"),
        ("FloquetDecompose", {**SAMPLED_FLOQUET, "frequency_MHz": 10 ** 400}, "frequency_MHz"),
    ])
    def test_bad_config_is_one_line_config_error(self, tmp_path, capsys, experiment,
                                                 parameters, key):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output": {"path": str(tmp_path / "out")}}))
        assert main(["--config", str(doc)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, parameters, name", [
        ("ElectricSidebands", {"drive_amplitude_uV": 1e12, "drive_frequency_MHz": 1.0},
         "alpha"),
        ("ElectricSidebands", {"drive_amplitude_uV": 1e20, "drive_frequency_MHz": 1.0},
         "alpha"),
        ("GravRedshift", {"preset": "earth-shell", "m0_kg": 1e30, "m1_kg": 1e29,
                          "radius_m": 1e4, "modulation_frequency_Hz": 1e3},
         "delta_alpha"),
    ])
    def test_bessel_argument_cap_is_one_line_numeric_failure(self, tmp_path, capsys,
                                                             experiment, parameters, name):
        # Before the cap these ended in a numpy allocation traceback or in
        # "Maximum allowed dimension exceeded".
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"experiment": experiment, "parameters": parameters,
                                   "output": {"path": str(tmp_path / "out.json")}}))
        assert main([experiment, "--config", str(doc)]) == EXIT_NUMERIC_FAILURE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("numeric failure:")
        assert f"|{name}| must be < 1e+06" in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("target, overlay", [
        ("supernova-shell", {"parameters": {"n_samples": 10 ** 18}}),
        ("supernova-shell", {"parameters": {"n_samples": 10 ** 20}}),
        ("fig3", {"parameters": {"n_samples": 10 ** 18}}),
        ("fig4", {"parameters": {"n_points": 10 ** 18}}),
        ("earth-shell", {"numerics": {"truncation_n": 10 ** 18}}),
        ("ElectricSidebands", {"parameters": {"drive_amplitude_uV": 1.0,
                                              "drive_frequency_MHz": 150.0},
                               "numerics": {"truncation_n": 10 ** 18}}),
        ("BulkPhase", {"parameters": {**bulk_species(count=1e9), "n_samples": 10 ** 18}}),
    ])
    def test_size_that_cannot_be_allocated_is_one_line_numeric_failure(
            self, tmp_path, capsys, target, overlay):
        # these ended in a numpy MemoryError or ValueError traceback; each
        # fails at once, before any memory is taken
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps(overlay))
        out = tmp_path / "out"
        assert main([target, "--config", str(doc), "--out", str(out)]) == EXIT_NUMERIC_FAILURE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("numeric failure: ")
        assert not out.exists()

    @pytest.mark.parametrize("numerics", [{}, {"truncation_n": 4}])
    def test_floquet_tolerance_below_roundoff_is_one_line_numeric_failure(
            self, tmp_path, capsys, numerics):
        # this used to double the truncation to the cap and blame the waveform
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"experiment": "FloquetDecompose",
                                   "parameters": {"waveform": "sinusoid", "frequency_MHz": 100,
                                                  "u0_over_h_GHz": 0.5, "residual_tol": 1e-15},
                                   "numerics": numerics}))
        out = tmp_path / "out.json"
        assert main(["--config", str(doc), "--out", str(out)]) == EXIT_NUMERIC_FAILURE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert re.match(r"numeric failure: floquet_decompose: .*residual_tol=1e-15 is below "
                        r"the residual \S+ that the FFT reaches; relax residual_tol$", err)
        assert not out.exists()

    def test_sweep_runs_all_configs(self, tmp_path, capsys):
        paths = []
        for i, amplitude in enumerate((0.0, 1.0)):
            conf = tmp_path / f"sweep{i}.json"
            conf.write_text(json.dumps(
                {"experiment": "ElectricSidebands",
                 "parameters": {"drive_amplitude_uV": amplitude,
                                "drive_frequency_MHz": 150.0},
                 "output": {"path": str(tmp_path / f"out{i}.json"),
                            "format": "json"}}))
            paths.append(str(conf))
        assert main(["--sweep", *paths]) == EXIT_OK
        assert (tmp_path / "out0.json").exists()
        assert (tmp_path / "out1.json").exists()

    def test_sweep_numeric_failure_exit_code(self, tmp_path, capsys):
        # Three samples cannot reconstruct the waveform to 1e-12.
        coarse = tmp_path / "coarse.json"
        coarse.write_text(json.dumps(
            {"experiment": "FloquetDecompose",
             "parameters": {"waveform": "sampled", "frequency_MHz": 150.0,
                            "samples_t_ns": [0.0, 1000 / 300.0, 1000 / 150.0],
                            "samples_u_over_h_GHz": [0.3, -0.3, 0.3],
                            "residual_tol": 1e-12},
             "output": {"path": str(tmp_path / "coarse_out.json"), "format": "json"}}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            {"experiment": "ElectricSidebands",
             "parameters": {"drive_amplitude_uV": 1.0,
                            "drive_frequency_MHz": 150.0},
             "output": {"path": str(tmp_path / "good_out.json"), "format": "json"}}))
        assert main(["--sweep", str(coarse), str(good)]) == EXIT_NUMERIC_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("numeric failure:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (tmp_path / "good_out.json").exists()

    def test_sweep_builds_every_config_before_running_any(self, tmp_path, capsys):
        # The second config breaks a CircuitParams invariant; this used to
        # surface only after the first config had written its output.
        good = tmp_path / "a.json"
        good.write_text(json.dumps(
            {"experiment": "ElectricSidebands",
             "parameters": {"drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0},
             "output": {"path": str(tmp_path / "a_out.json")}}))
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps(circuit_config(tmp_path / "b_out.csv", c_josephson_fF=100.0)))
        assert main(["--sweep", str(good), str(bad)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: c_sigma_fF, c_josephson_fF: ")
        assert not (tmp_path / "a_out.json").exists()
        assert not (tmp_path / "b_out.csv").exists()

    @pytest.mark.parametrize("out", ["missing/x.json", "."])
    def test_output_path_that_cannot_be_written_is_config_error(self, tmp_path, capsys, out):
        # used to end in a FileNotFoundError or IsADirectoryError traceback
        out = tmp_path / out
        assert main(["earth-shell", "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: output.path ") and str(out) in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("output", [{"path": 0}, {"path": False}, {"path": []},
                                        {"path": ""}, {"format": False}, {"format": "xml"}])
    def test_bad_output_value_is_config_error(self, tmp_path, capsys, monkeypatch, output):
        # a falsy path used to be replaced by the default file name
        monkeypatch.chdir(tmp_path)
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"parameters": {"n_points": 11}, "output": output}))
        assert main(["fig4", "--config", str(doc)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: key '{next(iter(output))}' in output ")
        assert list(tmp_path.iterdir()) == [doc]

    @pytest.mark.parametrize("output", [{}, {"path": None}, {"format": None},
                                        {"path": None, "format": None}])
    def test_null_output_value_takes_the_default(self, tmp_path, capsys, monkeypatch, output):
        # a null format used to be rejected as None
        monkeypatch.chdir(tmp_path)
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"parameters": {"n_points": 11}, "output": output}))
        assert main(["fig4", "--config", str(doc)]) == EXIT_OK
        assert (tmp_path / "potential_landscape.json").exists()

    def test_sweep_with_an_unwritable_path_writes_nothing(self, tmp_path, capsys):
        paths = []
        for name, out in (("a", tmp_path / "a_out.json"), ("b", tmp_path / "no" / "b.json")):
            conf = tmp_path / f"{name}.json"
            conf.write_text(json.dumps({"experiment": "ElectricSidebands",
                                        "parameters": {"drive_amplitude_uV": 1.0,
                                                       "drive_frequency_MHz": 150.0},
                                        "output": {"path": str(out)}}))
            paths.append(str(conf))
        assert main(["--sweep", *paths]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "output.path" in err
        assert not (tmp_path / "a_out.json").exists()

    def test_write_failure_is_one_line_exit_1(self, tmp_path, capsys):
        # the directory checked at parse time is gone when the run writes
        folder = tmp_path / "gone"
        folder.mkdir()
        config = parse_config({"experiment": "PotentialLandscape",
                               "parameters": {"preset": "fig4", "n_points": 101},
                               "output": {"path": str(folder / "x.json")}})
        folder.rmdir()
        assert cli._run_reporting_failures(config) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert str(folder / "x.json") in err

    def test_sweep_with_a_collapsing_shell_writes_nothing(self, tmp_path, capsys):
        # the shell's radius reaches 7e8 - 1e7 * 100 < 0 m before t_end_s
        good = tmp_path / "a.json"
        good.write_text(json.dumps(
            {"experiment": "ElectricSidebands",
             "parameters": {"drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0},
             "output": {"path": str(tmp_path / "a_out.json")}}))
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps(
            {"experiment": "GravPhase",
             "parameters": {"preset": "supernova-shell", "expansion_speed_m_per_s": -1e7},
             "output": {"path": str(tmp_path / "b_out.csv")}}))
        assert main(["--sweep", str(good), str(bad)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: radius_start_m, expansion_speed_m_per_s, t_end_s: ")
        assert not (tmp_path / "a_out.json").exists()
        assert not (tmp_path / "b_out.csv").exists()

    @pytest.mark.parametrize("extra, named", [
        (["fig3"], "target 'fig3'"),
        (["--config", "c.json"], "--config 'c.json'"),
        (["--out", "x.csv"], "--out 'x.csv'"),
        (["--format", "csv"], "--format 'csv'"),
    ])
    def test_sweep_rejects_the_arguments_it_would_ignore(self, tmp_path, capsys, monkeypatch,
                                                          extra, named):
        # these were dropped without a word, and the sweep ran
        monkeypatch.chdir(tmp_path)
        conf = tmp_path / "a.json"
        conf.write_text(json.dumps(
            {"experiment": "ElectricSidebands",
             "parameters": {"drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0},
             "output": {"path": str(tmp_path / "a_out.json")}}))
        assert main([*extra, "--sweep", str(conf)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and named in err
        assert list(tmp_path.iterdir()) == [conf]

    def test_sweep_rejects_colliding_outputs(self, tmp_path, capsys):
        conf = tmp_path / "one.json"
        conf.write_text(json.dumps(
            {"experiment": "ElectricSidebands",
             "parameters": {"drive_amplitude_uV": 1.0,
                            "drive_frequency_MHz": 150.0},
             "output": {"path": str(tmp_path / "same.json"), "format": "json"}}))
        assert main(["--sweep", str(conf), str(conf)]) == EXIT_CONFIG_ERROR


# A small valid run of each experiment, and the numerics keys its build
# does not read.
UNREAD_NUMERICS = {
    "CircuitDynamics": ({"preset": "fig3", "t_end_ns": 1.0, "n_samples": 11}, ["truncation_n"]),
    "PotentialLandscape": ({"preset": "fig4", "n_points": 101},
                           ["rel_tol", "abs_tol", "truncation_n"]),
    "ElectricSidebands": ({"drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0},
                          ["rel_tol", "abs_tol"]),
    "FloquetDecompose": ({"waveform": "sinusoid", "frequency_MHz": 100.0,
                          "u0_over_h_GHz": 0.5}, ["rel_tol", "abs_tol"]),
    "GravRedshift": ({"preset": "earth-shell"}, ["rel_tol", "abs_tol"]),
    "GravPhase": ({"preset": "supernova-shell", "n_samples": 11},
                  ["rel_tol", "abs_tol", "truncation_n"]),
    "BulkPhase": ({"drive_amplitude_uV": 1.0, "drive_frequency_MHz": 150.0, "t_end_ns": 10.0,
                   "n_samples": 11, "species": [{"species": "electron", "count": 1e9}]},
                  ["rel_tol", "abs_tol", "truncation_n"]),
}
# Values each key's schema accepts, so that not being read is the only fault.
NUMERICS_VALUES = {"rel_tol": 0.5, "abs_tol": 1.0, "truncation_n": 3}


class TestNumericsPerExperiment:
    def run(self, tmp_path, experiment, numerics, **parameters):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"experiment": experiment,
                                   "parameters": {**UNREAD_NUMERICS[experiment][0], **parameters},
                                   "output": {"path": str(tmp_path / "out")},
                                   "numerics": numerics}))
        return main(["--config", str(doc)])

    def test_the_table_covers_every_experiment(self):
        assert sorted(UNREAD_NUMERICS) == sorted(cli.EXPERIMENTS)

    @pytest.mark.parametrize("experiment, key", [
        (experiment, key) for experiment, (_, keys) in UNREAD_NUMERICS.items() for key in keys])
    def test_unread_numerics_key_is_config_error(self, tmp_path, capsys, experiment, key):
        # these used to be accepted and ignored
        assert self.run(tmp_path, experiment, {key: NUMERICS_VALUES[key]}) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"config error: unknown key '{key}' in numerics; ")
        assert not (tmp_path / "out").exists()

    def test_bulk_phase_with_every_numerics_key_is_rejected(self, tmp_path, capsys):
        # the config that wrote the same bytes as the one without numerics
        assert self.run(tmp_path, "BulkPhase", dict(NUMERICS_VALUES)) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert re.match(r"config error: unknown key '(rel_tol|abs_tol|truncation_n)' in "
                        r"numerics; no key is valid there$", err)

    @pytest.mark.parametrize("experiment, numerics", [
        # StepControl's defaults, spelled out
        ("CircuitDynamics", {"rel_tol": 1e-10, "abs_tol": 1e-12}),
        ("ElectricSidebands", {"truncation_n": None}),
    ])
    def test_spelled_out_default_numerics_write_the_default_bytes(self, tmp_path, capsys,
                                                                  experiment, numerics):
        assert self.run(tmp_path, experiment, {}) == EXIT_OK
        default = (tmp_path / "out").read_bytes()
        assert self.run(tmp_path, experiment, numerics) == EXIT_OK
        assert (tmp_path / "out").read_bytes() == default

    @pytest.mark.parametrize("experiment, numerics", [
        ("CircuitDynamics", {"rel_tol": 1e-4, "abs_tol": 1e-6}),
        ("ElectricSidebands", {"truncation_n": 40}),
        ("FloquetDecompose", {"truncation_n": 40}),
        ("GravRedshift", {"truncation_n": 40}),
    ])
    def test_read_numerics_key_changes_the_output(self, tmp_path, capsys, experiment,
                                                  numerics):
        assert self.run(tmp_path, experiment, {}) == EXIT_OK
        default = (tmp_path / "out").read_bytes()
        assert self.run(tmp_path, experiment, numerics) == EXIT_OK
        assert (tmp_path / "out").read_bytes() != default

    @pytest.mark.parametrize("mode", ["sidebands", "exploding-shell"])
    def test_grav_redshift_mode_is_unknown_key(self, tmp_path, capsys, mode):
        # the two scenarios are two experiments, GravRedshift and GravPhase
        assert self.run(tmp_path, "GravRedshift", {}, mode=mode) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("config error: unknown key 'mode' in GravRedshift parameters")
        assert not (tmp_path / "out").exists()

    def test_grav_phase_writes_what_the_supernova_preset_writes(self, tmp_path, capsys):
        doc = tmp_path / "conf.json"
        doc.write_text(json.dumps({"experiment": "GravPhase",
                                   "parameters": {"shell_mass_kg": 2.8e30,
                                                  "radius_start_m": 7.0e8,
                                                  "expansion_speed_m_per_s": 1.0e7,
                                                  "system_mass_kg": 9.4526e-26,
                                                  "t_end_s": 100.0, "n_samples": 2001},
                                   "output": {"path": str(tmp_path / "explicit.csv")}}))
        assert main(["--config", str(doc)]) == EXIT_OK
        assert main(["supernova-shell", "--out", str(tmp_path / "preset.csv")]) == EXIT_OK
        explicit = (tmp_path / "explicit.csv").read_bytes()
        assert explicit == (tmp_path / "preset.csv").read_bytes()
        (header, got), (golden_header, want) = (read_csv(tmp_path / "explicit.csv"),
                                                read_csv(GOLDEN / "supernova-shell.csv"))
        assert header == golden_header
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# The base runs above, and a sampled one, so that each Floquet waveform's
# keys are changed under the other waveform too; each label's run is
# (experiment, base parameters, changed values that replace the table's).
PARAMETER_RUNS = {
    **{experiment: (experiment, base, {}) for experiment, (base, _) in UNREAD_NUMERICS.items()},
    "FloquetDecompose-sampled": ("FloquetDecompose", {
        "waveform": "sampled", "frequency_MHz": 100.0,
        "samples_t_ns": [0.0, 2.5, 5.0, 7.5, 10.0],
        "samples_u_over_h_GHz": [0.0, 2e-6, -1e-6, 5e-7, 0.0]}, {"waveform": "sinusoid"}),
}
# A changed value of every parameter key but "preset" (its one valid value
# is the preset's own name), valid for that key's schema in every run that
# accepts it.  residual_tol binds on the sampled run: its truncation doubles.
CHANGED_PARAMETERS = {
    "c_sigma_fF": 60.0, "c_prime_fF": 60.0, "c_gate_fF": 2.0, "c_sphere_fF": 6000.0,
    "c_josephson_fF": 5.0, "inductance_nH": 150.0, "e_josephson_GHz": 20.0,
    "drive_amplitude_uV": 2.0, "drive_frequency_MHz": 200.0, "drive_phase0_rad": 0.5,
    "t_end_ns": 0.5, "n_samples": 12, "drive_t_on_ns": 0.2, "drive_t_off_ns": 0.5,
    "drive_switch": "ramp", "ramp_periods": 2.0, "initial_phi_rad": 0.1,
    "initial_phidot_rad_per_s": 1e9,
    "e_inductive_GHz": 2.0, "phi_min_rad": -3.0, "phi_max_rad": 3.0, "n_points": 102,
    "charge_in_e": 1.0,
    "waveform": "sampled", "frequency_MHz": 200.0, "u0_over_h_GHz": 0.25, "phase0_rad": 0.5,
    "samples_t_ns": [0.0, 2.0, 5.0, 7.5, 10.0],
    "samples_u_over_h_GHz": [0.0, 1e-6, -1e-6, 5e-7, 0.0],
    "base_energy_over_h_GHz": 1.0, "residual_tol": 1e-9,
    "m0_kg": 6e24, "m1_kg": 2e10, "radius_m": 7e6, "modulation_frequency_Hz": 2e-3,
    "atom_rest_mass_kg": 1.5e-25, "transition_energy_eV": 1.6,
    "shell_mass_kg": 3e30, "radius_start_m": 8e8, "expansion_speed_m_per_s": 2e7,
    "system_mass_kg": 1e-25, "t_end_s": 50.0,
    "species": [{"species": "electron", "count": 2e9}],
}
# The (run, key) pairs whose changed value leaves the output alone, and why.
# Each must still write its base run's bytes, so an entry cannot outlive its
# reason.
INERT_PARAMETERS = {
    ("CircuitDynamics", "c_sphere_fF"):
        "no kernel reads it; CircuitParams keeps it for the benchmark's inputs",
    ("CircuitDynamics", "c_josephson_fF"): "it only bounds c_sigma_fF",
    ("CircuitDynamics", "ramp_periods"): "fig3 switches the drive instantly",
    ("FloquetDecompose", "residual_tol"):
        "a sinusoid's first truncation is at the 4.5e-15 roundoff floor, so every "
        "tolerance either holds there or is never met",
}


class TestParametersPerExperiment:
    @staticmethod
    def run(path, label, **changed):
        experiment, base, _ = PARAMETER_RUNS[label]
        doc = path.with_suffix(".config.json")
        doc.write_text(json.dumps({"experiment": experiment,
                                   "parameters": {**base, **changed},
                                   "output": {"path": str(path)}}))
        return main(["--config", str(doc)])

    @pytest.fixture(scope="class")
    def base_bytes(self, tmp_path_factory):
        """The bytes each base run writes."""
        out = {}
        for label in PARAMETER_RUNS:
            path = tmp_path_factory.mktemp("base") / "out"
            assert self.run(path, label) == EXIT_OK
            out[label] = path.read_bytes()
        return out

    def test_every_key_has_a_changed_value(self):
        keys = {key for entry in EXPERIMENTS.values() for key in entry.keys} - {"preset"}
        assert sorted(keys) == sorted(CHANGED_PARAMETERS)
        assert sorted({experiment for experiment, _, _ in PARAMETER_RUNS.values()}) == sorted(
            EXPERIMENTS)

    @pytest.mark.parametrize("label, key", [
        (label, key) for label, (experiment, _, _) in PARAMETER_RUNS.items()
        for key in EXPERIMENTS[experiment].keys if key != "preset"])
    def test_changed_parameter_is_rejected_or_changes_the_output(self, tmp_path, capsys,
                                                                base_bytes, label, key):
        overrides = PARAMETER_RUNS[label][2]
        value = {**CHANGED_PARAMETERS, **overrides}[key]
        out = tmp_path / "out"
        code = self.run(out, label, **{key: value})
        if (label, key) in INERT_PARAMETERS:
            assert code == EXIT_OK and out.read_bytes() == base_bytes[label]
        elif code == EXIT_CONFIG_ERROR:
            assert len(capsys.readouterr().err.strip().splitlines()) == 1
            assert not out.exists()
        else:
            assert code == EXIT_OK and out.read_bytes() != base_bytes[label]


def run_fresh(code, cwd, **env):
    """Run ``code`` in a fresh interpreter that imports scalar_ab from this
    checkout, with OPENBLAS_NUM_THREADS unset unless given; returns stdout."""
    src = str(Path(scalar_ab.__file__).resolve().parents[1])
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=child_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# scalar_ab.__all__; the lazy table must keep it.
PUBLIC_NAMES = {
    "CircuitParams", "DriveWaveform", "Trajectory", "SidebandSpectrum", "MassShell",
    "TwoLevelAtom", "PhaseHistory", "Species", "SpeciesCount", "accumulate_electric_phase",
    "accumulate_grav_phase", "net_bulk_phase", "write_phase_csv", "EomParams",
    "DriveEnvelope", "StepControl", "PotentialLandscape", "IntegrationError", "build_eom",
    "integrate_trajectory", "specific_energy", "potential_landscape",
    "FloquetDecomposition", "bessel_j", "jacobi_anger_coeffs", "required_truncation",
    "quasi_energy_ladder", "floquet_decompose", "fm_spectrum_via_fft", "ModulationIndices",
    "TransitionSpectrum", "exploding_shell_potential", "redshifted_frequency",
    "modulation_indices", "transition_sideband_spectrum", "ion_cancellation_check",
    "__version__",
}

# Prints the BLAS thread setting and, on Linux with two or more CPUs, the
# number of threads the process runs after importing scalar_ab.cli.
THREADS_AFTER_CLI_IMPORT = """
import json, os, sys
import scalar_ab.cli
tasks = (len(os.listdir("/proc/self/task"))
         if sys.platform.startswith("linux") and (os.cpu_count() or 1) >= 2 else None)
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


class TestStartupImports:
    def test_package_import_is_lazy(self, tmp_path):
        code = """
import sys
import scalar_ab
loaded = [m for m in sys.modules
          if m.split(".")[0] == "numpy" or m.startswith("scalar_ab.")]
assert loaded == [], loaded
"""
        run_fresh(code, tmp_path)

    def test_star_import_binds_the_public_names(self, tmp_path):
        code = """
import json
import scalar_ab
names = {}
exec("from scalar_ab import *", names)
missing = [n for n in scalar_ab.__all__ if n not in names]
assert not missing, missing
assert names["__version__"] == "0.1.0"
assert names["bessel_j"] is scalar_ab.spectral.bessel_j
print(json.dumps(scalar_ab.__all__))
"""
        public = json.loads(run_fresh(code, tmp_path))
        assert len(public) == len(PUBLIC_NAMES) == 37
        assert set(public) == PUBLIC_NAMES
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            scalar_ab.nonexistent

    def test_cli_import_starts_one_blas_thread(self, tmp_path):
        setting, tasks = json.loads(run_fresh(THREADS_AFTER_CLI_IMPORT, tmp_path))
        assert setting == "1"
        assert tasks in (None, 1)

    def test_callers_blas_setting_wins(self, tmp_path):
        setting, _ = json.loads(run_fresh(THREADS_AFTER_CLI_IMPORT, tmp_path,
                                          OPENBLAS_NUM_THREADS="2"))
        assert setting == "2"

    def test_cli_import_after_numpy_leaves_environment_alone(self, tmp_path):
        code = """
import os
import numpy
before = dict(os.environ)
import scalar_ab.cli
assert dict(os.environ) == before
assert "OPENBLAS_NUM_THREADS" not in os.environ
"""
        run_fresh(code, tmp_path)

    def test_runs_import_no_scipy_package(self, tmp_path):
        # The circuit module loads scipy's compiled DOP codes from their file,
        # so no scipy package __init__ (~0.9 s of import) runs.
        code = """
import json
import sys
from scalar_ab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert scipy_modules() == [], scipy_modules()
for target in ("fig4", "earth-shell", "supernova-shell"):
    assert main([target, "--out", target + ".out"]) == 0
    assert scipy_modules() == [], (target, scipy_modules())
assert main(["fig3", "--out", "fig3.csv"]) == 0
assert "scipy.integrate" not in sys.modules, scipy_modules()
# Two more fig3 runs in the same process, through --sweep.
for name, amplitude in (("a", 1.0), ("b", 2.0)):
    json.dump({"experiment": "CircuitDynamics",
               "parameters": {"preset": "fig3", "drive_amplitude_uV": amplitude},
               "output": {"path": name + ".csv"}}, open(name + ".json", "w"))
assert main(["--sweep", "a.json", "b.json"]) == 0
assert "scipy.integrate" not in sys.modules, scipy_modules()
"""
        run_fresh(code, tmp_path)
        for name in ("fig3", "a", "b"):
            assert (tmp_path / f"{name}.csv").stat().st_size > 0


class TestTooOldScipy:
    @pytest.mark.parametrize("version", ["1.16.0", "1.18.0"])
    def test_fig3_exits_3_naming_the_version(self, tmp_path, version):
        # Another scipy first on the path.  1.16 used to exit 1 after a
        # 27-line ImportError traceback; 1.18 was called with 1.17's signature.
        fake = tmp_path / "fake" / "scipy"
        fake.mkdir(parents=True)
        (fake / "__init__.py").write_text("")
        (fake / "version.py").write_text(f'version = "{version}"\n')
        src = str(Path(scalar_ab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(fake.parent), src])}
        proc = subprocess.run([sys.executable, "-m", "scalar_ab.cli", "fig3", "--out", "fig3.csv"],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_DEPENDENCY_ERROR == 3
        assert proc.stderr.startswith("dependency error: ") and proc.stderr.count("\n") == 1
        assert f"found scipy {version}" in proc.stderr
        assert not (tmp_path / "fig3.csv").exists()


# Prints the scalar_ab modules loaded after importing scalar_ab.cli and, if
# TARGET is not None, running it.
MODULES_AFTER_RUN = """
import json, sys
from scalar_ab.cli import main
if TARGET is not None:
    assert main([TARGET, "--out", "out"]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("scalar_ab.") and m != "scalar_ab.cli")))
"""


class TestRunImports:
    @pytest.mark.parametrize("target, modules", [
        (None, ["core"]),
        ("fig3", ["circuit", "core"]),
        ("fig4", ["circuit", "core"]),
        ("earth-shell", ["core", "redshift", "spectral"]),
        ("supernova-shell", ["ab_phase", "core", "redshift", "spectral"]),
    ])
    def test_a_run_imports_only_the_physics_modules_it_uses(self, tmp_path, target, modules):
        out = run_fresh(f"TARGET = {target!r}\n" + MODULES_AFTER_RUN, tmp_path)
        assert json.loads(out.splitlines()[-1]) == [f"scalar_ab.{m}" for m in modules]


# numpy's BLAS entry points.  The CLI starts OpenBLAS with one thread (see
# the top of cli.py), which costs nothing only while scalar_ab makes no BLAS
# call: in a process running OpenBLAS's default thread pool, each call leaves
# the pool spinning, which doubled the CPU time of the benchmark's phase
# worker when a norm check used np.vdot.
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_uses(source):
    """(line, what) for each BLAS use in ``source``: the ``@`` operator, a
    call named in BLAS_CALLS, or anything under ``linalg``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name.split(".")[-1] in BLAS_CALLS or "linalg" in name.split("."):
                yield node.lineno, name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if any("linalg" in n.split(".") for n in names):
                yield node.lineno, "import linalg"


class TestNoBlasCall:
    @pytest.mark.parametrize("source", [
        "c = a @ b", "a @= b", "np.dot(a, b)", "x.vdot(y)", "np.inner(a, b)",
        "np.matmul(a, b)", "np.tensordot(a, b)", "np.einsum('i,i', a, b)",
        "np.linalg.norm(v)", "from numpy.linalg import norm", "import numpy.linalg",
        "from numpy import linalg"])
    def test_detector_finds_each_kind_of_use(self, source):
        assert list(blas_uses(source))

    def test_detector_passes_elementwise_code(self):
        assert not list(blas_uses("inner = [k for k in knots]\nnp.sum(a * b)\nabs(x)"))

    def test_scalar_ab_makes_no_blas_call(self):
        package = Path(scalar_ab.__file__).parent
        uses = {path.name: list(blas_uses(path.read_text(encoding="utf-8")))
                for path in sorted(package.glob("*.py"))}
        assert len(uses) >= 7
        assert {name: found for name, found in uses.items() if found} == {}


def names_read(source):
    """The identifiers ``source`` reads: each ``Name``, each attribute and
    each name a ``from`` import binds.  A definition's own name and a string,
    such as an entry of ``__all__``, are not reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


class TestPublicSurface:
    def test_detector_counts_reads_only(self):
        source = ("from .core import a\nb.c(d)\n__all__ = ['e']\n"
                  "def f(): pass\nclass G: pass\n")
        assert names_read(source) == {"a", "b", "c", "d", "__all__"}

    def test_every_public_name_has_a_reader_outside_the_tests(self):
        # The library is what the instrument uses: a public name stays while
        # the library, an acceptance criterion or the benchmark reads it.
        root = Path(__file__).resolve().parents[1]
        paths = [*sorted(Path(scalar_ab.__file__).parent.glob("*.py")),
                 root / "tests" / "test_acceptance.py",
                 *sorted((root / "perfbench").glob("*.py"))]
        read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in paths))
        assert len(paths) >= 9
        assert sorted(set(scalar_ab.__all__) - {"__version__"} - read) == []


def rel_only_approx(source):
    """(line, call) for each ``approx(...)`` in ``source`` given ``rel=`` but
    no ``abs=``.  approx then also accepts anything within its default
    abs=1e-12 of the expected value, so such a comparison of quantities
    below ~1e-12 checks nothing: 2e-24 == approx(1e-24, rel=1e-15)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "approx":
            given = {keyword.arg for keyword in node.keywords}
            if "rel" in given and "abs" not in given:
                yield node.lineno, ast.unparse(node)


class TestApproxStatesAbs:
    @pytest.mark.parametrize("source", [
        "pytest.approx(x, rel=1e-9)", "approx(1e-24, rel=1e-15)",
        "assert (y ==\n    pytest.approx(x,\n                  rel=1e-12))"])
    def test_detector_finds_rel_without_abs(self, source):
        assert list(rel_only_approx(source))

    def test_detector_passes_an_explicit_abs(self):
        assert not list(rel_only_approx(
            "pytest.approx(x, rel=1e-9, abs=0.0)\npytest.approx(x, abs=1e-8)\napprox(x)"))

    def test_no_test_compares_by_rel_alone(self):
        here = Path(__file__).parent
        found = {path.name: list(rel_only_approx(path.read_text(encoding="utf-8")))
                 for path in sorted(here.glob("test_*.py"))}
        assert len(found) >= 7
        assert {name: calls for name, calls in found.items() if calls} == {}


class TestDeterminism:
    def test_identical_configs_byte_identical_csv(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            doc = circuit_config(out, t_end_ns=4.0, n_samples=301)
            run_experiment(parse_config(json.dumps(doc)))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_identical_configs_byte_identical_json(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            doc = json.loads(json.dumps(PRESETS["earth-shell"]))
            doc["output"] = {"path": str(out), "format": "json"}
            run_experiment(parse_config(json.dumps(doc)))
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("name", sorted(
        p.name[:-len(".config.json")] for p in GOLDEN.glob("*.config.json")))
    def test_spectrum_json_matches_golden(self, tmp_path, capsys, name):
        # Goldens written by the dict-backed spectra that the array storage
        # replaced; they hold -0.0 entries whose sign must survive.
        doc = json.loads((GOLDEN / f"{name}.config.json").read_text())
        doc["output"] = {"path": str(tmp_path / "out.json")}
        config = tmp_path / "conf.json"
        config.write_text(json.dumps(doc))
        assert main(["--config", str(config)]) == EXIT_OK
        assert (tmp_path / "out.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    def test_sweep_writes_what_each_config_writes_alone(self, tmp_path, capsys):
        # The benchmark's sweep: fig3 for 200 ns at 1 and 2 uV.
        configs = []
        for name, amplitude in (("a", 1.0), ("b", 2.0)):
            conf = tmp_path / f"{name}.json"
            conf.write_text(json.dumps(circuit_config(
                tmp_path / f"{name}.csv", t_end_ns=200.0, drive_amplitude_uV=amplitude)))
            configs.append(conf)
        assert main(["--sweep", *map(str, configs)]) == EXIT_OK
        for name, conf in zip("ab", configs):
            alone = tmp_path / f"{name}_alone.csv"
            assert main(["--config", str(conf), "--out", str(alone)]) == EXIT_OK
            assert alone.read_bytes() == (tmp_path / f"{name}.csv").read_bytes()


def read_csv(path):
    with open(path, newline="") as fh:
        header = fh.readline()
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestPresetGoldens:
    """Each preset against its output in tests/golden/.  Where numpy's
    sin/cos or the compiled DOP853 enter, the comparison allows for the
    numpy/scipy builds of the CI matrix instead of asking for bytes."""

    @staticmethod
    def run_preset(tmp_path, name):
        golden = next(GOLDEN.glob(f"{name}.*"))
        out = tmp_path / golden.name
        assert main([name, "--out", str(out)]) == EXIT_OK
        return out, golden

    def test_earth_shell_is_byte_identical(self, tmp_path, capsys):
        out, golden = self.run_preset(tmp_path, "earth-shell")
        assert out.read_bytes() == golden.read_bytes()

    def test_fig3_delta_phi_within_1e_9_rad(self, tmp_path, capsys):
        out, golden = self.run_preset(tmp_path, "fig3")
        (header, got), (golden_header, want) = read_csv(out), read_csv(golden)
        assert header == golden_header and got.shape == want.shape
        np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=1e-15, atol=0.0)
        assert np.max(np.abs(got[:, 1] - want[:, 1])) <= 1e-9
        # the rate error that a 1e-9 rad phase error carries at the
        # trajectory's own rate-to-phase scale (~2.7e10 s^-1)
        rate_tol = 1e-9 * np.abs(want[:, 2]).max() / np.abs(want[:, 1]).max()
        assert np.max(np.abs(got[:, 2] - want[:, 2])) <= rate_tol

    def test_fig4_within_1e_14_relative(self, tmp_path, capsys):
        # Relative to each column's largest magnitude: the central minimum
        # sits at phi* ~ -2e-15, bisection noise around an exact zero.
        out, golden = self.run_preset(tmp_path, "fig4")
        got, want = json.loads(out.read_text()), json.loads(golden.read_text())
        assert sorted(got) == sorted(want)
        for key in want:
            g, w = np.asarray(got[key]), np.asarray(want[key])
            assert g.shape == w.shape, key
            assert np.all(np.abs(g - w) <= 1e-14 * np.abs(w).max(axis=0)), key

    def test_supernova_shell_within_1e_15_relative(self, tmp_path, capsys):
        out, golden = self.run_preset(tmp_path, "supernova-shell")
        (header, got), (golden_header, want) = read_csv(out), read_csv(golden)
        assert header == golden_header and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestSchemaSelfConsistency:
    def test_alias_targets_exist(self):
        for entry in EXPERIMENTS.values():
            for target in entry.aliases.values():
                assert target in entry.keys

    def test_preset_keys_all_valid(self):
        for name, preset in PRESETS.items():
            keys = EXPERIMENTS[preset["experiment"]].keys
            assert keys["preset"].choices == (name,)
            for key in preset["parameters"]:
                assert key in keys, f"preset {name} key {key}"
