"""Command-line behavior: artifacts, manifests, exit codes, config files."""

import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from rydghz import controls, detection, hamiltonian, noise, optimize, propagate, protocols
from rydghz.cli import build_parser, main
from rydghz.controls import Pulse
from rydghz.fileio import TableData, sha256_of_file
from rydghz.manifest import RunManifest


def run(*args):
    return main([str(a) for a in args])


def read_report(path):
    values = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition(": ")
        values[key] = value
    return values


def read_manifest(out_dir, subcommand):
    path = out_dir / (subcommand.replace("-", "_") + "_manifest.json")
    assert path.exists(), f"{subcommand} left no manifest"
    return RunManifest.read(path)


def check_output_digests(out_dir, manifest):
    for name, digest in manifest.outputs.items():
        assert sha256_of_file(out_dir / name) == digest


@pytest.fixture(scope="module")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-runs")


@pytest.fixture(scope="module")
def optimized(outroot):
    out = outroot / "optimize"
    code = run("--seed", 5, "--out-dir", out, "optimize", "--n-sites", 4,
               "--total-time", 0.5, "--super-iterations", 1,
               "--max-evaluations", 20, "--dt", 0.004)
    assert code == 0
    return out


class TestOptimize:
    def test_artifacts_and_manifest(self, optimized):
        pulse = Pulse.from_json((optimized / "pulse_optimized.json").read_text())
        assert pulse.tau == 0.5
        trace = TableData.from_text((optimized / "fom_trace.csv").read_text())
        assert trace.column_names == ("evaluation", "super_iteration", "fom", "best")
        best = trace.column("best")
        assert np.all(np.diff(best) >= 0)
        report = (optimized / "optimize_report.txt").read_text()
        assert "final_fom: " in report
        final = float(report.rsplit("final_fom: ", 1)[1].split()[0])
        assert final == best[-1] >= 0.94

        manifest = read_manifest(optimized, "optimize")
        assert manifest.seed == 5
        assert manifest.config["total_time"] == 0.5
        check_output_digests(optimized, manifest)

    def test_outputs_reproducible(self, outroot, optimized):
        again = outroot / "optimize-again"
        code = run("--seed", 5, "--out-dir", again, "optimize", "--n-sites", 4,
                   "--total-time", 0.5, "--super-iterations", 1,
                   "--max-evaluations", 20, "--dt", 0.004)
        assert code == 0
        first = read_manifest(optimized, "optimize")
        second = read_manifest(again, "optimize")
        assert first.outputs == second.outputs

    def test_auto_seed_recorded(self, outroot):
        out = outroot / "autoseed"
        code = run("--out-dir", out, "optimize", "--n-sites", 4,
                   "--total-time", 0.4, "--super-iterations", 0, "--dt", 0.005)
        assert code == 0
        manifest = read_manifest(out, "optimize")
        assert manifest.seed >= 0
        assert manifest.argv[:2] == ("--seed", str(manifest.seed))
        assert manifest.config["seed"] == manifest.seed

    def test_zero_duration_rejected(self, outroot):
        code = run("--out-dir", outroot / "bad", "optimize", "--n-sites", 4,
                   "--total-time", 0)
        assert code == 2

    def test_config_file_defaults(self, outroot, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"total-time": 0.4, "super-iterations": 0,
                                      "dt": 0.005}))
        out = outroot / "configured"
        code = run("--seed", 1, "--out-dir", out, "--config", config,
                   "optimize", "--n-sites", 4)
        assert code == 0
        manifest = read_manifest(out, "optimize")
        assert manifest.config["total_time"] == 0.4
        assert manifest.config["super_iterations"] == 0

    def test_config_unknown_field_is_usage_error(self, outroot, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"not-a-flag": 1}))
        with pytest.raises(SystemExit) as excinfo:
            run("--out-dir", outroot / "cfgbad", "--config", config,
                "optimize", "--n-sites", 4)
        assert excinfo.value.code == 2


class TestEvolve:
    def test_linear_ramp(self, outroot):
        out = outroot / "evolve-linear"
        code = run("--seed", 0, "--out-dir", out, "evolve", "--n-sites", 4,
                   "--ramp", "linear", "--total-time", 1.1, "--dt", 0.004)
        assert code == 0
        report = read_report(out / "evolve_report.txt")
        assert float(report["fidelity_phase0"]) > 0.99
        table_text = (out / "populations.csv").read_text()
        assert TableData.from_text(table_text).to_text() == table_text
        check_output_digests(out, read_manifest(out, "evolve"))

    def test_pulse_file_input_digested(self, outroot, optimized):
        out = outroot / "evolve-pulse"
        pulse_path = optimized / "pulse_optimized.json"
        code = run("--seed", 0, "--out-dir", out, "evolve", "--n-sites", 4,
                   "--pulse", pulse_path, "--dt", 0.004)
        assert code == 0
        manifest = read_manifest(out, "evolve")
        assert str(pulse_path) in manifest.inputs
        assert manifest.inputs[str(pulse_path)] == sha256_of_file(pulse_path)

    def test_local_adiabatic_without_shifts(self, outroot):
        # The Omega = 0 end of the sweep has a degenerate ground cluster on
        # which dH/ds is constant: the weight is defined there.
        out = outroot / "evolve-adiabatic-none"
        code = run("--threads", 1, "--seed", 1, "--out-dir", out, "evolve",
                   "--n-sites", 8, "--ramp", "local_adiabatic", "--shifts", "none")
        assert code == 0
        assert (out / "evolve_report.txt").is_file()

    def test_exactly_one_source(self, outroot):
        assert run("--out-dir", outroot / "e1", "evolve", "--n-sites", 4) == 2
        assert run("--out-dir", outroot / "e2", "evolve", "--n-sites", 4,
                   "--ramp", "linear", "--pulse", "x.json") == 2


class TestParityScan:
    def test_ideal_ghz_fit_frequency(self, outroot):
        out = outroot / "parity"
        code = run("--seed", 0, "--out-dir", out, "parity-scan", "--n-sites", 8,
                   "--delta-p", 3.8)
        assert code == 0
        report = read_report(out / "parity_report.txt")
        fitted = float(report["fit_frequency_mhz"])
        assert abs(fitted / (8 * 3.8) - 1.0) < 0.01
        assert float(report["coherence_bound"]) > 0.4
        scan = TableData.from_text((out / "parity_scan.csv").read_text())
        assert scan.column_names[:2] == ("time_us", "parity")

    def test_shots_mode_emits_summary_row(self, outroot):
        out = outroot / "parity-shots"
        code = run("--seed", 0, "--out-dir", out, "parity-scan", "--n-sites", 4,
                   "--shots", 500, "--bootstrap", 8)
        assert code == 0
        report = read_report(out / "parity_report.txt")
        row = report["summary_row"].split(",")
        assert int(row[0]) == 4
        assert 0.8 < float(row[1]) <= 1.001
        assert (out / "parity_scan_shots.csv").exists()

    def test_shots_mode_calibrates_readout_once(self, outroot, monkeypatch):
        from rydghz import protocols

        calls = []
        calibrate = protocols.optimal_ux_duration

        def counted(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(protocols, "optimal_ux_duration", counted)
        code = run("--seed", 0, "--out-dir", outroot / "parity-once", "parity-scan",
                   "--n-sites", 8, "--shots", 200, "--bootstrap", 4)
        assert code == 0
        assert len(calls) == 1

    def test_zero_shots_rejected(self, outroot):
        assert run("--out-dir", outroot / "p0", "parity-scan", "--n-sites", 4,
                   "--shots", 0) == 2
        # refused before any scan runs
        assert not (outroot / "p0" / "parity_scan.csv").exists()


@pytest.fixture(scope="module")
def shots_file(outroot):
    from rydghz.basis import ChainGeometry, enumerate_basis
    from rydghz.detection import DetectionModel, sample_shots
    from rydghz.propagate import ghz_state

    basis = enumerate_basis(ChainGeometry(4))
    shots = sample_shots(ghz_state(basis, 0.0), 1000, model=DetectionModel(), seed=3)
    path = outroot / "shots4.txt"
    path.write_text(shots.to_text())
    return path


class TestInfer:
    def test_identity_model_returns_raw(self, outroot, shots_file):
        out = outroot / "infer-id"
        code = run("--seed", 1, "--out-dir", out, "infer", "--shots", shots_file,
                   "--identity", "--bootstrap", 4)
        assert code == 0
        table = TableData.from_text((out / "infer_table.csv").read_text())
        assert np.allclose(table.column("raw"), table.column("inferred"),
                           atol=1e-12)

    def test_correction_raises_target_population(self, outroot, shots_file):
        out = outroot / "infer-corr"
        code = run("--seed", 1, "--out-dir", out, "infer", "--shots", shots_file,
                   "--bootstrap", 16)
        assert code == 0
        report = read_report(out / "infer_report.txt")
        raw = float(report["raw_target_population"])
        corrected = float(report["inferred_target_population"])
        assert corrected > raw
        assert float(report["target_population_sigma"]) > 0
        assert int(report["inference_iterations"]) >= 1
        assert int(report["bootstrap_iterations"]) >= 16
        manifest = read_manifest(out, "infer")
        assert str(shots_file) in manifest.inputs

    def test_malformed_line_reports_number(self, outroot, capsys):
        bad = outroot / "bad-shots.txt"
        bad.write_text("# rydghz-shots\n0101\n01x1\n")
        code = run("--out-dir", outroot / "infer-bad", "infer", "--shots", bad)
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, outroot):
        assert run("--out-dir", outroot / "infer-io", "infer",
                   "--shots", outroot / "nope.txt") == 4

    def test_empty_file_rejected(self, outroot):
        empty = outroot / "empty-shots.txt"
        empty.write_text("")
        assert run("--out-dir", outroot / "infer-empty", "infer",
                   "--shots", empty) == 2


class TestRampCompare:
    def test_single_point_table(self, outroot):
        out = outroot / "ramp"
        code = run("--seed", 0, "--out-dir", out, "ramp-compare", "--n-sites", 4,
                   "--times", "1.1", "--dt", 0.004)
        assert code == 0
        table = TableData.from_text((out / "ramp_compare.csv").read_text())
        assert table.n_rows == 1
        assert table.column_names == ("time_us", "linear", "local_adiabatic")
        assert table.column("local_adiabatic")[0] > table.column("linear")[0]

    def test_odd_chain_rejected(self, outroot):
        assert run("--out-dir", outroot / "ramp-odd", "ramp-compare",
                   "--n-sites", 5, "--times", "1.0") == 2

    def test_unknown_kind_rejected(self, outroot):
        assert run("--out-dir", outroot / "ramp-kind", "ramp-compare",
                   "--n-sites", 4, "--times", "1.0", "--kinds", "sigmoid") == 2


class TestBellDistribute:
    def test_ideal_source(self, outroot):
        out = outroot / "bell"
        code = run("--seed", 0, "--out-dir", out, "bell-distribute",
                   "--n-sites", 8, "--dt", 0.004)
        assert code == 0
        report = read_report(out / "bell_report.txt")
        bound = float(report["fidelity_bound"])
        exact = float(report["exact_bell_fidelity"])
        assert 0.5 < bound <= exact + 0.01
        fringe = TableData.from_text((out / "bell_fringe.csv").read_text())
        assert fringe.column_names == ("phase_rad", "edge_parity")
        check_output_digests(out, read_manifest(out, "bell-distribute"))

    def test_pulse_source_honours_shifts(self, outroot, optimized):
        reports = []
        for extra in ((), ("--shifts", "none")):
            out = outroot / f"bell-pulse{len(extra)}"
            assert run("--seed", 0, "--out-dir", out, "bell-distribute", "--n-sites", 4,
                       "--source", optimized / "pulse_optimized.json", "--dt", 0.004,
                       *extra) == 0
            reports.append((out / "bell_report.txt").read_text())
        assert reports[0] != reports[1]

    def test_coarse_dt_refused(self, outroot):
        # dt = 0.5 leaves no whole step in the 50 ns conversion pulse.
        assert run("--out-dir", outroot / "bell-coarse", "bell-distribute",
                   "--n-sites", 8, "--dt", 0.5) == 2


class TestDecayScan:
    def test_artifacts_and_fit(self, outroot):
        out = outroot / "decay"
        code = run("--seed", 0, "--out-dir", out, "decay-scan", "--n-sites", 4,
                   "--realizations", 64, "--points", 9)
        assert code == 0
        report = read_report(out / "decay_report.txt")
        assert float(report["gaussian_residual"]) < float(report["exponential_residual"])
        text = (out / "decay.csv").read_text()
        assert TableData.from_text(text).to_text() == text

    @pytest.mark.parametrize("flag", [("--dt", "0.5"), ("--shifts", "none"),
                                      ("--v-nn", "10")])
    def test_unused_chain_flags_rejected(self, outroot, flag):
        with pytest.raises(SystemExit) as excinfo:
            run("--out-dir", outroot / "decay-flag", "decay-scan", "--n-sites", 4, *flag)
        assert excinfo.value.code == 2

    def test_zero_sigma_needs_explicit_span(self, outroot):
        assert run("--out-dir", outroot / "decay0", "decay-scan", "--n-sites", 4,
                   "--doppler-sigma", 0) == 2


class TestTraceEigenpop:
    def test_trace_columns(self, outroot, optimized):
        out = outroot / "trace"
        code = run("--seed", 0, "--out-dir", out, "trace-eigenpop", "--n-sites", 4,
                   "--pulse", optimized / "pulse_optimized.json",
                   "--n-times", 11, "--dt", 0.004)
        assert code == 0
        table = TableData.from_text((out / "eigenpop.csv").read_text())
        assert table.column_names[:3] == ("time_us", "omega_mhz", "delta_mhz")
        assert table.column_names[3] == "p0"
        assert table.n_rows == 11
        ground = table.column("p0")
        assert ground[0] == pytest.approx(1.0, abs=1e-9)
        report = read_report(out / "eigenpop_report.txt")
        assert 0.9 < float(report["final_ground_population"]) <= 1.0


class TestGlobalFlags:
    def test_threads_pin_environment(self, outroot, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        code = run("--threads", 2, "--seed", 0, "--out-dir", outroot / "threads",
                   "evolve", "--n-sites", 4, "--ramp", "linear",
                   "--total-time", 0.3, "--dt", 0.005)
        assert code == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    @pytest.mark.parametrize("argv", [
        ("evolve", "--n-sites", 4, "--ramp", "linear", "--total-time", "nan"),
        ("evolve", "--n-sites", 4, "--ramp", "linear", "--total-time", "inf"),
        ("evolve", "--n-sites", 4, "--ramp", "linear", "--v-nn", "nan"),
        ("ramp-compare", "--n-sites", 4, "--times", "nan"),
        ("bell-distribute", "--n-sites", 4, "--reverse-time", "nan"),
        ("bell-distribute", "--n-sites", 4, "--edge-shift", "nan"),
        ("parity-scan", "--n-sites", 4, "--delta-p", "nan"),
        ("parity-scan", "--n-sites", 4, "--n-times", 0),
        ("optimize", "--n-sites", 4, "--omega-max", "nan"),
        ("optimize", "--n-sites", 4, "--simplex-scale", "nan"),
        ("optimize", "--n-sites", 4, "--fom-tolerance", "nan"),
    ])
    def test_bad_numbers_exit_with_validation_code(self, outroot, argv):
        assert run("--seed", 0, "--out-dir", outroot / "bad-number", *argv) == 2

    def test_invalid_threads(self, outroot):
        assert run("--threads", 0, "--out-dir", outroot / "t0", "evolve",
                   "--n-sites", 4, "--ramp", "linear") == 2

    def test_singular_schedule_exits_with_numerical_code(self, outroot, monkeypatch,
                                                        capsys):
        # A zero residual bound flags every solve with rounding in its
        # residual as an inconsistent deflated system: a vanishing gap.
        monkeypatch.setattr(optimize, "MINRES_RESIDUAL_BOUND", 0.0)
        assert run("--out-dir", outroot / "singular", "evolve", "--n-sites", 4,
                   "--ramp", "local_adiabatic") == 3
        assert "instantaneous gap vanishes" in capsys.readouterr().err

    def test_unconverged_schedule_solve_exits_with_numerical_code(self, outroot,
                                                                  monkeypatch):
        monkeypatch.setattr(optimize, "MINRES_MAX_ITER", 1)
        assert run("--out-dir", outroot / "minres", "evolve", "--n-sites", 4,
                   "--ramp", "local_adiabatic") == 3


def _field(cls, name):
    return {f.name: f.default for f in dataclasses.fields(cls)}[name]


def _parameter(fn, name):
    return inspect.signature(fn).parameters[name].default


_CHAIN_COMMANDS = ("optimize", "evolve", "parity-scan", "ramp-compare",
                   "bell-distribute", "trace-eigenpop")

# (command, option dest, the library default it restates).  The command
# line imports no numerical module before --threads, so it keeps literals.
RESTATED_DEFAULTS = [
    *((command, "v_nn", hamiltonian.V_NN_DEFAULT_MHZ) for command in _CHAIN_COMMANDS),
    *((command, "dt", propagate.DEFAULT_DT_US) for command in _CHAIN_COMMANDS),
    ("optimize", "fom", _field(optimize.FigureOfMerit, "kind")),
    ("optimize", "phase", _field(optimize.FigureOfMerit, "phase")),
    ("optimize", "super_iterations", _field(optimize.DcrabConfig, "super_iterations")),
    ("optimize", "max_evaluations", _field(optimize.DcrabConfig, "max_evaluations")),
    ("optimize", "simplex_scale", _field(optimize.DcrabConfig, "simplex_scale_mhz")),
    ("optimize", "fom_tolerance", _field(optimize.DcrabConfig, "fom_tolerance")),
    ("optimize", "omega_max", _field(optimize.RampSpec, "omega_max_mhz")),
    ("optimize", "omega_max", controls.OMEGA_MAX_DEFAULT_MHZ),
    ("optimize", "delta_start", _field(optimize.RampSpec, "delta_start_mhz")),
    ("optimize", "delta_stop", _field(optimize.RampSpec, "delta_stop_mhz")),
    ("parity-scan", "n_times", _parameter(protocols.parity_oscillation_scan, "n_times")),
    *((command, option, value)
      for command in ("parity-scan", "infer")
      for option, value in (
          ("p10", detection.P10_DEFAULT),
          ("p01", detection.P01_DEFAULT),
          ("bootstrap", _parameter(detection.bootstrap_uncertainty, "n_resamples")),
      )),
    ("infer", "p10_sigma", detection.P10_UNCERTAINTY_DEFAULT),
    ("infer", "p01_sigma", detection.P01_UNCERTAINTY_DEFAULT),
    ("bell-distribute", "edge_shift",
     _parameter(protocols.bell_distribution_protocol, "edge_shift_mhz")),
    ("decay-scan", "doppler_sigma", _field(noise.NoiseModel, "doppler_sigma_mhz")),
    ("decay-scan", "scattering_time", _field(noise.NoiseModel, "scattering_time_us")),
    ("decay-scan", "rydberg_lifetime", _field(noise.NoiseModel, "rydberg_lifetime_us")),
    ("trace-eigenpop", "m", _parameter(optimize.eigenpopulation_trace, "m")),
    ("trace-eigenpop", "n_times", _parameter(optimize.eigenpopulation_trace, "n_times")),
]


@pytest.mark.parametrize("command,option,library", RESTATED_DEFAULTS,
                         ids=[f"{c}-{o}" for c, o, _ in RESTATED_DEFAULTS])
def test_cli_default_matches_the_library_default_it_restates(command, option, library):
    _, subcommands = build_parser()
    assert subcommands[command].get_default(option) == library
