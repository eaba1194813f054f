"""Traced mode: spans and counters around calls into rydghz.

``install`` replaces public functions and methods of the package with
timing wrappers, from outside the package: every module attribute bound
to a wrapped function is rebound, so calls through ``from .x import f``
are caught too.  Coarse calls (pulse evaluations, scans, spectra) become
spans kept in memory with (id, name, start, end, parent); calls that run
thousands of times per second (control samples, Krylov steps, matvecs,
observer callbacks) only add to counters, but still charge their time
to the enclosing span so self times stay exact.
"""

import functools
import importlib
import json
import os
import sys
import time

_perf = time.perf_counter

# (module, attribute path, metric name, keep span)
TARGETS = (
    ("basis", "enumerate_basis", "basis.enumerate", True),
    ("basis", "symmetry_sector", "basis.sector", True),
    ("hamiltonian", "HamiltonianTerms.__init__", "hamiltonian.build_terms", True),
    ("hamiltonian", "drive_coupling", "hamiltonian.drive_coupling", True),
    ("controls", "Pulse.sample", "controls.sample", False),
    ("propagate", "krylov_expm_apply", "propagate.krylov", False),
    ("propagate", "SampledEvolution.run", "propagate.run", True),
    ("propagate", "lowest_spectrum", "propagate.spectrum", True),
    ("optimize", "PreparationSimulator.__init__", "optimize.simulator", True),
    ("optimize", "PreparationSimulator.evaluate", "optimize.evaluate", True),
    ("optimize", "PreparationSimulator.final_state", "optimize.final_state", True),
    ("optimize", "optimize_dcrab", "optimize.dcrab", True),
    ("optimize", "diabaticity_schedule", "optimize.schedule", True),
    ("optimize", "ramp_pulse", "optimize.ramp_pulse", True),
    ("optimize", "eigenpopulation_trace", "optimize.eigenpopulation_trace", True),
    ("noise", "disorder_realization", "noise.realization", False),
    ("noise", "noisy_preparation", "noise.noisy_preparation", True),
    ("noise", "decohered_ghz_coherence", "noise.decoherence", True),
    ("protocols", "optimal_ux_duration", "protocols.calibration", True),
    ("protocols", "apply_ux", "protocols.readout", True),
    ("protocols", "parity_oscillation_scan", "protocols.scan", True),
    ("protocols", "coherence_lower_bound", "protocols.bound", True),
    ("protocols", "expm", "protocols.expm", True),
    ("protocols", "bell_distribution_protocol", "protocols.bell", True),
    ("detection", "sample_shots_from_distribution", "detection.sample", True),
    ("detection", "infer_true_distribution", "detection.infer", True),
    ("detection", "ExcitationGrouping.confusion", "detection.confusion", True),
    ("detection", "MagnetizationExcitationGrouping.confusion", "detection.confusion", True),
    ("detection", "bootstrap_uncertainty", "detection.bootstrap", True),
)

# Metrics printed by a traced run, with their units.  Per-module self
# times sum the self time of every wrapped call of that module.
PER_LAYER = (
    ("controls.sample_calls", "count"),
    ("controls.sample_s", "s"),
    ("propagate.krylov_steps", "count"),
    ("propagate.krylov_self_s", "s"),
    ("propagate.matvecs", "count"),
    ("propagate.matvecs_per_step", "ratio"),
    ("propagate.matvec_s", "s"),
    ("propagate.matvec_bytes_computed", "bytes"),
    ("propagate.observer_s", "s"),
    ("propagate.run_self_s", "s"),
    ("propagate.spectrum_calls", "count"),
    ("propagate.spectrum_s", "s"),
    ("optimize.fom_evaluations", "count"),
    ("optimize.accepted_terms", "count"),
    ("optimize.self_s", "s"),
    ("optimize.schedule_s", "s"),
    ("noise.realizations", "count"),
    ("noise.self_s", "s"),
    ("hamiltonian.build_terms_calls", "count"),
    ("hamiltonian.build_terms_s", "s"),
    ("hamiltonian.drive_coupling_calls", "count"),
    ("basis.enumerate_s", "s"),
    ("basis.sector_s", "s"),
    ("protocols.readout_applications", "count"),
    ("protocols.scan_self_s", "s"),
    ("protocols.calibration_s", "s"),
    ("protocols.expm_calls", "count"),
    ("protocols.expm_s", "s"),
    ("protocols.bell_self_s", "s"),
    ("detection.shots_sampled", "count"),
    ("detection.sample_s", "s"),
    ("detection.infer_calls", "count"),
    ("detection.infer_iterations", "count"),
    ("detection.infer_s", "s"),
    ("detection.confusion_calls", "count"),
    ("detection.confusion_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.run_s", "s"),
)


class Tracer:
    """In-memory spans plus per-name call counts, total and self times."""

    def __init__(self):
        self.spans = []
        self.stats = {}
        self.counts = {}
        self.events = 0
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, keep_span, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[0] if parent else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                tracer.events += 1
                if keep_span:
                    tracer.spans.append(
                        (span_id, name, start, end, parent[0] if parent else None)
                    )
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, prefix):
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix))

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": records}, fh)
            fh.write("\n")


def _rebind(original, replacement):
    """Point every rydghz module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "rydghz" or name.startswith("rydghz."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _counting_hooks(tracer):
    def shots(args, kwargs, _result):
        tracer.add("shots", kwargs["n_shots"] if "n_shots" in kwargs else args[2])

    def inference(_args, _kwargs, result):
        tracer.add("infer_iterations", result.iterations)

    def dcrab(_args, _kwargs, result):
        tracer.add("accepted_terms", sum(result.accepted))

    return {
        "detection.sample": shots,
        "detection.infer": inference,
        "optimize.dcrab": dcrab,
    }


def install(tracer):
    """Wrap every target for the rest of the process."""
    hooks = _counting_hooks(tracer)
    for module_name, path, name, keep_span in TARGETS:
        module = importlib.import_module(f"rydghz.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        original = getattr(getattr(module, owner_name) if owner_name else module, attr)
        wrapped = tracer.wrap(name, original, keep_span, hooks.get(name))
        if owner_name:
            setattr(getattr(module, owner_name), attr, wrapped)
        else:
            _rebind(original, wrapped)

    # Matvecs and observers are closures made per step, so they are
    # wrapped where they are handed out.
    engine = importlib.import_module("rydghz.propagate").SampledEvolution
    matvec_at, run = engine.matvec_at, engine.run

    def counted_matvec_at(self, omega_rad, delta_rad):
        dim, nnz = self.coupling.shape[0], self.coupling.nnz
        # Computed, not measured: CSR arrays (8 B value + 4 B index per
        # nonzero, 4 B per row pointer), the real diagonal, and nine
        # complex vector streams of the spmv, diagonal product, scaling
        # and sum.
        moved = 12 * nnz + 4 * (dim + 1) + 8 * dim + 9 * 16 * dim
        return tracer.wrap(
            "propagate.matvec", matvec_at(self, omega_rad, delta_rad), False,
            lambda _a, _k, _r: tracer.add("matvec_bytes", moved),
        )

    def observed_run(self, *args, observer=None, **kwargs):
        if observer is not None:
            observer = tracer.wrap("propagate.observer", observer, False)
        return run(self, *args, observer=observer, **kwargs)

    engine.matvec_at = counted_matvec_at
    engine.run = functools.wraps(run)(observed_run)


def wrapper_cost(samples=20000):
    """Seconds one wrapped call adds over a bare call, measured here."""
    probe = Tracer()

    def bare():
        return None

    wrapped = probe.wrap("probe", bare, False)
    start = _perf()
    for _ in range(samples):
        bare()
    plain = _perf() - start
    start = _perf()
    for _ in range(samples):
        wrapped()
    return max((_perf() - start - plain) / samples, 0.0)


def per_layer_metrics(tracer, traced_run_s):
    """The PER_LAYER values from one traced run."""
    t = tracer
    steps = t.calls("propagate.krylov")
    matvecs = t.calls("propagate.matvec")
    values = {
        "controls.sample_calls": t.calls("controls.sample"),
        "controls.sample_s": t.total("controls.sample"),
        "propagate.krylov_steps": steps,
        "propagate.krylov_self_s": t.self_time("propagate.krylov"),
        "propagate.matvecs": matvecs,
        "propagate.matvecs_per_step": matvecs / steps if steps else 0.0,
        "propagate.matvec_s": t.total("propagate.matvec"),
        "propagate.matvec_bytes_computed": t.counts.get("matvec_bytes", 0),
        "propagate.observer_s": t.total("propagate.observer"),
        "propagate.run_self_s": t.self_time("propagate.run"),
        "propagate.spectrum_calls": t.calls("propagate.spectrum"),
        "propagate.spectrum_s": t.total("propagate.spectrum"),
        "optimize.fom_evaluations": t.calls("optimize.evaluate"),
        "optimize.accepted_terms": t.counts.get("accepted_terms", 0),
        "optimize.self_s": t.self_time("optimize."),
        "optimize.schedule_s": t.total("optimize.schedule"),
        "noise.realizations": t.calls("noise.realization"),
        "noise.self_s": t.self_time("noise."),
        "hamiltonian.build_terms_calls": t.calls("hamiltonian.build_terms"),
        "hamiltonian.build_terms_s": t.total("hamiltonian.build_terms"),
        "hamiltonian.drive_coupling_calls": t.calls("hamiltonian.drive_coupling"),
        "basis.enumerate_s": t.total("basis.enumerate"),
        "basis.sector_s": t.total("basis.sector"),
        "protocols.readout_applications": t.calls("protocols.readout"),
        "protocols.scan_self_s": t.self_time("protocols.scan"),
        "protocols.calibration_s": t.total("protocols.calibration"),
        "protocols.expm_calls": t.calls("protocols.expm"),
        "protocols.expm_s": t.total("protocols.expm"),
        "protocols.bell_self_s": t.self_time("protocols.bell"),
        "detection.shots_sampled": t.counts.get("shots", 0),
        "detection.sample_s": t.total("detection.sample"),
        "detection.infer_calls": t.calls("detection.infer"),
        "detection.infer_iterations": t.counts.get("infer_iterations", 0),
        "detection.infer_s": t.total("detection.infer"),
        "detection.confusion_calls": t.calls("detection.confusion"),
        "detection.confusion_s": t.total("detection.confusion"),
        "trace.spans": len(t.spans),
        "trace.overhead_s": t.events * wrapper_cost(),
        "trace.run_s": traced_run_s,
    }
    return values
