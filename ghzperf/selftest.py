#!/usr/bin/env python3
"""Show that every output check of the benchmark can fail.

    python3 ghzperf/selftest.py

Runs each workload once at its small SMOKE size, requires its checks to
pass on the genuine outputs, then perturbs one output at a time and
requires the checks to reject it with the expected message.  Exits 1 if
any genuine output is rejected or any perturbation slips through.
"""

import os
import sys
from dataclasses import replace as with_field

HERE = os.path.dirname(os.path.abspath(__file__))
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from rydghz.propagate import StateVector  # noqa: E402
from rydghz.protocols import apply_ux  # noqa: E402


def shifted(array, index, delta):
    out = np.array(array, copy=True)
    out[index] += delta
    return out


# Each perturbation: (what it breaks, text the check must report, fn).
# fn(workload, outputs) returns perturbed outputs; it may also swap a
# method on the workload, which the runner restores afterwards.


def _search():
    def dcrab(out, **changes):
        return {**out, "dcrab": with_field(out["dcrab"], **changes)}

    def noisy(out, **changes):
        return {**out, "noisy": with_field(out["noisy"], **changes)}

    return [
        ("initial FOM", "initial FOM",
         lambda w, o: dcrab(o, initial_fom=o["dcrab"].initial_fom + 1e-5)),
        ("final FOM", "final FOM",
         lambda w, o: dcrab(o, best_fom=o["dcrab"].best_fom + 1e-5)),
        ("screened FOM", "first screened FOM",
         lambda w, o: {**o, "screened": [o["screened"][0] - 1e-5, *o["screened"][1:]]}),
        ("per-step best", "decreases",
         lambda w, o: dcrab(o, super_best=(o["dcrab"].initial_fom - 1e-3,)
                            + o["dcrab"].super_best[1:])),
        ("best below initial", "below the initial",
         lambda w, o: dcrab(o, best_fom=o["dcrab"].initial_fom - 1e-3)),
        ("evaluation count", "evaluations, expected",
         lambda w, o: dcrab(o, trace=o["dcrab"].trace[:-1])),
        ("fidelity above survival", "out of order",
         lambda w, o: noisy(o, fidelities=shifted(o["noisy"].fidelities, -1,
                                                  o["noisy"].survivals[-1]))),
        ("realization 0", "realization 0",
         lambda w, o: noisy(o, survivals=shifted(o["noisy"].survivals, 0, 1e-7))),
    ]


def _scan():
    def scan(out, **changes):
        return {**out, "scan": with_field(out["scan"], **changes)}

    def scaled_readout(w):
        genuine = type(w).readout

        w.readout = lambda psi: StateVector(
            genuine(w, psi).space, genuine(w, psi).amplitudes * (1.0 + 1e-7)
        )

    def detuned_readout(w):
        w.readout = lambda psi: apply_ux(psi, w.terms, w.calibration.duration_us,
                                         omega_mhz=w.calibration.omega_mhz * 1.01)

    def perturb_state(w, o):
        psi = o["state"]
        return {**o, "state": StateVector(psi.space, psi.amplitudes * (1.0 + 1e-8))}

    return [
        ("state norm", "state norm", perturb_state),
        ("fitted amplitude", "2 quality |beta|",
         lambda w, o: scan(o, amplitude=o["scan"].amplitude * (1.0 + 1e-6))),
        ("C/2 bound", "exceeds |beta|",
         lambda w, o: {**o, "bound": with_field(o["bound"], bound=0.5)}),
        ("readout norm", "conserve the norm",
         lambda w, o: (scaled_readout(w), o)[1]),
        ("readout energy", "changes <H>",
         lambda w, o: (detuned_readout(w), o)[1]),
        ("scan parity at T=0", "differs from the rerun readout",
         lambda w, o: scan(o, parity=shifted(o["scan"].parity, 0, 1e-6))),
        ("decay start", "decay starts",
         lambda w, o: {**o, "decay": with_field(
             o["decay"], initial_modulus=o["decay"].initial_modulus * (1 + 1e-9))}),
        ("decay time", "1/sqrt(N) law",
         lambda w, o: {**o, "decay": with_field(
             o["decay"], gaussian_time_us=o["decay"].gaussian_time_us * 1.5)}),
    ]


def _verify():
    def record(out, index, **changes):
        observed, dist, zero, full, shape = out["records"][index]
        fields = {"observed": observed, "dist": dist, "zero": zero, "full": full}
        fields.update(changes)
        records = list(out["records"])
        records[index] = (fields["observed"], fields["dist"], fields["zero"],
                          fields["full"], shape)
        return {**out, "records": records}

    def moved_mass(dist):
        support = np.nonzero(dist > 1e-3)[0]
        out = np.array(dist, copy=True)
        out[support[0]] += 1e-6
        out[support[1]] -= 1e-6
        return out

    def bell(out, **changes):
        return {**out, "bell": with_field(out["bell"], **changes)}

    def rho_plus(out, i, j, delta):
        rho = np.array(out["bell"].edge_density_matrix, copy=True)
        rho[i, j] += delta
        return bell(out, edge_density_matrix=rho)

    def non_psd(out):
        rho = np.array(out["bell"].edge_density_matrix, copy=True)
        # Both edges excited is nearly unpopulated after the reverse sweep,
        # so moving weight out of it leaves a negative eigenvalue.
        rho[3, 3] -= 1e-3
        rho[0, 0] += 1e-3
        return bell(out, edge_density_matrix=rho)

    def schedule(out):
        times = np.array(out["schedule"].times_us, copy=True)
        times[10], times[11] = times[11], times[10]
        return {**out, "schedule": with_field(out["schedule"], times_us=times)}

    def inferred(w, out):
        n = w.size["n_sites"]
        pattern_a = workloads.reference.sublattice_groups(n).index((0, n // 2))
        dist = shifted(out["inferred"].distribution, pattern_a, -0.2)
        return {**out, "inferred": with_field(out["inferred"], distribution=dist)}

    return [
        ("schedule order", "not monotone", lambda w, o: schedule(o)),
        ("ramp ordering", "<= linear",
         lambda w, o: {**o, "f_linear": w.fom.evaluate(o["state"]) + 1e-9}),
        ("eigenpopulations", "sub-distribution",
         lambda w, o: {**o, "trace": [with_field(o["trace"][0],
                                                 overlaps=o["trace"][0].overlaps + 0.5)]}),
        ("scan parity", "outside [-1, 1]",
         lambda w, o: {**o, "scan": with_field(o["scan"],
                                               parity=shifted(o["scan"].parity, 0, 2.5))}),
        ("KKT stationarity", "KKT", lambda w, o: record(o, 0, dist=moved_mass(o["records"][0][1]))),
        ("simplex", "KKT",
         lambda w, o: record(o, -1, dist=shifted(o["records"][-1][1], 0, -1e-6))),
        ("confusion rates", "other misread rates",
         lambda w, o: record(o, 0, zero=o["records"][0][2] * (1 - 1e-6))),
        ("inference count", "inference calls", lambda w, o: {**o, "records": o["records"][:-1]}),
        ("A+Abar population", "5 sigma", inferred),
        ("edge partial trace", "partial trace", lambda w, o: rho_plus(o, 1, 1, 1e-9)),
        ("edge hermiticity", "not Hermitian", lambda w, o: rho_plus(o, 1, 2, 1e-9)),
        ("edge positivity", "positive semidefinite", lambda w, o: non_psd(o)),
        ("edge trace", "trace 1", lambda w, o: rho_plus(o, 0, 0, 1e-6)),
        ("Bell bound", "Bell bound",
         lambda w, o: bell(o, fidelity_bound=o["bell"].exact_bell_fidelity + 1e-9)),
    ]


PERTURBATIONS = {"search-n8": _search, "scan-n20": _scan, "verify-n12": _verify}


def main():
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=7, size=workloads.SMOKE[name])
        try:
            inputs = workload.inputs(0)
            outputs = workload.run_round(inputs)
            genuine = workload.check(inputs, outputs)
            print(f"{name}: genuine outputs {'rejected' if genuine else 'accepted'}")
            problems.extend(f"{name}: genuine output rejected: {m}" for m in genuine)
            for label, expected, perturb in PERTURBATIONS[name]():
                fails = workload.check(inputs, perturb(workload, outputs))
                workload.__dict__.pop("readout", None)
                caught = any(expected in m for m in fails)
                print(f"  {label}: {'rejected' if caught else 'NOT REJECTED'}")
                if not caught:
                    problems.append(f"{name}: perturbed {label} not rejected ({fails})")
        finally:
            workload.close()
    for message in problems:
        print(message)
    print("selftest: " + ("FAILED" if problems else "all checks reject perturbed outputs"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
