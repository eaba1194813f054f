"""Drive and detuning waveforms: guess pulses plus randomized-basis corrections.

A pulse holds, per control, a named guess waveform and a truncated
randomized Fourier correction sum_k [A_k sin(w_k t) + B_k cos(w_k t)]
with w_k = 2 pi (k + r_k) / tau, r_k in [-0.5, 0.5].  Corrections are
multiplied by the fixed boundary window sin^2(pi t / tau), so corrected
controls match the guess exactly at t = 0 and t = tau.  Sampled controls
are clamped to the stored bounds before conversion to angular units.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .units import TWO_PI, mhz_to_angular

OMEGA_MAX_DEFAULT_MHZ = 5.0
DELTA_BOUNDS_DEFAULT_MHZ = (-20.0, 20.0)


def boundary_window(t, tau):
    """sin^2(pi t / tau), pinned to exactly zero at both endpoints."""
    t = np.asarray(t, dtype=float)
    w = np.sin(np.pi * t / tau) ** 2
    w = np.where((t == 0.0) | (t == tau), 0.0, w)
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class Waveform:
    """Named guess waveform; values are ordinary frequencies in MHz."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in ("constant", "cos12_plateau", "linear", "tabulated"):
            raise ValidationError(f"unknown waveform kind {self.kind!r}")
        if self.kind == "tabulated":
            times = np.asarray(self.params["times"], dtype=float)
            if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
                raise ValidationError("tabulated waveform needs strictly increasing times")
            if len(self.params["values"]) != times.size:
                raise ValidationError("tabulated times and values differ in length")

    def __call__(self, t, tau):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full(t.shape, float(self.params["value"]))
        elif self.kind == "cos12_plateau":
            out = float(self.params["amplitude"]) * (1.0 - np.cos(np.pi * t / tau) ** 12)
        elif self.kind == "linear":
            start, stop = float(self.params["start"]), float(self.params["stop"])
            out = start + (stop - start) * t / tau
        else:
            out = np.interp(t, self.params["times"], self.params["values"])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class CrabExpansion:
    """Randomized truncated Fourier correction for one control (MHz)."""

    harmonics: tuple = ()
    r: tuple = ()
    a: tuple = ()
    b: tuple = ()

    def __post_init__(self):
        n = len(self.harmonics)
        if not (len(self.r) == len(self.a) == len(self.b) == n):
            raise ValidationError("crab coefficient arrays must share a length")
        if any(abs(x) > 0.5 for x in self.r):
            raise ValidationError("randomized offsets r_k must lie in [-0.5, 0.5]")

    @property
    def n_terms(self):
        return len(self.harmonics)

    def angular_frequencies(self, tau):
        return np.array(
            [TWO_PI * (k + r) / tau for k, r in zip(self.harmonics, self.r)]
        )

    def correction(self, t, tau):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        if self.n_terms:
            w = self.angular_frequencies(tau)
            phases = np.multiply.outer(t, w)
            out = np.sin(phases) @ np.asarray(self.a) + np.cos(phases) @ np.asarray(self.b)
            out *= boundary_window(t, tau)
        return out if out.ndim else float(out)

    def with_term(self, k, r, a=0.0, b=0.0):
        return CrabExpansion(
            self.harmonics + (int(k),), self.r + (float(r),),
            self.a + (float(a),), self.b + (float(b),),
        )

    def with_last_coefficients(self, a, b):
        if not self.n_terms:
            raise ValidationError("no correction term to update")
        return CrabExpansion(
            self.harmonics, self.r, self.a[:-1] + (float(a),), self.b[:-1] + (float(b),)
        )


@dataclass(frozen=True)
class Pulse:
    """Complete two-control pulse over [0, tau]; tau in microseconds."""

    tau: float
    guess_omega: Waveform
    guess_delta: Waveform
    crab_omega: CrabExpansion = CrabExpansion()
    crab_delta: CrabExpansion = CrabExpansion()
    omega_bounds: tuple = (0.0, OMEGA_MAX_DEFAULT_MHZ)
    delta_bounds: tuple = DELTA_BOUNDS_DEFAULT_MHZ
    seed: int | None = None

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau >= 0):
            raise ValidationError(f"pulse duration must be finite and nonnegative, got {self.tau}")
        if self.omega_bounds[0] < 0 or self.omega_bounds[0] >= self.omega_bounds[1]:
            raise ValidationError(f"bad omega bounds {self.omega_bounds}")
        if self.delta_bounds[0] >= self.delta_bounds[1]:
            raise ValidationError(f"bad delta bounds {self.delta_bounds}")

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > self.tau):
            raise ValidationError(f"sample time outside [0, {self.tau}]")
        return t

    def sample_mhz(self, t):
        """Clamped (omega, delta) in MHz at time(s) t."""
        t = self._check_domain(t)
        omega = np.clip(
            self.guess_omega(t, self.tau) + self.crab_omega.correction(t, self.tau),
            self.omega_bounds[0], self.omega_bounds[1],
        )
        delta = np.clip(
            self.guess_delta(t, self.tau) + self.crab_delta.correction(t, self.tau),
            self.delta_bounds[0], self.delta_bounds[1],
        )
        return omega, delta

    def sample(self, t):
        """Clamped (omega, delta) as angular frequencies in rad/us."""
        omega, delta = self.sample_mhz(t)
        return mhz_to_angular(omega), mhz_to_angular(delta)

    def to_dict(self):
        def waveform_dict(w):
            params = {
                k: (list(map(float, v)) if isinstance(v, (list, tuple, np.ndarray)) else float(v))
                for k, v in w.params.items()
            }
            return {"kind": w.kind, "params": params}

        def crab_dict(c):
            return {
                "harmonics": [int(k) for k in c.harmonics],
                "r": [float(x) for x in c.r],
                "a": [float(x) for x in c.a],
                "b": [float(x) for x in c.b],
            }

        return {
            "format": "rydghz-pulse",
            "version": 1,
            "tau_us": float(self.tau),
            "omega": {
                "guess": waveform_dict(self.guess_omega),
                "crab": crab_dict(self.crab_omega),
                "bounds_mhz": [float(x) for x in self.omega_bounds],
            },
            "delta": {
                "guess": waveform_dict(self.guess_delta),
                "crab": crab_dict(self.crab_delta),
                "bounds_mhz": [float(x) for x in self.delta_bounds],
            },
            "seed": self.seed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data):
        try:
            if data.get("format") != "rydghz-pulse":
                raise ValidationError("not a pulse file (missing format tag)")

            def waveform(d):
                return Waveform(d["kind"], dict(d["params"]))

            def crab(d):
                return CrabExpansion(
                    tuple(d["harmonics"]), tuple(d["r"]), tuple(d["a"]), tuple(d["b"])
                )

            return cls(
                tau=float(data["tau_us"]),
                guess_omega=waveform(data["omega"]["guess"]),
                guess_delta=waveform(data["delta"]["guess"]),
                crab_omega=crab(data["omega"]["crab"]),
                crab_delta=crab(data["delta"]["crab"]),
                omega_bounds=tuple(data["omega"]["bounds_mhz"]),
                delta_bounds=tuple(data["delta"]["bounds_mhz"]),
                seed=data.get("seed"),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed pulse file: {exc}") from exc

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"pulse file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def standard_guess_pulse(
    tau,
    delta_start_mhz=-20.0,
    delta_stop_mhz=20.0,
    omega_max_mhz=OMEGA_MAX_DEFAULT_MHZ,
    delta_bounds=DELTA_BOUNDS_DEFAULT_MHZ,
):
    """Linear detuning sweep with the smooth-plateau drive envelope."""
    return Pulse(
        tau=tau,
        guess_omega=Waveform("cos12_plateau", {"amplitude": omega_max_mhz}),
        guess_delta=Waveform("linear", {"start": delta_start_mhz, "stop": delta_stop_mhz}),
        omega_bounds=(0.0, omega_max_mhz),
        delta_bounds=delta_bounds,
    )


def constant_pulse(tau, omega_mhz, delta_mhz=0.0, omega_max_mhz=None):
    """Square drive at fixed detuning (resonant readout style)."""
    top = max(omega_mhz, OMEGA_MAX_DEFAULT_MHZ) if omega_max_mhz is None else omega_max_mhz
    lo, hi = DELTA_BOUNDS_DEFAULT_MHZ
    bounds = (min(lo, delta_mhz), max(hi, delta_mhz))
    return Pulse(
        tau=tau,
        guess_omega=Waveform("constant", {"value": omega_mhz}),
        guess_delta=Waveform("constant", {"value": delta_mhz}),
        omega_bounds=(0.0, top),
        delta_bounds=bounds,
    )


def tabulated_pulse(tau, times, omega_values_mhz, delta_values_mhz,
                    omega_max_mhz=OMEGA_MAX_DEFAULT_MHZ,
                    delta_bounds=DELTA_BOUNDS_DEFAULT_MHZ):
    times = [float(t) for t in times]
    return Pulse(
        tau=tau,
        guess_omega=Waveform("tabulated", {"times": times, "values": list(map(float, omega_values_mhz))}),
        guess_delta=Waveform("tabulated", {"times": times, "values": list(map(float, delta_values_mhz))}),
        omega_bounds=(0.0, omega_max_mhz),
        delta_bounds=delta_bounds,
    )
