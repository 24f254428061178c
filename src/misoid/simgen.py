"""Synthetic MISO systems, collinear input processes, and noisy outputs.

Systems are random rational transfer functions sharing one stable
denominator; impulse responses are obtained by long division (filtering a
unit impulse) and must hold at least 99% of their energy inside the FIR
truncation window, otherwise the offending channel is redrawn.

Collinear inputs are built as a chain ``u_{i+1} = u_i + r`` where ``r`` is a
first-order moving-average noise.  The chain noise amplitude for a target
link correlation ``c`` against a unit-variance source follows

    gamma**2 = (1 - ma**2) * (1 / c**2 - 1),

and the realized noise is scaled so that each link's correlation matches
this relation exactly (see gamma_for_target_c / generate_inputs).

``scipy.signal`` loads on the first filter, not on import, so the commands
that never generate data do not pay for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .regression import Dataset


@dataclass(frozen=True)
class RandomSystemSpec:
    """Shape of the random transfer-function bank."""

    m: int
    fir_order: int
    denominator_degree: int = 5
    pole_radius_max: float = 0.9
    pole_radius_min: float = 0.4

    def __post_init__(self):
        if self.m < 1 or self.fir_order < 1 or self.denominator_degree < 0:
            raise ValueError("channel count, FIR order must be positive; "
                             "denominator degree nonnegative")
        if not 0.0 < self.pole_radius_max < 1.0:
            raise ValueError("maximum pole radius must lie in (0, 1)")
        if not 0.0 <= self.pole_radius_min <= self.pole_radius_max:
            raise ValueError("pole radius bounds out of order")


@dataclass(frozen=True)
class CollinearInputSpec:
    """Shape of the input bank: a correlated chain plus independent channels."""

    m: int
    n: int
    correlated_prefix: int = 0
    target_c: float = 0.99
    ma_coefficient: float = 0.8
    duplicate: bool = False

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need at least one channel and one sample")
        if self.correlated_prefix > self.m:
            raise ValueError("correlated prefix exceeds the channel count")
        if self.correlated_prefix > 1 and not 0.0 < self.target_c < 1.0:
            raise ValueError("target correlation must lie in (0, 1)")
        if self.duplicate and self.m < 2:
            raise ValueError("duplicate mode needs at least two channels")


@dataclass(frozen=True)
class SyntheticSystem:
    """Transfer-function bank with FIR-truncated impulse responses."""

    numerators: np.ndarray    # (m, n_b)
    denominator: np.ndarray   # (degree + 1,)
    poles: np.ndarray         # (degree,) complex
    responses: np.ndarray     # (m, fir_order), unit peak magnitude

    @property
    def m(self) -> int:
        return self.responses.shape[0]

    @property
    def fir_order(self) -> int:
        return self.responses.shape[1]


def _draw_stable_poles(spec: RandomSystemSpec,
                       rng: np.random.Generator) -> np.ndarray:
    poles = []
    for _ in range(spec.denominator_degree // 2):
        radius = rng.uniform(spec.pole_radius_min, spec.pole_radius_max)
        phase = rng.uniform(0.0, np.pi)
        poles.append(radius * np.exp(1j * phase))
        poles.append(radius * np.exp(-1j * phase))
    if spec.denominator_degree % 2:
        radius = rng.uniform(spec.pole_radius_min, spec.pole_radius_max)
        poles.append(complex(radius if rng.random() < 0.5 else -radius))
    return np.asarray(poles, dtype=complex)


def _impulse_response(num: np.ndarray, den: np.ndarray,
                      horizon: int) -> np.ndarray:
    # imported here, not at module level: scipy.signal takes about a second
    # to import (2-vCPU machine), and only the data generator filters
    from scipy.signal import lfilter

    pulse = np.zeros(horizon)
    pulse[0] = 1.0
    return lfilter(num, den, pulse)


def generate_system(spec: RandomSystemSpec, rng: np.random.Generator,
                    max_attempts: int = 50) -> SyntheticSystem:
    """Draw a random stable system bank; redraw channels whose truncated
    tail beyond the FIR window carries 1% or more of the response energy."""
    p = spec.fir_order
    horizon = max(4 * p, 256)
    n_b = max(spec.denominator_degree, 1)

    for _ in range(max_attempts):
        poles = _draw_stable_poles(spec, rng)
        den = np.real(np.poly(poles)) if poles.size else np.array([1.0])
        numerators = np.empty((spec.m, n_b))
        responses = np.empty((spec.m, p))
        bank_ok = True
        for k in range(spec.m):
            channel_ok = False
            for _ in range(25):
                num = rng.standard_normal(n_b)
                full = _impulse_response(num, den, horizon)
                total = float(np.dot(full, full))
                if total <= 0.0:
                    continue
                tail = float(np.dot(full[p:], full[p:]))
                if tail >= 0.01 * total:
                    continue
                peak = full[int(np.argmax(np.abs(full)))]
                numerators[k] = num / peak
                responses[k] = full[:p] / peak
                channel_ok = True
                break
            if not channel_ok:
                bank_ok = False
                break
        if bank_ok:
            return SyntheticSystem(numerators=numerators, denominator=den,
                                   poles=poles, responses=responses)
    raise RuntimeError(
        "system regeneration limit exceeded; the pole/order specification "
        "cannot satisfy the FIR tail-energy bound"
    )


def gamma_for_target_c(target_c: float, ma_coefficient: float,
                       source_variance: float) -> float:
    """Chain-noise amplitude for a target link correlation.

    Inverts ``c = 1 / sqrt(1 + gamma**2 / ((1 - ma**2) * var_source))``.
    """
    if not 0.0 < target_c < 1.0:
        raise ValueError(f"target correlation must lie in (0, 1), got {target_c}")
    if not abs(ma_coefficient) < 1.0:
        raise ValueError("moving-average coefficient must have modulus < 1")
    if not source_variance > 0.0:
        raise ValueError("source variance must be positive")
    return float(np.sqrt(
        (1.0 - ma_coefficient ** 2) * (1.0 / target_c ** 2 - 1.0)
        * source_variance
    ))


def generate_inputs(spec: CollinearInputSpec,
                    rng: np.random.Generator) -> np.ndarray:
    """Input bank: white Gaussian channels, chained over the correlated prefix.

    Chain links add a moving-average noise ``v(t) - ma * v(t-1)`` whose
    innovation is scaled so the realized link-noise variance equals
    ``gamma**2 / (1 - ma**2)`` -- the variance the gamma/correlation relation
    in :func:`gamma_for_target_c` presumes.  In duplicate mode the second
    channel is an exact copy of the first.
    """
    u = rng.standard_normal((spec.m, spec.n))
    if spec.duplicate:
        u[1] = u[0]
        return u
    if spec.correlated_prefix > 1:
        ma = spec.ma_coefficient
        gamma = gamma_for_target_c(spec.target_c, ma, 1.0)
        innovation_sd = gamma / np.sqrt((1.0 - ma ** 2) * (1.0 + ma ** 2))
        for i in range(spec.correlated_prefix - 1):
            v = innovation_sd * rng.standard_normal(spec.n + 1)
            u[i + 1] = u[i] + (v[1:] - ma * v[:-1])
    return u


def synthesize_dataset(system: SyntheticSystem, inputs: np.ndarray,
                       noise_variance: float,
                       rng: np.random.Generator) -> Dataset:
    """Filter each input through its channel (starting at rest) and add
    white Gaussian measurement noise."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[0] != system.m:
        raise ValueError(
            f"{system.m} input channels expected, got {inputs.shape[0]}"
        )
    if noise_variance < 0.0:
        raise ValueError("noise variance must be nonnegative")
    from scipy.signal import lfilter  # see _impulse_response

    n = inputs.shape[1]
    y = np.zeros(n)
    for k in range(system.m):
        y += lfilter(system.numerators[k], system.denominator, inputs[k])
    if noise_variance > 0.0:
        y += np.sqrt(noise_variance) * rng.standard_normal(n)
    return Dataset(y=y, inputs=inputs)


def write_truth_json(path, system: SyntheticSystem, noise_variance: float,
                     gamma: float | None = None,
                     achieved_correlations: np.ndarray | None = None) -> None:
    """Ground-truth sidecar for scoring identification runs."""
    doc = {
        "fir_order": system.fir_order,
        "responses": system.responses.tolist(),
        "numerators": system.numerators.tolist(),
        "denominator": system.denominator.tolist(),
        "poles": [[z.real, z.imag] for z in system.poles],
        "noise_variance": noise_variance,
        "gamma": gamma,
        "achieved_correlations": (
            None if achieved_correlations is None
            else np.asarray(achieved_correlations).tolist()
        ),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_truth_json(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    doc["responses"] = np.asarray(doc["responses"], dtype=float)
    return doc
