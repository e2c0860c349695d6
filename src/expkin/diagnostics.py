"""Jacobian spectrum diagnostics and per-step cost metrics.

The spectrum of the step Jacobian is summarized by the axis-aligned bounding
rectangle of its eigenvalues in the complex plane: real spread alpha,
imaginary spread beta, and area omega = alpha * beta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectrumStats:
    t: float
    alpha: float
    beta: float
    omega: float
    max_real: float


def spectrum_bounds(eigs, t=0.0):
    """Bounding-rectangle statistics of an eigenvalue list."""
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.size == 0:
        raise ValueError("eigenvalue list must be non-empty")
    re = eigs.real
    im = eigs.imag
    alpha = float(re.max() - re.min())
    beta = float(im.max() - im.min())
    return SpectrumStats(t=float(t), alpha=alpha, beta=beta,
                         omega=alpha * beta, max_real=float(re.max()))


def jacobian_spectrum(J, t=0.0):
    """Bounding-rectangle statistics of the eigenvalues of a dense J (LAPACK
    via `np.linalg.eigvals`, which raises `np.linalg.LinAlgError` when its QR
    iteration does not converge)."""
    return spectrum_bounds(np.linalg.eigvals(J), t=t)


def normalized_step_cost(record):
    """CPU seconds spent on a step divided by the simulated time it advanced."""
    if not (record.h > 0):
        raise ValueError("step size must be positive")
    return (record.cpu_ns * 1.0e-9) / record.h
