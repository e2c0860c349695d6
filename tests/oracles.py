"""Independent references the tests check expkin against.

None of these runs in `expkin` itself: the scalar phi functions (in double
precision and at 40 digits), the embedded exponential-Euler step and a
fixed-step EPI3V march, a central-difference Jacobian, and a CSV reader for
the files `expkin.mechio.write_csv` writes. They use only public names of
the package.
"""
import csv
import math

import mpmath
import numpy as np

from expkin import phikrylov
from expkin.integrator import epi3v_step
from expkin.kinetics import InvalidStateError, KineticsError

PHI_TAYLOR_CUTOFF = 0.5      # |z| below which the Taylor series is used
PHI_TAYLOR_TERMS = 30


def phi_scalar(k, z):
    """phi_k(z) for k in 0..3; phi_0 = exp, phi_{k+1}(z) = (phi_k(z) - 1/k!)/z."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"phi order {k} not supported")
    z = float(z)
    if k == 0:
        return math.exp(z)
    if abs(z) < PHI_TAYLOR_CUTOFF:
        # phi_k(z) = sum_j z^j / (j + k)!
        acc = 0.0
        term = 1.0 / math.factorial(k)
        for j in range(PHI_TAYLOR_TERMS):
            acc += term
            term *= z / (j + k + 1)
        return acc
    if k == 1:
        return (math.exp(z) - 1.0) / z
    if k == 2:
        return (math.exp(z) - 1.0 - z) / z**2
    return (math.exp(z) - 0.5 * z**2 - z - 1.0) / z**3


def phi_mp(k, z):
    """phi_k at 40 digits via the defining recurrence."""
    with mpmath.workdps(40):
        z = mpmath.mpf(repr(z))
        val = mpmath.exp(z)
        for j in range(1, k + 1):
            val = (val - 1 / mpmath.factorial(j - 1)) / z
        return float(val)


def exp_euler_step(y, h, F, J, krylov_tol=1.0e-12):
    """Embedded first-stage method: y + h phi_1(h J) F.

    The adaptive march does not call it; the tests use it as the reference
    for the embedded error estimate (EPI3V minus this step).
    """
    res = phikrylov.kiops_eval(h * J, [None, h * F], tol=krylov_tol)
    return y + res.values[0]


def integrate_fixed(y0, t0, t_final, n_steps, problem, krylov_tol=1.0e-12):
    """n_steps equal EPI3V steps; controller bypassed. Returns the final state."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    h = (t_final - t0) / n_steps
    y = np.asarray(y0, dtype=float).copy()
    for _ in range(n_steps):
        F, J = problem.jac(y)
        y, _, _ = epi3v_step(y, h, F, J, problem, np.ones(len(y)),
                             krylov_tol=krylov_tol)
    return y


def fd_jacobian(f, y, typical=None, step=None):
    """Dense central-difference Jacobian of f at y, the oracle for
    rhs_and_jacobian().

    Perturbation per component: step * max(|y_j|, typical_j), with step
    sqrt(machine eps) by default. Falls back to a one-sided difference if a
    perturbed evaluation fails.

    Valid only at interior states: rhs_vector reads mass fractions in
    [-Y_NEG_TOL, 0) as 0, so at a species with Y_k = 0 the backward point
    lands in that clip and the central difference halves the column. The
    exact derivative there is the one-sided forward difference.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if typical is None:
        typical = np.ones(n)
    if step is None:
        step = np.sqrt(np.finfo(float).eps)
    f0 = None
    J = np.empty((n, n))
    for j in range(n):
        delta = step * max(abs(y[j]), typical[j])
        yp = y.copy()
        ym = y.copy()
        yp[j] += delta
        ym[j] -= delta
        try:
            J[:, j] = (f(yp) - f(ym)) / (2 * delta)
        except KineticsError:
            if f0 is None:
                f0 = f(y)
            try:
                J[:, j] = (f(yp) - f0) / delta
            except KineticsError:
                J[:, j] = (f0 - f(ym)) / delta
    if not np.all(np.isfinite(J)):
        raise InvalidStateError("non-finite Jacobian entry")
    return J


def read_csv(path):
    """Read back a CSV written by write_csv; numeric fields become floats."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for row in reader:
            parsed = []
            for cell in row:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(cell)
            rows.append(parsed)
    return header, rows
