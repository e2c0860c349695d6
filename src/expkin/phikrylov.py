"""Evaluation of phi-function linear combinations.

Provides a dense augmented-matrix oracle, a Pade matrix exponential, a
block CGS2 Arnoldi process, and an adaptive Krylov evaluator (KIOPS-style:
Gaudreault, Rainwater & Tokman, J. Comput. Phys. 372, 2018) with
tau-substepping for

    w(T) = phi_0(T A) b_0 + sum_k T^k phi_k(T A) b_k

at one or more time points T in (0, 1]. The evaluator forms the augmented
matrix once per call. An augmented matrix no larger than the first Krylov
basis is exponentiated directly; otherwise one Krylov projection per substep
serves every requested time point inside that substep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_PHI_ORDER = 3

# Degree-13 Pade approximation of exp(): coefficients and the 1-norm bound
# below which no squaring is needed.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


class PhiConvergenceError(RuntimeError):
    """Krylov evaluation could not reach the requested tolerance.

    The message ends with the diagnostics, as `key=value` pairs.
    """

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        if self.diagnostics:
            message += ": " + ", ".join(f"{k}={v:.6g}" for k, v in self.diagnostics.items())
        super().__init__(message)


def expm(A):
    """Matrix exponential by degree-13 Pade with scaling and squaring.

    `A` is one matrix (n, n) or a stack (..., n, n), exponentiated with
    batched products and one batched solve. Each matrix is scaled by the
    exponent of its own 1-norm, so it gets the result it would get alone.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    norms = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0).ravel().tolist()
    s = [max(0, math.ceil(math.log2(x / _PADE13_THETA))) if x > _PADE13_THETA else 0
         for x in norms]
    As = A * np.reshape([0.5**k for k in s], A.shape[:-2] + (1, 1))
    b = _PADE13_B
    I = np.eye(n)
    A2 = As @ As
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = As @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    )
    F = np.linalg.solve(V - U, V + U)
    # Square the whole stack as often as every matrix needs, then each
    # matrix that needs more on its own.
    common = min(s)
    for _ in range(common):
        F = F @ F
    F = F.reshape(len(s), n, n)
    for i, k in enumerate(s):
        for _ in range(k - common):
            F[i] = F[i] @ F[i]
    return F.reshape(A.shape)


def _augmented_matrix(A, bs, nu):
    """Block matrix [[A, nu B], [0, J_p]] with B columns b_p .. b_1 (a None
    b is a zero column), and its starting vector [b_0, 0, ..., 0, 1/nu]
    (a None b_0 is zero)."""
    n = A.shape[0]
    p = len(bs) - 1
    if p < 1:
        raise ValueError("need at least b_0 and b_1")
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = A
    for col, b in enumerate(bs[:0:-1]):
        if b is not None:
            aug[:n, n + col] = np.multiply(nu, b)
    for i in range(p - 1):
        aug[n + i, n + i + 1] = 1.0
    w = np.zeros(n + p)
    if bs[0] is not None:
        w[:n] = bs[0]
    # The last entry stays 1/nu, so the state never vanishes.
    w[-1] = 1.0 / nu
    return aug, w


def dense_phi_oracle(A, bs):
    """sum_k phi_k(A) b_k via one dense exponential of the augmented matrix.

    `bs` is the list [b_0, ..., b_p] with p >= 1; entries may be None
    (treated as zero).
    Intended as a reference at moderate scale (n + p <= 400).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    p = len(bs) - 1
    if n + p > 400:
        raise ValueError("dense oracle limited to n + p <= 400")
    aug, v = _augmented_matrix(A, bs, 1.0)
    return (expm(aug) @ v)[:n]


@dataclass
class PhiStats:
    """Krylov work counts of one or more phi evaluations.

    `calls` counts evaluations begun: a caller that sums several calls bumps
    it before each call and adds the call's work with `add_work` after it, so
    a call that raised is still counted.
    """

    calls: int = 0
    substeps: int = 0
    matvecs: int = 0
    max_krylov_dim: int = 0
    rejections: int = 0

    def add_work(self, other):
        self.substeps += other.substeps
        self.matvecs += other.matvecs
        self.max_krylov_dim = max(self.max_krylov_dim, other.max_krylov_dim)
        self.rejections += other.rejections


@dataclass
class PhiResult:
    """One output vector per requested time point, plus convergence stats."""

    values: list
    stats: PhiStats = field(default_factory=PhiStats)


class Arnoldi:
    """Block classical Gram-Schmidt Arnoldi with one reorthogonalization pass
    (CGS2), extensible in the basis size up to `m_cap`.

    `A` is a dense matrix and `beta` the norm of the starting vector, whose
    direction is `V[:, 0]`. After `extend(m)`, `V[:, :m]` is orthonormal and
    `H[:m, :m]` upper-Hessenberg with A V_m = V_{m+1} H[:m+1, :m]. Each new
    vector is projected out of the basis twice, each time in one block
    product, and `H` takes the sum of the two projections. The process stops
    early on happy breakdown (`happy` set), when the new residual falls below
    1e-14 max|H|.
    """

    def __init__(self, A, v, m_cap):
        self.matvec = np.asarray(A, dtype=float).dot
        v = np.asarray(v, dtype=float)
        self.beta = float(np.linalg.norm(v))
        if self.beta == 0:
            raise ValueError("Arnoldi starting vector must be nonzero")
        self.V = np.zeros((v.size, m_cap + 1))
        self.H = np.zeros((m_cap + 1, m_cap + 1))
        self.V[:, 0] = v / self.beta
        self.m = 0
        self.happy = False

    def extend(self, m_target):
        while self.m < m_target and not self.happy:
            j = self.m
            Vj = self.V[:, :j + 1]
            w = self.matvec(self.V[:, j])
            h = Vj.T @ w
            w -= Vj @ h
            # The second pass keeps the basis orthonormal to rounding error.
            c = Vj.T @ w
            w -= Vj @ c
            self.H[:j + 1, j] = h + c
            hnext = float(np.linalg.norm(w))
            self.H[j + 1, j] = hnext
            self.m = j + 1
            scale = max(1.0, float(np.abs(self.H[: j + 2, : j + 1]).max()))
            if hnext <= 1.0e-14 * scale:
                self.happy = True
            else:
                self.V[:, j + 1] = w / hnext


MIN_SUBSTEP = 1.0e-8   # fraction of the full [0, 1] interval
M_INIT = 10
M_MAX = 128
EASY_SUCCESS = 0.01    # err below this fraction of the budget doubles tau


def kiops_eval(A, bs, time_points=(1.0,), tol=1.0e-10):
    """Adaptive Krylov evaluation of w(T) = phi_0(T A) b_0 + sum_k T^k phi_k(T A) b_k.

    `bs` is the list [b_0, ..., b_p], 1 <= p <= 3 (entries may be None for
    zero vectors, which cost no work); `time_points` is strictly increasing
    in (0, 1] ending at 1.
    Returns a PhiResult with w(T) at every time point and this call's stats.

    Builds the augmented matrix once. When its size n + p is at most the
    first basis size min(M_INIT, M_MAX), a basis would span the whole space,
    so the call exponentiates the augmented matrix directly, at every time
    point in one `expm` call (recorded as one substep of dimension n + p and
    no matvecs).

    Otherwise it substeps tau across (0, 1], every substep aiming at T = 1.
    Each substep projects the running augmented state onto one Krylov basis
    and advances it with a small Pade exponential; every requested time point
    inside the substep is read from that same basis, and each attempt
    exponentiates the substep and its inner time points in one `expm` call,
    so extra time points cost no matvecs. On happy breakdown the basis is
    exact and serves every remaining time point. On an error-budget failure
    the basis is first grown (x4/3 up to M_MAX), then the substep is halved;
    an easy success doubles the next substep.
    """
    time_points = tuple(float(t) for t in time_points)
    p = len(bs) - 1
    if not 1 <= p <= MAX_PHI_ORDER:
        raise ValueError(f"phi orders 1 to {MAX_PHI_ORDER} supported, got {p}")
    if not time_points or time_points[-1] != 1.0:
        raise ValueError("last time point must equal 1")
    if any(t <= 0 for t in time_points) or any(
            b <= a for a, b in zip(time_points, time_points[1:])):
        raise ValueError("time points must be strictly increasing in (0, 1]")
    if not (tol > 0):
        raise ValueError("tolerance must be positive")
    A = np.asarray(A, dtype=float)
    n = A.shape[0]

    # Balance the two blocks of the augmented state (KIOPS-style scaling):
    # scale the b columns down by nu and the polynomial block up by 1/nu.
    norm_b = max((float(np.abs(b).sum()) for b in bs[1:] if b is not None),
                 default=0.0)
    if norm_b > 0:
        nu = 2.0 ** -math.ceil(math.log2(norm_b))
    else:
        nu = 1.0
    aug, w = _augmented_matrix(A, bs, nu)

    stats = PhiStats(calls=1)
    m = min(M_INIT, M_MAX)
    if n + p <= m:
        # The first basis would span the whole augmented space, so the
        # Krylov path could only end in happy breakdown: exponentiate the
        # augmented matrix itself, at every time point in one call.
        stats.substeps = 1
        stats.max_krylov_dim = n + p
        W = expm(np.multiply.outer(time_points, aug)) @ w
        return PhiResult(values=list(W[:, :n]), stats=stats)

    values = []
    tau_now = 0.0
    tau = 1.0
    m_cap = min(M_MAX, n + p)

    while tau_now < 1.0:
        hits_end = tau >= 1.0 - tau_now
        tau_try = 1.0 - tau_now if hits_end else tau
        proc = Arnoldi(aug, w, m_cap)
        beta = proc.beta
        while True:
            proc.extend(min(m, m_cap))
            j = proc.m
            if proc.happy:
                hits_end = True
                tau_try = 1.0 - tau_now
                Hx = proc.H[:j, :j]
            else:
                # Error-estimate column: H extended with a phi_1 coupling
                # column; the bottom entry of its exponential gives the
                # residual.
                Hx = np.zeros((j + 1, j + 1))
                Hx[:j, :j] = proc.H[:j, :j]
                Hx[0, j] = 1.0
            tau_end = 1.0 if hits_end else tau_now + tau_try
            # One exponential for the substep and every requested time point
            # strictly inside it: the top-left j x j block of exp(c Hx) is
            # exp(c H).
            inner = [T - tau_now for T in time_points[len(values):] if T < tau_end]
            F = expm(np.multiply.outer([tau_try, *inner], Hx))
            if proc.happy:
                easy = True
                break
            err = beta * proc.H[j, j - 1] * abs(F[0, j - 1, j])
            budget = tol * beta * tau_try
            if err <= budget:
                easy = err <= EASY_SUCCESS * budget
                break
            stats.rejections += 1
            if m < m_cap:
                m = min(m_cap, max(m + 1, int(math.ceil(4.0 * m / 3.0))))
            else:
                hits_end = False
                tau_try = 0.5 * tau_try
                if tau_try < MIN_SUBSTEP:
                    raise PhiConvergenceError(
                        "Krylov substep underflow before reaching tolerance",
                        diagnostics={
                            "tau": tau_try, "tau_now": tau_now, "err": err,
                            "m": j, "beta": beta,
                        },
                    )
        stats.substeps += 1
        stats.max_krylov_dim = max(stats.max_krylov_dim, j)
        stats.matvecs += j
        basis = beta * proc.V[:, :j]
        values.extend((basis @ F_T[:j, 0])[:n] for F_T in F[1:])
        # The top-left block of F[0] advances the state to the substep's end.
        w = basis @ F[0, :j, 0]
        if len(values) < len(time_points) and time_points[len(values)] == tau_end:
            values.append(w[:n].copy())
        tau_now = tau_end
        tau = 2.0 * tau_try if easy else tau_try

    return PhiResult(values=values, stats=stats)
