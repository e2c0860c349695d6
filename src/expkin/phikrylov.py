"""Evaluation of phi-function products.

Provides a dense augmented-matrix oracle, a matrix exponential (Taylor,
squared up to TAYLOR_SQUARINGS times, below its cap; Pade 13 above), a
block CGS2 Arnoldi process with a row-major basis, and an
adaptive Krylov evaluator (KIOPS-style: Gaudreault, Rainwater & Tokman,
J. Comput. Phys. 372, 2018) with tau-substepping, whose first basis size
comes from the previous call of its kind (as in phipm: Niesen & Wright,
ACM TOMS 38(3), 2012), for

    w(T) = T^p phi_p(T A) b,    1 <= p <= 3,

at one or more time points T in (0, 1]. The evaluator forms the augmented
matrix once per call, and one Krylov projection per substep serves every
requested time point inside that substep. For small operators `phi_blocks`
gives the phi_1 .. phi_3 matrices themselves from one dense exponential, at
a Taylor degree it names from ||T A||_1.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_PHI_ORDER = 3


def _taylor(theta, m, s):
    """(theta_m, C) of the degree-m Taylor polynomial T_m of exp() for
    `_paterson_stockmeyer` over [I, A, ..., A^s], m = r s: row j of C
    (r, s + 1) holds the coefficients 1/k! of A^(s j) .. A^(s j + s - 1),
    and the last row also 1/m! on A^s."""
    r = m // s
    # int / int is correctly rounded.
    c = [1 / math.factorial(k) for k in range(m + 1)]
    C = np.zeros((r, s + 1))
    for j in range(r):
        C[j, :s] = c[s * j:s * j + s]
    C[-1, s] = c[m]
    C.flags.writeable = False
    return theta, C


# The Taylor degrees m = 2, 4, 6, 9, 12, 16, 20, ascending, each mapped to
# its theta_m, the 1-norm up to which the truncated series' backward error
# stays below unit roundoff (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2),
# 2011, Table 3.1), and its coefficient rows for the s that evaluates it in
# s + m/s - 2 products, the fewest for m.
_TAYLOR = {m: _taylor(theta, m, s) for theta, m, s in (
    (2.580956802971767e-8, 2, 2),
    (3.397168839976962e-4, 4, 2),
    (9.065656407595102e-3, 6, 3),
    (8.957760203223343e-2, 9, 3),
    (2.996158913811581e-1, 12, 4),
    (7.802874256626574e-1, 16, 4),
    (1.438252596804337, 20, 5),
)}


def _phi_reach(m):
    """a_m = ((m+1)! u / 6)^(1/(m-2)), u = 2^-53: up to this ||T A||_1
    the degree-m Taylor polynomial of the `phi_blocks` stack truncates every
    block T^j phi_j(T A) below unit roundoff. Block j keeps the powers of A
    up to A^(m-j), so its relative error is about j! a^(m-j+1) / (m+1)!,
    the largest at j = 3."""
    return (math.factorial(m + 1) * 2.0**-53 / 6) ** (1 / (m - 2))


# The degrees m = 4 .. 16 that `phi_blocks` names: their a_m, ascending,
# and m. Past a_16 `expm` picks the degree from the stack's norm.
_PHI_REACH, _PHI_DEGREES = zip(*((_phi_reach(m), m) for m in _TAYLOR
                                 if 4 <= m < 20))


def _pade13():
    """(theta_13, C) of the degree-13 Pade approximant of exp() (Higham,
    SIAM J. Matrix Anal. Appl. 26(4), 2005): U / A and V as polynomials in
    A^2 over [I, A^2, A^4, A^6], with C's rows chunk-major for
    `_paterson_stockmeyer`: the low chunks of U / A and V, then the
    A^6 factors of U / A and V."""
    b = np.array((64764752532480000.0, 32382376266240000.0,
                  7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                  10559470521600.0, 670442572800.0, 33522128640.0,
                  1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
    C = np.zeros((4, 4))
    C[0], C[1] = b[1:8:2], b[0:7:2]
    C[2, 1:], C[3, 1:] = b[9::2], b[8:13:2]
    C.flags.writeable = False
    return 5.371920351148152, C


_PADE13 = _pade13()
# Above theta_20 a matrix is scaled by a power of two, exponentiated and
# squared back: by the degree-20 Taylor polynomial while the stack's largest
# 1-norm needs at most TAYLOR_SQUARINGS squarings, by the degree-13 Pade
# approximant beyond. Taylor costs less at every norm (no solve) but needs
# about two more squarings (theta_13 / theta_20 = 3.7), each of which
# doubles the rounding error: at 12, recorded Hessenberg stacks of K = 100
# and 250 ignitions stayed within 5.7e-13 of scipy (Pade: 2.2e-13), while
# toy3's 1e6-norm stacks (20 squarings) would be 2.2e-10 off, not 3.2e-11.
TAYLOR_SQUARINGS = 12
_TAYLOR_CAP = math.ldexp(_TAYLOR[20][0], TAYLOR_SQUARINGS)


@functools.lru_cache(maxsize=16)
def _identity(n):
    """The n x n identity, shared and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


class PhiConvergenceError(RuntimeError):
    """A phi evaluation failed: the Krylov process could not reach the
    requested tolerance, or the operator's 1-norm is not finite.

    The message ends with the diagnostics, as `key=value` pairs.
    """

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        if self.diagnostics:
            message += ": " + ", ".join(f"{k}={v:.6g}" for k, v in self.diagnostics.items())
        super().__init__(message)


def expm(A, degree=None):
    """Matrix exponential of one matrix (n, n) or a stack (..., n, n).

    Three tiers, by the stack's largest 1-norm:
    - up to theta_20, the Taylor polynomial of the lowest degree m in 2, 4,
      6, 9, 12, 16, 20 whose theta_m bounds that norm (Al-Mohy & Higham
      2011), in 1 to 7 batched products and no solve (`_taylor_stack`);
    - up to theta_20 2^TAYLOR_SQUARINGS, the degree-20 polynomial with
      scaling and squaring, still with no solve;
    - above, the degree-13 Pade approximant with scaling and squaring
      (Higham 2005), its U / A and V from the same `_paterson_stockmeyer`
      in A^2, then one batched solve.
    In both squared tiers a matrix above the tier's theta is scaled by the
    exponent of its own 1-norm and squared back, so it gets the squarings
    it would get alone. The cap keeps the Taylor tier's extra squarings
    (theta_20 is a quarter of theta_13) off the largest norms, where each
    squaring doubles the rounding error. A matrix whose 1-norm is not
    finite raises PhiConvergenceError.

    `degree`, one of those m, takes that Taylor polynomial with no look at
    the norms: the caller (`phi_blocks`) has bounded them and checked that
    they are finite.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    As = A.reshape(-1, n, n)
    if degree is None:
        norms = np.abs(As).sum(axis=1).max(axis=1).tolist()
        if not all(map(math.isfinite, norms)):
            raise PhiConvergenceError("matrix 1-norm is not finite",
                                      {"norm": max(norms)})
        top = max(norms)
        degree = next((m for m, (theta, _) in _TAYLOR.items()
                       if top <= theta), None)
    if degree is not None:
        return _taylor_stack(As, degree).reshape(A.shape)
    taylor = top <= _TAYLOR_CAP
    theta = _TAYLOR[20][0] if taylor else _PADE13[0]
    s = [math.ceil(math.log2(x / theta)) if x > theta else 0 for x in norms]
    As = As * np.array([0.5**k for k in s]).reshape(-1, 1, 1)
    if taylor:
        F = _taylor_stack(As, 20)
    else:
        W = _paterson_stockmeyer(As @ As, _PADE13[1], 2)
        U, V = As @ W[0], W[1]
        F = np.linalg.solve(V - U, V + U)
    # Square the whole stack as often as every matrix needs, then each
    # matrix that needs more on its own.
    common = min(s)
    for _ in range(common):
        F = F @ F
    for i, k in enumerate(s):
        for _ in range(k - common):
            F[i] = F[i] @ F[i]
    return F.reshape(A.shape)


def _taylor_stack(As, m):
    """T_m of every matrix of the stack As (batch, n, n)."""
    return _paterson_stockmeyer(As, _TAYLOR[m][1])[0]


def _paterson_stockmeyer(B, C, k=1):
    """k polynomials (k, batch, n, n) of every matrix of the stack B by
    Paterson-Stockmeyer: the powers [I, B, ..., B^s] (s + 1 = C's columns)
    in one buffer, every chunk sum from one product with the coefficient
    rows, then Horner in B^s. C is chunk-major: row k j + i holds chunk j
    of polynomial i, p_i(B) = C_i + B^s (C_(k+i) + B^s (...))."""
    s = C.shape[1] - 1
    batch, n = len(B), B.shape[-1]
    P = np.empty((s + 1, batch, n, n))
    P[0] = _identity(n)
    P[1] = B
    for j in range(2, s + 1):
        np.matmul(B, P[j - 1], out=P[j])
    W = (C @ P.reshape(s + 1, -1)).reshape(-1, k, batch, n, n)
    F = W[-1]
    for j in range(len(W) - 2, -1, -1):
        F = W[j] + P[s] @ F
    return F


def _augmented_matrix(A, b, p, nu):
    """[[A, nu b e_0^T], [0, J_p]] of order n + p (J_p: ones on the
    superdiagonal) and its start vector v = e_(n+p-1) / nu, indices from 0:
    the first n entries of exp(T aug) v are T^p phi_p(T A) b."""
    if not 1 <= p <= MAX_PHI_ORDER:
        raise ValueError(f"phi orders 1 to {MAX_PHI_ORDER} supported, got {p}")
    n = A.shape[0]
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = A
    aug[:n, n] = np.multiply(nu, b)
    aug[n:-1, n + 1:] = _identity(p - 1)
    w = np.zeros(n + p)
    w[-1] = 1.0 / nu
    return aug, w


def dense_phi_oracle(A, b, p):
    """phi_p(A) b, 1 <= p <= 3, via one dense exponential of the augmented
    matrix. Intended as a reference at moderate scale (n + p <= 400).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n + p > 400:
        raise ValueError("dense oracle limited to n + p <= 400")
    aug, v = _augmented_matrix(A, b, p, 1.0)
    return (expm(aug) @ v)[:n]


def phi_blocks(A, time_points):
    """The matrices T phi_1(T A), T^2 phi_2(T A), T^3 phi_3(T A) at every T.

    One `expm` call on the stack of T M, where M is the 4n x 4n block matrix
    [[A, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], [0, 0, 0, 0]]: the top block
    row of exp(T M) is [exp(T A), T phi_1(T A), T^2 phi_2(T A), T^3 phi_3(T A)]
    (Van Loan, IEEE TAC 23, 1978; Sidje, ACM TOMS 24, 1998, Thm. 1). Returns
    an array (len(time_points), n, 3n) whose columns k n .. (k+1) n - 1 hold
    T^(k+1) phi_(k+1)(T A), the scaling `kiops_eval` uses.

    The identity blocks hold the stack's 1-norm at T or more, so `expm`'s
    own norm test would take degree 20 however small A is. The top row
    needs less: the lowest degree m in 4 .. 16 whose reach a_m
    (`_phi_reach`) covers ||T A||_1 truncates every block below unit
    roundoff, and `expm` is told that degree. Past a_16 it picks the degree
    from the stack's norm. A matrix whose 1-norm is not finite raises
    PhiConvergenceError, with no overflow warning.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    time_points = tuple(time_points)
    # Column sums in Python floats: one that overflows is inf, silently.
    columns = list(map(sum, np.abs(A).T.tolist()))
    if not all(map(math.isfinite, columns)):
        raise PhiConvergenceError("operator 1-norm is not finite")
    i = bisect.bisect_left(_PHI_REACH,
                           max(time_points) * max(columns, default=0.0))
    degree = _PHI_DEGREES[i] if i < len(_PHI_DEGREES) else None
    shifts, times = _shift_stack(n, time_points)
    stack = shifts.copy()
    np.multiply(times, A, out=stack[:, :n, :n])
    return expm(stack, degree=degree)[:, :n, n:]


@functools.lru_cache(maxsize=64)
def _shift_stack(n, time_points):
    """(stack, times): the stack T M of `phi_blocks` with A = 0 (only the
    T I shift blocks set) and the time points as a (len, 1, 1) column, both
    shared and read-only. A copy of the stack takes T A in its top-left
    blocks."""
    q = MAX_PHI_ORDER
    M = np.zeros(((q + 1) * n, (q + 1) * n))
    M[:q * n, n:] = _identity(q * n)
    stack = np.multiply.outer(time_points, M)
    times = np.reshape(time_points, (-1, 1, 1)).astype(float)
    stack.flags.writeable = times.flags.writeable = False
    return stack, times


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
    """One output vector per requested time point, convergence stats, and
    `m_next`, the first basis size this call suggests to the next call of
    its kind."""

    values: list
    stats: PhiStats
    m_next: int


class Arnoldi:
    """Block classical Gram-Schmidt Arnoldi with one reorthogonalization pass
    (CGS2), extensible in the basis size up to `m_cap`.

    `A` is a dense matrix and `beta` the norm of the starting vector, whose
    direction is `V[0]`. The basis is stored row-major: row j of `V`
    ((m_cap + 1, N), C order) is basis vector j, so every vector and every
    leading block of the basis is contiguous. After `extend(m)`, the rows
    `V[:m]` are orthonormal and `H[:m, :m]` upper-Hessenberg with
    A V[:m].T = V[:m+1].T H[:m+1, :m]. Each new vector is built in its own
    row of `V`, projected out of the basis twice, each time in one block
    product, and `H` takes the sum of the two projections. The process
    stops early on happy breakdown (`happy` set), when the new residual
    falls below 1e-14 max(1, max|H|). No entry of H exceeds ||A||_2, so
    max|H| is read only for a residual at or below 1e-14 max(1, 2 ||A||_F).
    `kiops_eval` first extends it to the size the previous call of its kind
    suggested (its `m_init`).

    `columns` seeds the first iterations: iteration j < len(columns) takes
    A V[j] as column `columns[j]` of A, with no product and no projection.
    The caller vouches that V[j] is the unit vector e_columns[j] and that
    this column of A is zero in the rows columns[0] .. columns[j], so the
    projections it skips are exact zeros (`kiops_eval` passes the last p
    columns of its augmented matrix, from the last: the shift block's,
    then the column of b). For a finite A the basis and H are those of the
    unseeded process, bit for bit.
    """

    def __init__(self, A, v, m_cap, columns=()):
        self.A = np.asarray(A, dtype=float)
        self.columns = columns
        v = np.asarray(v, dtype=float)
        self.beta = math.sqrt(v.dot(v))
        if self.beta == 0:
            raise ValueError("Arnoldi starting vector must be nonzero")
        self.V = np.zeros((m_cap + 1, v.size))
        self.H = np.zeros((m_cap + 1, m_cap + 1))
        self.V[0] = v / self.beta
        self.m = 0
        self.happy = False
        # A residual above this cannot pass the breakdown test. If ||A||_F
        # is not finite, every residual is tested against max|H|.
        a = self.A.ravel()
        norm = math.sqrt(a.dot(a))
        self.floor = (1.0e-14 * max(1.0, 2.0 * norm) if norm < math.inf
                      else math.inf)

    def extend(self, m_target):
        V, H, A, columns = self.V, self.H, self.A, self.columns
        j = self.m
        while j < m_target and not self.happy:
            w = V[j + 1]
            if j < len(columns):
                # The column as a matvec returns it: contiguous, so its norm
                # sums in the product's order, and + 0.0 turns a -0.0 entry
                # into the product's +0.0.
                np.add(A[:, columns[j]], 0.0, out=w)
            else:
                Vj = V[:j + 1]
                # ndarray.dot: the same BLAS products as @ with less dispatch.
                A.dot(V[j], out=w)
                h = Vj.dot(w)
                w -= h.dot(Vj)
                # The second pass keeps the basis orthonormal to rounding
                # error.
                c = Vj.dot(w)
                w -= c.dot(Vj)
                np.add(h, c, out=H[:j + 1, j])
            hnext = math.sqrt(w.dot(w))
            H[j + 1, j] = hnext
            j += 1
            if hnext <= self.floor and hnext <= 1.0e-14 * max(
                    1.0, float(np.abs(H[:j + 1, :j]).max())):
                self.happy = True
                # The residual's row stays zero, as every unused row is.
                w.fill(0.0)
                break
            w /= hnext
        self.m = j


MIN_SUBSTEP = 1.0e-8   # fraction of the full [0, 1] interval
M_INIT = 10            # first basis size of a call given no m_init
M_MAX = 128
EASY_SUCCESS = 0.01    # err below this fraction of the budget doubles tau


def kiops_eval(A, b, p, time_points=(1.0,), tol=1.0e-10, m_init=None):
    """Adaptive Krylov evaluation of w(T) = T^p phi_p(T A) b, 1 <= p <= 3.

    `time_points` is strictly increasing in (0, 1] ending at 1. `m_init`,
    an integer >= 1, is the size of the first basis (M_INIT, read at call
    time, when None); a caller passes the `m_next` of its previous call of
    the same kind.
    Returns a PhiResult with w(T) at every time point, this call's stats and
    its `m_next`, the dimension its last substep converged at, less, for a
    call that rejected no basis (one substep),
    max(1 if err <= EASY_SUCCESS budget else 0, floor(log10(budget / err) / 3))
    (1 for an easy success with err = 0), but at least 1.

    Builds the augmented matrix once, then substeps tau across (0, 1], every
    substep aiming at T = 1.
    Each substep projects the running augmented state onto one Krylov basis
    and advances it with a small dense exponential; every requested time point
    inside the substep is read from that same basis, and each attempt
    exponentiates the substep and its inner time points in one `expm` call,
    so extra time points cost no matvecs. On happy breakdown the basis is
    exact and serves every remaining time point. On an error-budget failure
    the basis is first grown (x4/3 up to M_MAX), then the substep is halved;
    an easy success doubles the next substep. The first basis takes its
    first p vectors from the augmented matrix's columns (`Arnoldi`'s
    `columns`); each still counts as one matvec. A vector b whose 1-norm is
    not finite raises PhiConvergenceError.
    """
    time_points = tuple(float(t) for t in time_points)
    if not time_points or time_points[-1] != 1.0:
        raise ValueError("last time point must equal 1")
    # Written so that a NaN fails too.
    if not (time_points[0] > 0 and all(
            s < t for s, t in zip(time_points, time_points[1:]))):
        raise ValueError("time points must be strictly increasing in (0, 1]")
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    m_init = M_INIT if m_init is None else m_init
    if not (isinstance(m_init, (int, np.integer)) and m_init >= 1):
        raise ValueError(f"first basis size must be an integer >= 1, got {m_init!r}")
    A = np.asarray(A, dtype=float)
    n = A.shape[0]

    # Balance the two blocks of the augmented state (KIOPS-style scaling):
    # scale the b column down by nu and the polynomial block up by 1/nu.
    norm_b = float(np.abs(b).sum())
    # Written so that a NaN fails too.
    if not norm_b < math.inf:
        raise PhiConvergenceError("vector 1-norm is not finite",
                                  {"norm": norm_b})
    nu = 2.0 ** -math.ceil(math.log2(norm_b)) if norm_b > 0 else 1.0
    aug, w = _augmented_matrix(A, b, p, nu)
    # The start vector is e_(n+p-1) and the shift block makes the next ones
    # e_(n+p-2) .. e_n: the first p products are columns of aug.
    columns = range(n + p - 1, n - 1, -1)

    stats = PhiStats(calls=1)
    m = min(m_init, M_MAX)
    values = []
    tau_now = 0.0
    tau = 1.0
    m_cap = min(M_MAX, n + p)

    while tau_now < 1.0:
        hits_end = tau >= 1.0 - tau_now
        tau_try = 1.0 - tau_now if hits_end else tau
        proc = Arnoldi(aug, w, m_cap, columns)
        columns = ()
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
            # A happy breakdown's basis is exact: its error is 0.
            err = (0.0 if proc.happy
                   else beta * proc.H[j, j - 1] * abs(F[0, j - 1, j]))
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
                        diagnostics={"tau": tau_try, "tau_now": tau_now,
                                     "err": err, "m": j, "beta": beta})
        stats.substeps += 1
        stats.max_krylov_dim = max(stats.max_krylov_dim, j)
        stats.matvecs += j
        # F[0]'s top-left block advances the state to the substep's end, the
        # other exponentials reach the inner time points: one product each,
        # so w does not depend on how many there are.
        basis = proc.V[:j]
        w, *reached = [(beta * F_T[:j, 0]).dot(basis) for F_T in F]
        values.extend(v[:n] for v in reached)
        if len(values) < len(time_points) and time_points[len(values)] == tau_end:
            values.append(w[:n])
        tau_now = tau_end
        tau = 2.0 * tau_try if easy else tau_try

    # A call with no rejection made one substep: shrink from its dimension
    # by the slack of that substep's error below its budget. An error of 0
    # (a happy breakdown, or an estimate that underflowed) bounds no slack,
    # so it counts as an easy success by the smallest margin.
    m_next = j
    if easy and not stats.rejections:
        slack = (math.log10(budget) - math.log10(err)) // 3 if err > 0 else 1
        # NaN (an overflowed beta made the budget inf) shrinks by one too.
        m_next = max(1, j - (int(slack) if slack > 1 else 1))
    return PhiResult(values=values, stats=stats, m_next=m_next)
