"""HBVM(k,s) Butcher tableau via the generalized W-transformation.

The Runge-Kutta matrix is A = P_{s+1} Xhat_s P_s^T Omega, where P_r collects
the orthonormal Legendre basis evaluated at the k Gauss nodes, Xhat_s is a
tridiagonal-plus-last-row matrix built from the xi_i coefficients and
Omega = diag(b) is the diagonal matrix of quadrature weights. Omega is never
formed: a product with it scales columns by the weights b. For k = s this
reduces to the classical s-stage Gauss-Legendre collocation method. The
tableau also carries the eigendecomposition of X_s that block-diagonalises
simplified Newton.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polybasis import QuadratureRule, gauss_rule, legendre_basis, require_integer, xi

__all__ = ["HbvmTableau", "XsEigen", "build_Xhat", "leading_Xs", "xs_eigen", "det_Xs",
           "build_tableau"]


@dataclass(frozen=True)
class XsEigen:
    """X_s = V diag(lam) V^{-1}, keeping one eigenvalue of each conjugate pair.

    The real eigenvalues come first. X_s is real, so the dropped partner of a
    kept complex lam_j has eigenvector conj(V_j) and row conj(Vinv_j) of
    V^{-1}. A sum of terms V_j z_j over all eigenvalues, with z_j conjugated
    along with lam_j, is the sum over the real ones plus 2 Re of the sum over
    the pairs.
    """
    lam: np.ndarray   # r = ceil(s/2) kept eigenvalues, complex
    V: np.ndarray     # s x r: their columns of V
    Vinv: np.ndarray  # r x s: the matching rows of V^{-1}
    real: np.ndarray  # r flags: lam_j is real


@dataclass(frozen=True)
class HbvmTableau:
    k: int
    s: int
    rule: QuadratureRule
    A: np.ndarray      # k x k
    Xhat: np.ndarray   # (s+1) x s
    W: np.ndarray      # k x s, P_{s+1} Xhat: stage values from gamma
    M: np.ndarray      # s x k, P_s^T Omega: gamma from stage slopes
    eig: XsEigen       # eigendecomposition of X_s, for simplified Newton

    @property
    def c(self):
        return self.rule.nodes

    @property
    def b(self):
        return self.rule.weights


def build_Xhat(s):
    """The (s+1) x s matrix Xhat_s: entry (0,0) = 1/2, subdiagonal xi_1..xi_s,
    superdiagonal -xi_1..-xi_{s-1}."""
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    X = np.zeros((s + 1, s))
    X[0, 0] = 0.5
    for i in range(1, s + 1):
        X[i, i - 1] = xi(i)
    for i in range(1, s):
        X[i - 1, i] = -xi(i)
    return X


def leading_Xs(s):
    """Leading s x s block X_s of Xhat_s."""
    return build_Xhat(s)[:s, :]


def xs_eigen(s):
    """The XsEigen of X_s; V^{-1} is inverted from the full V with the pair
    partners set to exact conjugates, so the kept rows pair up exactly too."""
    lam, V = np.linalg.eig(leading_Xs(s))
    lam, V = lam.astype(complex), V.astype(complex)
    real = lam.imag == 0  # LAPACK's geev returns exact zeros for real eigenvalues
    keep = np.concatenate([np.flatnonzero(real), np.flatnonzero(lam.imag > 0)])
    Vk, nreal = V[:, keep], int(real.sum())
    Vinv = np.linalg.inv(np.hstack([Vk, Vk[:, nreal:].conj()]))[:len(keep)]
    return XsEigen(lam=lam[keep], V=Vk, Vinv=Vinv, real=real[keep])


def det_Xs(s):
    """Closed-form determinant of X_s (Laplace expansion):
    prod xi_{2i-1}^2 for even s, (1/2) prod xi_{2i}^2 for odd s."""
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if s % 2 == 0:
        return float(np.prod([xi(2 * i - 1) ** 2 for i in range(1, s // 2 + 1)]))
    return float(0.5 * np.prod([xi(2 * i) ** 2 for i in range(1, s // 2 + 1)]))


def build_tableau(k, s):
    """Assemble the HBVM(k,s) tableau at the k Gaussian abscissae."""
    require_integer("k", k)
    require_integer("s", s)
    if s < 1 or k < s:
        raise ValueError(f"require k >= s >= 1, got k={k}, s={s}")
    rule = gauss_rule(k)
    Ps1 = legendre_basis(rule.nodes, s + 1)
    Ps = Ps1[:, :s]
    Xhat = build_Xhat(s)
    W = Ps1 @ Xhat
    A = (W @ Ps.T) * rule.weights  # == W @ Ps.T @ Omega
    M = Ps.T * rule.weights        # == Ps.T @ Omega
    return HbvmTableau(k=k, s=s, rule=rule, A=A, Xhat=Xhat, W=W, M=M, eig=xs_eigen(s))
