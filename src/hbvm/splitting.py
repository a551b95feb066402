"""Auxiliary abscissae and the constant-diagonal LU splitting.

Evaluating the degree-(s-1) polynomial of stage coefficients at s auxiliary
abscissae chat_i defines a change of unknowns Phat; the transformed matrix
Ahat = Phat X_s Phat^{-1} then factors as Ahat = L U with unit-diagonal U and
all diagonal entries of L equal to a single constant d_s. The abscissae that
make this work are shipped as high-precision constants (they solve s-1
algebraic determinant conditions coupled with a minimization of the maximum
amplification factor; re-deriving them is out of scope, verifying them is
not -- see verify_conditions).

SplittingData also carries T = L (U - I): the splitting's inner sweeps apply
h T (x) B, and hbvm.convergence studies Z(q) = q (I - q L)^{-1} T.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lu import LU, lu_factor
from .polybasis import legendre_basis, require_integer
from .tableau import det_Xs, leading_Xs

__all__ = [
    "MAX_S",
    "SplittingData",
    "crout_lu_constant_diag",
    "build_splitting",
    "verify_conditions",
]

# Tabulated auxiliary abscissae, s = 1..6; for s = 1 any abscissa gives Phat = [[1]].
# The s = 6 entries are deliberately non-monotone: the printed order fixes Phat's rows.
_AUX_ABSCISSAE = {
    1: [1.0],
    2: [0.26036297108184508789101036587842555, 1.0],
    3: [0.15636399930006671060146617869938122,
        0.45431868644630821020177903150137523,
        0.948],
    4: [0.11004843257056123468614502691988075,
        0.31588689139705398683980065724981436,
        0.53114668286639796587351917750274705,
        0.884],
    5: [0.084221784434612320884185541600934218,
        0.248618520588562018051811779022293944,
        0.413725268815220956415498643302145284,
        0.587098748971877116030882436751962384,
        0.9338],
    6: [0.20985774196263657630356114041757724,
        0.36816786358152563671526302698797908,
        0.39607328223635472401921951140390213,
        0.62783521091780460858476326939502046,
        0.04580307227138364391540767310611717,
        0.94225],
}
MAX_S = max(_AUX_ABSCISSAE)  # the largest s with abscissae: the splitting's limit

# how far an L_ii may deviate from d_s before the constants count as corrupted
_DIAG_TOL = 1e-9


@dataclass(frozen=True)
class SplittingData:
    s: int
    chat: np.ndarray  # auxiliary abscissae, length s
    Phat: np.ndarray  # s x s, entries P_{j-1}(chat_i)
    Ahat: np.ndarray  # s x s, Phat X_s Phat^{-1}
    L: np.ndarray     # lower triangular, constant diagonal d
    U: np.ndarray     # unit upper triangular
    d: float
    Phat_lu: LU = field(init=False, repr=False)     # lu_factor(Phat), made once
    T: np.ndarray = field(init=False, repr=False)   # L (U - I), made once

    def __post_init__(self):
        object.__setattr__(self, "Phat_lu", lu_factor(self.Phat))
        object.__setattr__(self, "T", self.L @ (self.U - np.eye(self.s)))


def crout_lu_constant_diag(Ahat, d):
    """Crout LU factorization without pivoting: Ahat = L U, U unit diagonal.

    The constant diagonal of L is *not* enforced; it is asserted post-hoc
    that every L_ii equals d (that being the defining property of the
    auxiliary abscissae). Pivoting would destroy that structure.
    """
    A = np.asarray(Ahat, dtype=float)
    n = A.shape[0]
    scale = np.max(np.abs(A))
    L = np.zeros((n, n))
    U = np.eye(n)
    for j in range(n):
        for i in range(j, n):
            L[i, j] = A[i, j] - L[i, :j] @ U[:j, j]
        if abs(L[j, j]) < 1e-13 * scale:
            raise ValueError(f"near-zero pivot at position {j}: invalid abscissae")
        for i in range(j + 1, n):
            U[j, i] = (A[j, i] - L[j, :j] @ U[:j, i]) / L[j, j]
    dev = np.max(np.abs(np.diag(L) - d))
    if dev > _DIAG_TOL:
        raise ValueError(f"L diagonal deviates from d by {dev:.3e}: corrupted constants")
    return L, U


def build_splitting(s):
    """Assemble the SplittingData for 1 <= s <= MAX_S from the tabulated chat and
    d = det(X_s)^(1/s). s = 1 is the degenerate case (Ahat = L = X_1 = [[1/2]],
    U = [[1]]); it lets HBVM(k,1) flow through the same solver code path."""
    require_integer("s", s)
    if not 1 <= s <= MAX_S:
        raise ValueError(f"splitting available for 1 <= s <= {MAX_S}, got {s}")
    chat = np.array(_AUX_ABSCISSAE[s])
    Phat = legendre_basis(chat, s)
    Xs = leading_Xs(s)
    # Ahat = Phat X_s Phat^{-1}, formed by a linear solve rather than inversion:
    # Ahat Phat = Phat Xs  <=>  Phat^T Ahat^T = (Phat Xs)^T
    Ahat = np.linalg.solve(Phat.T, (Phat @ Xs).T).T
    d = det_Xs(s) ** (1.0 / s)
    L, U = crout_lu_constant_diag(Ahat, d)
    return SplittingData(s=s, chat=chat, Phat=Phat, Ahat=Ahat, L=L, U=U, d=d)


def verify_conditions(data):
    """Residuals |det(Ahat_{l+1}) - d_s det(Ahat_l)|, l = 1..s-1.

    These are the algebraic conditions equivalent to the L factor having all
    diagonal entries equal; all residuals are tiny for the shipped constants.
    """
    A, d = data.Ahat, data.d
    return np.array([abs(np.linalg.det(A[:ell + 1, :ell + 1]) - d * np.linalg.det(A[:ell, :ell]))
                     for ell in range(1, data.s)])
