"""Auxiliary abscissae and the constant-diagonal LU splitting.

Evaluating the degree-(s-1) polynomial of stage coefficients at s auxiliary
abscissae chat_i defines a change of unknowns Phat; the transformed matrix
Ahat = Phat X_s Phat^{-1} then factors as Ahat = L U with unit-diagonal U and
all diagonal entries of L equal to a single constant d_s. The abscissae that
make this work are shipped as high-precision constants (they solve s-1
algebraic determinant conditions coupled with a minimization of the maximum
amplification factor; re-deriving them is out of scope, verifying them is
not -- see verify_conditions).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor

from .polybasis import legendre_eval
from .tableau import det_Xs, leading_Xs

__all__ = [
    "SplittingData",
    "d_s",
    "auxiliary_abscissae",
    "crout_lu_constant_diag",
    "build_splitting",
    "verify_conditions",
]

# Tabulated auxiliary abscissae, s = 2..6. The s = 6 entries are deliberately
# non-monotone; the printed order is preserved (it fixes the row order of Phat).
_AUX_ABSCISSAE = {
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
    Phat_lu: tuple = field(init=False, repr=False)  # lu_factor(Phat), made once

    def __post_init__(self):
        object.__setattr__(self, "Phat_lu", lu_factor(self.Phat))


def d_s(s):
    """Common diagonal entry of the L factor: the s-th root of det(X_s)."""
    if not 1 <= s <= 6:
        raise ValueError(f"d_s tabulated/valid for 1 <= s <= 6, got {s}")
    return det_Xs(s) ** (1.0 / s)


def auxiliary_abscissae(s):
    """The tabulated auxiliary abscissae chat_1..chat_s, 2 <= s <= 6."""
    if s not in _AUX_ABSCISSAE:
        raise ValueError(f"auxiliary abscissae available for s in [2, 6], got {s}")
    return np.array(_AUX_ABSCISSAE[s])


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
    """Assemble the SplittingData for 1 <= s <= 6.

    s = 1 is the degenerate case (Ahat = L = X_1 = [[1/2]], U = [[1]]): any
    abscissa gives Phat = [[1]], and chat = [1] is used; it lets HBVM(k,1)
    flow through the same solver code path.
    """
    if not 1 <= s <= 6:
        raise ValueError(f"splitting available for 1 <= s <= 6, got {s}")
    chat = np.array([1.0]) if s == 1 else auxiliary_abscissae(s)
    Phat = np.column_stack([legendre_eval(j, chat) for j in range(s)])
    Xs = leading_Xs(s)
    # Ahat = Phat X_s Phat^{-1}, formed by a linear solve rather than inversion:
    # Ahat Phat = Phat Xs  <=>  Phat^T Ahat^T = (Phat Xs)^T
    Ahat = np.linalg.solve(Phat.T, (Phat @ Xs).T).T
    d = d_s(s)
    L, U = crout_lu_constant_diag(Ahat, d)
    return SplittingData(s=s, chat=chat, Phat=Phat, Ahat=Ahat, L=L, U=U, d=d)


def verify_conditions(data):
    """Residuals |det(Ahat_{l+1}) - d_s det(Ahat_l)|, l = 1..s-1.

    These are the algebraic conditions equivalent to the L factor having all
    diagonal entries equal; all residuals are tiny for the shipped constants.
    """
    A, d = data.Ahat, data.d
    res = []
    for ell in range(1, data.s):
        res.append(abs(np.linalg.det(A[: ell + 1, : ell + 1]) - d * np.linalg.det(A[:ell, :ell])))
    return np.array(res)
