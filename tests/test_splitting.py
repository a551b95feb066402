import numpy as np
import pytest
from numpy.polynomial import legendre as npl

from hbvm.polybasis import legendre_basis
from hbvm.splitting import (
    SplittingData,
    build_splitting,
    crout_lu_constant_diag,
    verify_conditions,
)
from hbvm.tableau import build_Xhat, det_Xs

# Table 1 diagonal entries, >= 17 significant digits
D_TABLE = {
    2: 0.28867513459481288,
    3: 0.20274006651911334,
    4: 0.15619699684601279,
    5: 0.12702337351164259,
    6: 0.10702845478806510,
}


@pytest.mark.parametrize("s,expected", sorted(D_TABLE.items()))
def test_d_s_matches_table(s, expected):
    assert build_splitting(s).d == pytest.approx(expected, abs=1e-15)


def test_d_s_is_root_of_det():
    for s in range(1, 7):
        assert build_splitting(s).d ** s == pytest.approx(det_Xs(s), rel=1e-14)


def test_abscissae_s2():
    assert build_splitting(2).chat == pytest.approx(
        [0.26036297108184508789, 1.0], abs=1e-16)


def test_abscissae_s3():
    assert build_splitting(3).chat == pytest.approx(
        [0.15636399930006671060, 0.45431868644630821020, 0.948], abs=1e-16)


def test_abscissae_s6_order_preserved():
    chat = build_splitting(6).chat
    assert len(chat) == 6
    assert chat[0] == pytest.approx(0.20985774196263657630, abs=1e-16)
    assert chat[4] == pytest.approx(0.04580307227138364392, abs=1e-16)
    assert chat[5] == pytest.approx(0.94225, abs=1e-16)


@pytest.mark.parametrize("s", [-1, 0, 7])
def test_build_splitting_rejects_out_of_range_with_the_valid_range(s):
    with pytest.raises(ValueError, match=f"^the splitting requires 1 <= s <= 6, got s = {s}$"):
        build_splitting(s)


def test_crout_identity():
    L, U = crout_lu_constant_diag(np.eye(3), 1.0)
    assert L == pytest.approx(np.eye(3))
    assert U == pytest.approx(np.eye(3))


def test_crout_s2_diagonal():
    data = build_splitting(2)
    L, _ = crout_lu_constant_diag(data.Ahat, data.d)
    assert np.max(np.abs(np.diag(L) - D_TABLE[2])) < 1e-12


def test_crout_s4_determinant():
    data = build_splitting(4)
    assert np.linalg.det(data.L @ data.U) == pytest.approx(det_Xs(4), abs=1e-13)


def test_crout_rejects_wrong_diagonal():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        crout_lu_constant_diag(A, 0.5)


def test_crout_diagonal_tolerance_is_1e_9():
    A = 0.5 * np.eye(2)
    L, _ = crout_lu_constant_diag(A, 0.5 + 5e-10)
    assert np.array_equal(L, A)
    with pytest.raises(ValueError):
        crout_lu_constant_diag(A, 0.5 + 2e-9)


@pytest.mark.parametrize("s", range(2, 7))
def test_splitting_data_invariants(s):
    data = build_splitting(s)
    I = np.eye(s)
    assert np.max(np.abs(data.Ahat - data.L @ data.U)) < 1e-12
    assert np.max(np.abs(np.diag(data.L) - data.d)) < 1e-11
    assert np.all(np.diag(data.U) == 1.0)
    # similarity: Ahat Phat = Phat X_s
    assert np.max(np.abs(data.Ahat @ data.Phat - data.Phat @ build_Xhat(s)[:s])) < 1e-12
    assert len(np.unique(data.chat)) == s
    assert np.all((data.chat > 0) & (data.chat <= 1))
    N = np.linalg.matrix_power(data.U - I, s)
    assert np.max(np.abs(N)) < 1e-12
    # Phat really is the Legendre basis at the auxiliary abscissae (oracle:
    # numpy's Legendre series, scaled to orthonormal on [0, 1])
    ref = npl.legval(2.0 * data.chat - 1.0, np.eye(s)).T * np.sqrt(2.0 * np.arange(s) + 1.0)
    assert data.Phat == pytest.approx(ref)


@pytest.mark.parametrize("s", range(1, 7))
def test_splitting_data_carries_T(s):
    # T = L (U - I), bit for bit, for built data and for data constructed
    # directly from other factors
    data = build_splitting(s)
    assert np.array_equal(data.T, data.L @ (data.U - np.eye(s)))
    L, U = 2.0 * data.L, np.triu(data.U + 1.0, 1) + np.eye(s)
    other = SplittingData(s=s, chat=data.chat, Phat=data.Phat, Ahat=L @ U, L=L, U=U, d=2 * data.d)
    assert np.array_equal(other.T, L @ (U - np.eye(s)))
    assert s == 1 or not np.array_equal(other.T, data.T)


@pytest.mark.parametrize("s", range(2, 7))
def test_det_Ahat_is_d_to_the_s(s):
    data = build_splitting(s)
    assert np.linalg.det(data.Ahat) == pytest.approx(data.d ** s, abs=1e-13)


def test_splitting_s1_degenerate():
    # the general construction reproduces the degenerate data exactly
    data = build_splitting(1)
    assert np.array_equal(data.chat, [1.0])
    assert np.array_equal(data.Phat, [[1.0]])
    assert np.array_equal(data.Ahat, [[0.5]])
    assert np.array_equal(data.L, [[0.5]])
    assert np.array_equal(data.U, [[1.0]])
    assert data.d == 0.5


def test_splitting_s2_reconstruction():
    data = build_splitting(2)
    assert np.max(np.abs(data.Ahat - data.L @ data.U)) < 1e-13


def test_splitting_s3_trace():
    data = build_splitting(3)
    assert np.trace(data.Ahat) == pytest.approx(0.5, abs=1e-13)


def test_splitting_s6_diagonal():
    data = build_splitting(6)
    assert np.max(np.abs(np.diag(data.L) - 0.10702845478806510)) < 1e-10


@pytest.mark.parametrize("s", range(2, 7))
def test_verify_conditions_residuals_small(s):
    data = build_splitting(s)
    res = verify_conditions(data)
    assert len(res) == s - 1
    assert np.max(res) < 1e-11


def test_verify_conditions_sensitive_to_perturbation():
    # perturbing chat_1 by 1e-3 must visibly break the determinant conditions
    from dataclasses import replace

    from hbvm.splitting import SplittingData

    base = build_splitting(3)
    chat = base.chat.copy()
    chat[0] += 1e-3
    Phat = legendre_basis(chat, 3)
    Ahat = np.linalg.solve(Phat.T, (Phat @ build_Xhat(3)[:3]).T).T
    perturbed = SplittingData(s=3, chat=chat, Phat=Phat, Ahat=Ahat,
                              L=base.L, U=base.U, d=base.d)
    assert np.max(verify_conditions(perturbed)) > 1e-6


@pytest.mark.parametrize("s", range(2, 7))
def test_shipped_abscissae_solve_the_determinant_conditions(s):
    # the paper's s - 1 conditions det Ahat_{l+1} - d_s det Ahat_l = 0, which
    # verify_conditions evaluates, solved for the first s - 1 abscissae with
    # the shipped last one held fixed, from the shipped values scaled by 1.01
    from scipy.optimize import fsolve

    data = build_splitting(s)
    Xs = build_Xhat(s)[:s]

    def conditions(head):
        chat = np.append(head, data.chat[-1])
        Phat = legendre_basis(chat, s)
        Ahat = np.linalg.solve(Phat.T, (Phat @ Xs).T).T
        return [np.linalg.det(Ahat[:ell + 1, :ell + 1]) - data.d * np.linalg.det(Ahat[:ell, :ell])
                for ell in range(1, s)]

    # full_output: MINPACK's "no further improvement" at this xtol is no warning
    head = fsolve(conditions, data.chat[:-1] * 1.01, xtol=1e-15, full_output=True)[0]
    assert np.max(np.abs(head - data.chat[:-1])) <= 1e-14
