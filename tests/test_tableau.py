import numpy as np
import pytest

from hbvm.polybasis import gauss_rule, legendre_basis, legendre_integral, xi
from hbvm.tableau import build_Xhat, build_tableau, det_Xs, leading_Xs


def gauss_collocation_matrix(s):
    """Independent oracle: the s-stage Gauss Butcher matrix from the
    collocation conditions sum_j a_ij c_j^(q-1) = c_i^q / q, q = 1..s."""
    c = gauss_rule(s).nodes
    V = np.vander(c, s, increasing=True)          # V[j, q-1] = c_j^(q-1)
    R = np.column_stack([c**q / q for q in range(1, s + 1)])
    return np.linalg.solve(V.T, R.T).T            # A V = R


def test_xi_values():
    assert xi(1) == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), abs=1e-16)
    assert xi(2) == pytest.approx(1.0 / (2.0 * np.sqrt(15.0)), abs=1e-16)
    assert xi(10) == pytest.approx(1.0 / (2.0 * np.sqrt(399.0)), abs=1e-16)
    vals = [xi(i) for i in range(1, 12)]
    assert np.all(np.diff(vals) < 0)


def test_Xhat_s1():
    X = build_Xhat(1)
    assert X == pytest.approx(np.array([[0.5], [xi(1)]]))


def test_Xhat_s2_structure():
    X = build_Xhat(2)
    assert X == pytest.approx(np.array([[0.5, -xi(1)], [xi(1), 0.0], [0.0, xi(2)]]))


@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_Xhat_encodes_integrals(s):
    # oracle: P_{s+1} Xhat[:, j] equals int_0^{c_i} P_j at the Gauss nodes
    tab = build_tableau(s + 2, s)
    prod = legendre_basis(tab.c, s + 1) @ tab.Xhat
    for j in range(s):
        expected = legendre_integral(j, tab.c)
        assert np.max(np.abs(prod[:, j] - expected)) < 1e-13


def test_det_Xs_small_cases():
    assert det_Xs(1) == pytest.approx(0.5, abs=1e-16)
    assert det_Xs(2) == pytest.approx(xi(1) ** 2, abs=1e-16)
    assert det_Xs(3) == pytest.approx(0.5 * xi(2) ** 2, abs=1e-16)


@pytest.mark.parametrize("s", range(1, 7))
def test_det_Xs_matches_dense_determinant(s):
    assert abs(np.linalg.det(leading_Xs(s)) - det_Xs(s)) < 1e-14


def test_tableau_1_1_is_midpoint():
    tab = build_tableau(1, 1)
    assert tab.A == pytest.approx(np.array([[0.5]]))


def test_tableau_2_2_is_gauss2():
    tab = build_tableau(2, 2)
    r3 = np.sqrt(3.0) / 6.0
    exact = np.array([[0.25, 0.25 - r3], [0.25 + r3, 0.25]])
    assert np.max(np.abs(tab.A - exact)) < 1e-15


def test_tableau_6_3_row_sums_and_rank():
    tab = build_tableau(6, 3)
    assert np.max(np.abs(tab.A @ np.ones(6) - tab.c)) < 1e-13
    sv = np.linalg.svd(tab.A, compute_uv=False)
    assert np.sum(sv > 1e-10 * sv[0]) == 3


@pytest.mark.parametrize("k,s", [(k, s) for k in range(1, 11) for s in range(1, k + 1)])
def test_row_sums_equal_abscissae(k, s):
    tab = build_tableau(k, s)
    assert np.max(np.abs(tab.A @ np.ones(k) - tab.c)) < 1e-13


@pytest.mark.parametrize("s", range(1, 7))
def test_k_equals_s_recovers_gauss(s):
    tab = build_tableau(s, s)
    assert np.max(np.abs(tab.A - gauss_collocation_matrix(s))) < 1e-12


@pytest.mark.parametrize("k,s", [(k, s) for k in range(1, 11) for s in range(1, k + 1)])
def test_weighted_basis_orthogonality(k, s):
    tab = build_tableau(k, s)
    Ps = legendre_basis(tab.c, s)
    G = Ps.T @ np.diag(tab.b) @ Ps
    assert np.max(np.abs(G - np.eye(s))) < 1e-13


def test_reconstruction_identity():
    tab = build_tableau(8, 3)
    A = legendre_basis(tab.c, 4) @ tab.Xhat @ legendre_basis(tab.c, 3).T @ np.diag(tab.b)
    assert np.max(np.abs(A - tab.A)) < 1e-14


def test_rejects_k_less_than_s():
    with pytest.raises(ValueError):
        build_tableau(2, 3)
