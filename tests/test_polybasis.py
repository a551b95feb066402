import numpy as np
import pytest

from hbvm.polybasis import gauss_rule, legendre_basis, legendre_eval, legendre_integral, xi
from hbvm.splitting import build_splitting
from hbvm.tableau import build_tableau

# Oracle for the degree-5 value: Gram-Schmidt on monomials over [0,1] with
# exact rational arithmetic (sympy), evaluated at x = 3/10:
#   P_5(3/10) = -3383*sqrt(11)/12500
P5_AT_03 = -3383.0 * np.sqrt(11.0) / 12500.0


def test_p0_is_one():
    assert legendre_eval(0, 0.77) == 1.0


def test_p1_normalization():
    assert legendre_eval(1, 1.0) == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_degree5_against_exact_gram_schmidt():
    assert legendre_eval(5, 0.3) == pytest.approx(P5_AT_03, abs=1e-13)


def test_integral_of_p0_over_unit_interval():
    assert legendre_integral(0, 1.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("j", range(1, 11))
def test_integral_over_full_interval_vanishes(j):
    assert abs(legendre_integral(j, 1.0)) < 1e-14


def test_integral_p1_against_quadrature():
    # oracle: 40-point Gauss rule on [0, 1/2] (frozen exact value: sqrt(3)*(c^2-c) at c=1/2)
    assert legendre_integral(1, 0.5) == pytest.approx(-np.sqrt(3.0) / 4.0, abs=1e-13)
    c = 0.37
    rule = gauss_rule(40)
    approx = c * np.sum(rule.weights * legendre_eval(1, c * rule.nodes))
    assert legendre_integral(1, c) == pytest.approx(approx, abs=1e-13)


def test_gauss_rule_k1_is_midpoint():
    r = gauss_rule(1)
    assert r.nodes == pytest.approx([0.5], abs=1e-15)
    assert r.weights == pytest.approx([1.0], abs=1e-15)


def test_gauss_rule_k2_exact_roots():
    r = gauss_rule(2)
    exact = [(3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0]
    assert r.nodes == pytest.approx(exact, abs=1e-15)
    assert r.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_gauss_rule_k6_exactness_degree_11():
    r = gauss_rule(6)
    assert np.sum(r.weights * r.nodes**11) == pytest.approx(1.0 / 12.0, abs=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 25, 50])
def test_nodes_are_roots_and_weights_positive(k):
    r = gauss_rule(k)
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all((r.nodes > 0) & (r.nodes < 1))
    assert np.all(r.weights > 0)
    assert abs(np.sum(r.weights) - 1.0) < 1e-14
    # P_k has magnitude ~sqrt(2k+1) on [0,1]; scale the residual accordingly
    for c in r.nodes:
        assert abs(legendre_eval(k, c)) < 1e-12 * np.sqrt(2 * k + 1) * k


@pytest.mark.parametrize("k", [1, 2, 4, 7, 10, 20, 50])
def test_node_symmetry(k):
    r = gauss_rule(k)
    assert np.max(np.abs(r.nodes + r.nodes[::-1] - 1.0)) < 1e-14


def test_orthonormality_under_quadrature():
    for i in range(9):
        for j in range(9):
            k = max((i + j + 2 + 1) // 2, 1)
            r = gauss_rule(k)
            val = np.sum(r.weights * legendre_eval(i, r.nodes) * legendre_eval(j, r.nodes))
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_recurrence_integral_consistency():
    cs = np.linspace(0.02, 0.99, 20)
    for j in range(1, 11):
        for c in cs:
            lhs = legendre_integral(j, c)
            rhs = xi(j + 1) * legendre_eval(j + 1, c) - xi(j) * legendre_eval(j - 1, c)
            assert abs(lhs - rhs) < 1e-13


@pytest.mark.parametrize("r", [1, 4, 7])
def test_legendre_basis_columns_are_legendre_eval(r):
    x = np.array([0.0, 0.13, 0.5, 0.91, 1.0])
    P = legendre_basis(x, r)
    assert P.shape == (len(x), r)
    for j in range(r):
        assert np.array_equal(P[:, j], legendre_eval(j, x))


@pytest.mark.parametrize("s", range(1, 7))
def test_tableau_and_splitting_share_the_legendre_basis(s):
    tab, data = build_tableau(s + 2, s), build_splitting(s)
    assert np.array_equal(tab.M, legendre_basis(tab.c, s).T * tab.b)
    assert np.array_equal(tab.W, legendre_basis(tab.c, s + 1) @ tab.Xhat)
    assert np.array_equal(data.Phat, legendre_basis(data.chat, s))


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(51)
    with pytest.raises(ValueError):
        legendre_eval(-1, 0.5)
