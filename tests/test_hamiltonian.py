import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hbvm.hamiltonian import (
    apply_J,
    charged_particle,
    fpu_modified,
    harmonic_oscillator,
    separable_hessian,
)
from tests.conftest import fd_gradient, fd_jacobian

# frozen oracle: exact rational/symbolic evaluation (sympy) of each
# Hamiltonian at its shipped initial state
H0_CHARGED = 2.6783880651251133
H0_FPU = 4225053917.0 / 28561.0  # exact rational value of the quartic polynomial

RNG = np.random.default_rng(20260823)


def _random_states(system, n=5, spread=0.3):
    return [system.y0 + spread * RNG.standard_normal(system.dim) for _ in range(n)]


def _same_bits(a, b):
    """np.array_equal, and the same sign of every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_apply_J_squares_to_minus_identity():
    v = RNG.standard_normal(8)
    assert apply_J(apply_J(v)) == pytest.approx(-v)


def test_apply_J_is_skew():
    u, v = RNG.standard_normal(6), RNG.standard_normal(6)
    assert u @ apply_J(v) == pytest.approx(-(v @ apply_J(u)), abs=1e-13)


def test_apply_J_canonical_example():
    assert apply_J(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx([3.0, 4.0, -1.0, -2.0])


def test_energy_is_invariant_of_the_field():
    # grad H is orthogonal to J grad H: the flow preserves H by construction
    for sysm in (charged_particle(), fpu_modified()):
        for y in _random_states(sysm, 3):
            g = sysm.grad(y)
            assert g @ apply_J(g) == pytest.approx(0.0, abs=1e-8)


def test_apply_J_maps_a_stack_row_by_row():
    V = RNG.standard_normal((5, 8))
    assert np.array_equal(apply_J(V), np.array([apply_J(v) for v in V]))


# ---------------------------------------------------------------------------
# stacked gradients: a (k, 2m) stack maps row by row, bit for bit

@pytest.mark.parametrize("make", [charged_particle, fpu_modified])
# a few thousand rows catch last-bit differences (such as ** 2 squaring on
# arrays where one state calls pow) that 1 <= k <= 10 rarely hits
@pytest.mark.parametrize("k", [*range(1, 11), 4000])
def test_stacked_grad_equals_row_by_row(make, k):
    sysm = make()
    assert sysm.stacked_grad
    rng = np.random.default_rng(k)
    for spread in (1e-3, 0.3, 3.0):
        Y = sysm.y0 + spread * rng.standard_normal((k, sysm.dim))
        G = sysm.grad(Y)
        assert G.shape == (k, sysm.dim)
        assert np.array_equal(G, np.array([sysm.grad(y) for y in Y]))


@pytest.mark.parametrize("row", [0, 3, 6])
def test_stacked_charged_grad_rejects_any_row_on_axis(row):
    sysm = charged_particle()
    Y = sysm.y0 + 0.1 * RNG.standard_normal((7, 6))
    Y[row, :2] = 0.0
    with pytest.raises(ValueError, match="z-axis"):
        sysm.grad(Y)


def test_stacked_grad_is_opt_in():
    assert not harmonic_oscillator().stacked_grad


# ---------------------------------------------------------------------------
# charged particle

def test_charged_initial_state_and_energy():
    sysm = charged_particle()
    assert sysm.dim == 6
    assert sysm.y0 == pytest.approx([0.5, 10.0, 0.0, -0.1, -0.3, 0.0])
    assert sysm.H(sysm.y0) == pytest.approx(H0_CHARGED, rel=1e-15)


def test_charged_gradient_matches_finite_differences():
    sysm = charged_particle()
    for y in _random_states(sysm):
        g = sysm.grad(y)
        fd = fd_gradient(sysm.H, y)
        assert np.max(np.abs(g - fd)) < 1e-6 * (1.0 + np.max(np.abs(g)))


def test_charged_hessian_matches_finite_differences():
    sysm = charged_particle()
    for y in _random_states(sysm):
        Hm = sysm.hess(y)
        fd = fd_jacobian(sysm.grad, y)
        assert np.max(np.abs(Hm - fd)) < 1e-6 * (1.0 + np.max(np.abs(Hm)))
        assert np.max(np.abs(Hm - Hm.T)) < 1e-13


def test_charged_energy_independent_of_z():
    sysm = charged_particle()
    y = sysm.y0.copy()
    base = sysm.H(y)
    y[2] = 17.3
    assert sysm.H(y) == pytest.approx(base, rel=1e-15)


def test_charged_rejects_axis_singularity():
    sysm = charged_particle()
    with pytest.raises(ValueError):
        sysm.H(np.array([0.0, 0.0, 1.0, 0.1, 0.2, 0.3]))


def _reference_charged_kernels():
    """H, grad and hess of the charged particle with the mass, charge and
    field written out, at the paper's constants: the reference the kernels
    with the constants folded in must match bit for bit."""
    mass, charge, b0 = 1.0, -1.0, 1.0
    a = charge * b0

    def _uvw(state):
        x, y, px, py, pz = (state[..., i] for i in (0, 1, 3, 4, 5))
        r2 = x * x + y * y
        u = px - a * x / r2
        v = py - a * y / r2
        w = pz + 0.5 * a * np.log(r2)
        return x, y, r2, u, v, w

    def H(state):
        _, _, _, u, v, w = _uvw(state)
        return (u * u + v * v + w * w) / (2.0 * mass)

    def grad(state):
        x, y, r2, u, v, w = _uvw(state)
        r4 = np.float_power(r2, 2)
        ax = (y * y - x * x) / r4
        ay = -2.0 * x * y / r4
        bx = ay
        by = -ax
        g = np.empty(np.shape(state))
        g[..., 0] = (-a * (u * ax + v * bx) + a * w * x / r2) / mass
        g[..., 1] = (-a * (u * ay + v * by) + a * w * y / r2) / mass
        g[..., 2] = 0.0
        g[..., 3] = u / mass
        g[..., 4] = v / mass
        g[..., 5] = w / mass
        return g

    def hess(state):
        x, y, r2, u, v, w = _uvw(state)
        ax = (y * y - x * x) / r2**2
        ay = -2.0 * x * y / r2**2
        bx, by = ay, -ax
        axx = 2.0 * x * (x * x - 3.0 * y * y) / r2**3
        axy = 2.0 * y * (3.0 * x * x - y * y) / r2**3
        ayy = -axx
        byy = 2.0 * y * (y * y - 3.0 * x * x) / r2**3
        bxy = 2.0 * x * (3.0 * y * y - x * x) / r2**3
        bxx = -byy
        ux, uy = -a * ax, -a * ay
        vx, vy = -a * bx, -a * by
        wx, wy = a * x / r2, a * y / r2
        Hxx = ux * ux + vx * vx + wx * wx + u * (-a * axx) + v * (-a * bxx) + w * (a * ax)
        Hxy = ux * uy + vx * vy + wx * wy + u * (-a * axy) + v * (-a * bxy) + w * (a * ay)
        Hyy = uy * uy + vy * vy + wy * wy + u * (-a * ayy) + v * (-a * byy) + w * (-a * ax)
        M = np.zeros((6, 6))
        M[0, 0], M[0, 1], M[1, 0], M[1, 1] = Hxx, Hxy, Hxy, Hyy
        M[0, 3], M[0, 4], M[0, 5] = ux, vx, wx
        M[1, 3], M[1, 4], M[1, 5] = uy, vy, wy
        M[3:, :2] = M[:2, 3:].T
        M[3, 3] = M[4, 4] = M[5, 5] = 1.0
        return M / mass

    return H, grad, hess


REFERENCE_CHARGED = _reference_charged_kernels()
CHARGED_STATES = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def _charged_states(rows, seed, log_scale, zero_frac):
    """rows states (rows = None: one state) around y0, scaled by 10^log_scale,
    with about zero_frac of the entries other than y set to +0.0 or -0.0;
    none lies within 1e-8 of the z-axis."""
    rng = np.random.default_rng(seed)
    shape = (6,) if rows is None else (rows, 6)
    y = charged_particle().y0 + 10.0 ** log_scale * rng.standard_normal(shape)
    zeros = rng.random(shape) < zero_frac
    zeros[..., 1] = False
    y[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    assume(np.all(y[..., 0] ** 2 + y[..., 1] ** 2 >= 1e-16))
    return y


@CHARGED_STATES
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6, 3),
       zero_frac=st.sampled_from([0.0, 0.3]))
def test_charged_kernels_equal_the_reference_bit_for_bit(seed, log_scale, zero_frac):
    sysm = charged_particle()
    y = _charged_states(None, seed, log_scale, zero_frac)
    for kernel, reference in zip((sysm.H, sysm.grad, sysm.hess), REFERENCE_CHARGED):
        assert _same_bits(kernel(y), reference(y))


@CHARGED_STATES
@given(rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6, 3), zero_frac=st.sampled_from([0.0, 0.3]))
def test_charged_stacked_kernels_equal_the_reference_bit_for_bit(rows, seed, log_scale,
                                                                 zero_frac):
    sysm = charged_particle()
    Y = _charged_states(rows, seed, log_scale, zero_frac)
    for kernel, reference in zip((sysm.H, sysm.grad), REFERENCE_CHARGED):
        assert _same_bits(kernel(Y), reference(Y))


# ---------------------------------------------------------------------------
# stiff FPU chain

def test_fpu_dimensions_and_initial_state():
    sysm = fpu_modified()
    assert sysm.m == 14 and sysm.dim == 28
    assert sysm.y0[:14] == pytest.approx(np.arange(14) / 13.0)
    assert np.all(sysm.y0[14:] == 0.0)


def test_fpu_initial_energy():
    sysm = fpu_modified()
    assert sysm.H(sysm.y0) == pytest.approx(H0_FPU, rel=1e-14)


def test_fpu_gradient_matches_finite_differences():
    sysm = fpu_modified()
    for y in _random_states(sysm, spread=0.05):
        g = sysm.grad(y)
        fd = fd_gradient(sysm.H, y)
        assert np.max(np.abs(g - fd)) < 1e-4 * (1.0 + np.max(np.abs(g)))


def test_fpu_hessian_matches_finite_differences():
    sysm = fpu_modified()
    for y in _random_states(sysm, spread=0.05):
        Hm = sysm.hess(y)
        fd = fd_jacobian(sysm.grad, y)
        assert np.max(np.abs(Hm - fd)) < 1e-4 * (1.0 + np.max(np.abs(Hm)))
        assert np.max(np.abs(Hm - Hm.T)) < 1e-10


def test_fpu_kinetic_block_is_identity():
    sysm = fpu_modified()
    M = sysm.hess(sysm.y0)
    assert np.max(np.abs(M[14:, 14:] - np.eye(14))) == 0.0
    assert np.max(np.abs(M[:14, 14:])) == 0.0


def test_fpu_momentum_gradient_is_momentum():
    sysm = fpu_modified()
    y = _random_states(sysm, 1)[0]
    assert sysm.grad(y)[14:] == pytest.approx(y[14:])


def test_fpu_quartic_only_at_zero_configuration():
    # with q = 0 every spring and quartic term vanishes
    sysm = fpu_modified()
    p = RNG.standard_normal(14)
    y = np.concatenate([np.zeros(14), p])
    assert sysm.H(y) == pytest.approx(0.5 * p @ p, rel=1e-15)


def _reference_fpu_kernels():
    """H, grad and hess of fpu_modified as index arrays, zero-padded copies,
    scatter-adds and loops over the springs: the reference the slice-based
    kernels must match bit for bit."""
    n = 7
    dim_q = 2 * n
    w = np.full(n, 10.0)
    w[3] = 1.0e4
    w2 = w * w
    odd = np.arange(0, dim_q, 2)   # indices of q_{2i-1} (0-based)
    even = np.arange(1, dim_q, 2)  # indices of q_{2i}

    def _split(state):
        return state[..., :dim_q], state[..., dim_q:]

    def _ext(q):
        # q with the q_0 = q_{2n+1} = 0 boundary values attached
        zero = np.zeros(q.shape[:-1] + (1,))
        return np.concatenate([zero, q, zero], axis=-1)

    def H(state):
        q, p = _split(state)
        quad = 0.25 * np.sum(w2 * (q[even] - q[odd]) ** 2)
        qe = _ext(q)
        quart = np.sum((qe[1::2] - qe[0::2]) ** 4)  # (q_{2i+1} - q_{2i})^4, i = 0..n
        return 0.5 * p @ p + quad + quart

    def grad(state):
        q, p = _split(state)
        g_q = np.zeros(q.shape)
        springs = 0.5 * w2 * (q[..., even] - q[..., odd])
        g_q[..., odd] -= springs
        g_q[..., even] += springs
        qe = _ext(q)
        cubes = 4.0 * (qe[..., 1::2] - qe[..., 0::2]) ** 3  # i = 0..n
        # term i couples q_{2i+1} (+) and q_{2i} (-); boundary entries drop
        g_quart = np.zeros(qe.shape)
        g_quart[..., 1::2] += cubes
        g_quart[..., 0::2] -= cubes
        g_q += g_quart[..., 1:-1]
        return np.concatenate([g_q, p], axis=-1)

    def hess(state):
        q, _ = _split(state)
        Hq = np.zeros((dim_q, dim_q))
        for i in range(n):
            o, e = odd[i], even[i]
            Hq[o, o] += 0.5 * w2[i]
            Hq[e, e] += 0.5 * w2[i]
            Hq[o, e] -= 0.5 * w2[i]
            Hq[e, o] -= 0.5 * w2[i]
        qe = _ext(q)
        curv = 12.0 * (qe[1::2] - qe[0::2]) ** 2  # i = 0..n
        for i in range(n + 1):
            lo, hi = 2 * i, 2 * i + 1  # extended indices of q_{2i}, q_{2i+1}
            for r in (lo, hi):
                for ccol in (lo, hi):
                    if 1 <= r <= dim_q and 1 <= ccol <= dim_q:
                        sign = 1.0 if r == ccol else -1.0
                        Hq[r - 1, ccol - 1] += sign * curv[i]
        M = np.zeros((2 * dim_q, 2 * dim_q))
        M[:dim_q, :dim_q] = Hq
        M[dim_q:, dim_q:] = np.eye(dim_q)
        return M

    return H, grad, hess


REFERENCE_FPU = _reference_fpu_kernels()
FPU_STATES = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def _fpu_states(rows, seed, log_scale, zero_frac):
    """rows states (rows = None: one state) around y0, scaled by 10^log_scale,
    with about zero_frac of the entries set to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    shape = (28,) if rows is None else (rows, 28)
    y = fpu_modified().y0 + 10.0 ** log_scale * rng.standard_normal(shape)
    zeros = rng.random(shape) < zero_frac
    y[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return y


@FPU_STATES
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3, 3),
       zero_frac=st.sampled_from([0.0, 0.2, 0.6]))
def test_fpu_kernels_equal_the_reference_bit_for_bit(seed, log_scale, zero_frac):
    sysm = fpu_modified()
    y = _fpu_states(None, seed, log_scale, zero_frac)
    for kernel, reference in zip((sysm.H, sysm.grad, sysm.hess), REFERENCE_FPU):
        assert _same_bits(kernel(y), reference(y))


@FPU_STATES
@given(rows=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3, 3), zero_frac=st.sampled_from([0.0, 0.2, 0.6]))
def test_fpu_stacked_grad_equals_the_reference_bit_for_bit(rows, seed, log_scale, zero_frac):
    Y = _fpu_states(rows, seed, log_scale, zero_frac)
    assert _same_bits(fpu_modified().grad(Y), REFERENCE_FPU[1](Y))


# ---------------------------------------------------------------------------
# harmonic oscillator fixture

def test_harmonic_energy_and_field():
    sysm = harmonic_oscillator(3.0)
    assert sysm.H(np.array([2.0, 0.0])) == pytest.approx(18.0)
    assert sysm.hess(sysm.y0) == pytest.approx(np.diag([9.0, 1.0]))


def test_harmonic_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        harmonic_oscillator(0.0)


# ---------------------------------------------------------------------------
# separability predicate


@pytest.mark.parametrize("i,j", [(3, 0), (3, 3), (3, 4), (0, 3), (5, 4), (4, 4)])
@pytest.mark.parametrize("value", [0.0, -0.0, 1e-300, 1.0, -1.0, np.nextafter(1.0, 2.0),
                                   np.nan, np.inf])
def test_separable_hessian_is_the_exact_identity_test_on_the_momentum_rows(i, j, value):
    # one entry of a separable 6 x 6 Hessian changed: the predicate agrees
    # with comparing the momentum rows and columns to [0 | I] exactly (-0.0
    # counts as zero, a NaN on the diagonal is not 1.0)
    hess = np.eye(6)
    hess[:3, :3] = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]
    hess[i, j] = value
    expected = (not np.any(hess[3:, :3]) and not np.any(hess[:3, 3:])
                and np.array_equal(hess[3:, 3:], np.eye(3)))
    assert separable_hessian(hess) is expected
