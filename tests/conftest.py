import sys
from pathlib import Path

import numpy as np
import pytest

# the test modules and the demos run by test_demos import demos/composition6.py,
# the explicit baseline, as `composition6`, as a demo run as a script does
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "demos"))

from hbvm.hamiltonian import charged_particle, fpu_modified, harmonic_oscillator
from hbvm.splitting import build_splitting


@pytest.fixture(scope="session")
def splittings():
    return {s: build_splitting(s) for s in range(1, 7)}


@pytest.fixture(scope="session")
def systems():
    return {
        "charged-particle": charged_particle(),
        "fpu": fpu_modified(),
        "harmonic": harmonic_oscillator(1.0),
    }


def fd_gradient(f, y):
    """Central finite differences of a scalar function, cube-root-eps step."""
    y = np.asarray(y, dtype=float)
    g = np.zeros_like(y)
    for i in range(len(y)):
        step = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + abs(y[i]))
        yp, ym = y.copy(), y.copy()
        yp[i] += step
        ym[i] -= step
        g[i] = (f(yp) - f(ym)) / (2.0 * step)
    return g


def fd_jacobian(f, y):
    """Central finite differences of a vector function."""
    y = np.asarray(y, dtype=float)
    cols = []
    for i in range(len(y)):
        step = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + abs(y[i]))
        yp, ym = y.copy(), y.copy()
        yp[i] += step
        ym[i] -= step
        cols.append((f(yp) - f(ym)) / (2.0 * step))
    return np.column_stack(cols)
