"""LU factors with their LAPACK solve routine picked once per factor.

A dense square matrix is factored by getrf with row pivoting (the bits of
scipy.linalg.lu_factor) and solved by getrs; a matrix in LAPACK band storage
is factored by gbtrf and solved by gbtrs, O(m) work for a fixed band. Real or
complex routines follow the matrix's dtype. Neither lu_factor nor lu_solve
has scipy's finiteness and shape checks: a non-finite matrix or b gives
non-finite factors or x instead of an exception. A singular matrix raises
np.linalg.LinAlgError, where scipy's lu_factor only warns. hbvm.nlsolve
binds both names at module level, and its step factors call them through
those bindings.

The eight routines are the f2py wrappers of scipy's compiled extension
scipy/linalg/_flapack, the ones scipy.linalg.lapack re-exports, so they give
the same bits. The extension is loaded from its file: no Python code of the
scipy.linalg package runs, which keeps about 0.3 s and 25 MB out of
`import hbvm`.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["LU", "lu_factor", "lu_solve"]


def _load_flapack():
    """scipy/linalg/_flapack, loaded from its file without importing scipy."""
    pkg = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg") for d in pkg.submodule_search_locations] if pkg else []
    spec = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
    if spec is None:
        raise ImportError("hbvm.lu needs scipy's compiled LAPACK extension "
                          "scipy/linalg/_flapack, which was not found", name="_flapack")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


class LU(NamedTuple):
    lu: np.ndarray   # getrf factors, or gbtrf factors in band storage
    piv: np.ndarray  # row interchanges
    trs: Callable    # b -> (x, info): getrs or gbtrs bound to lu and piv


def lu_factor(a, band=None):
    """The LU of a. With band = (kl, ku), a is the matrix in LAPACK band
    storage: 2 kl + ku + 1 rows, row kl + ku + i - j holding entry (i, j), and
    the first kl rows are gbtrf's workspace for the fill-in of row pivoting.
    A singular matrix raises np.linalg.LinAlgError."""
    t = "z" if np.iscomplexobj(a) else "d"
    if band is None:
        lu, piv, info = getattr(_flapack, t + "getrf")(a, overwrite_a=False)
        trs = partial(getattr(_flapack, t + "getrs"), lu, piv)
    else:
        kl, ku = band
        lu, piv, info = getattr(_flapack, t + "gbtrf")(a, kl, ku)
        gbtrs = getattr(_flapack, t + "gbtrs")
        trs = lambda b: gbtrs(lu, kl, ku, b, piv)  # noqa: E731
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of "
                         f"{'getrf' if band is None else 'gbtrf'}")
    if info > 0:
        raise np.linalg.LinAlgError(f"Diagonal number {info} is exactly zero. Singular matrix.")
    return LU(lu, piv, trs)


def lu_solve(fac, b):
    """x with A x = b, given fac = lu_factor(A)."""
    x, info = fac.trs(b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of the LU solve")
    return x
