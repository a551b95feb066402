"""LU factors with their LAPACK solve routine picked once per factor.

A dense square matrix is factored by getrf with row pivoting
(scipy.linalg.lu_factor, the same bits) and solved by getrs; a matrix in
LAPACK band storage is factored by gbtrf and solved by gbtrs, O(m) work for a
fixed band. Real or complex routines follow the matrix's dtype. lu_solve has
none of scipy's finiteness and shape checks: a non-finite b gives a
non-finite x instead of an exception. hbvm.nlsolve binds both names at module
level, and its step factors call them through those bindings.
"""
from __future__ import annotations

import warnings
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg import lu_factor as _getrf
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrs, zgbtrf, zgbtrs, zgetrs

__all__ = ["LU", "lu_factor", "lu_solve"]


class LU(NamedTuple):
    lu: np.ndarray   # getrf factors, or gbtrf factors in band storage
    piv: np.ndarray  # row interchanges
    trs: Callable    # b -> (x, info): getrs or gbtrs bound to lu and piv


def lu_factor(a, band=None):
    """The LU of a. With band = (kl, ku), a is the matrix in LAPACK band
    storage: 2 kl + ku + 1 rows, row kl + ku + i - j holding entry (i, j), and
    the first kl rows are gbtrf's workspace for the fill-in of row pivoting.
    A singular matrix warns (LinAlgWarning) as scipy's lu_factor does."""
    cplx = np.iscomplexobj(a)
    if band is None:
        lu, piv = _getrf(a)
        return LU(lu, piv, partial(zgetrs if cplx else dgetrs, lu, piv))
    kl, ku = band
    lu, piv, info = (zgbtrf if cplx else dgbtrf)(a, kl, ku)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbtrf")
    if info > 0:
        warnings.warn(f"Diagonal number {info} is exactly zero. Singular matrix.",
                      LinAlgWarning, stacklevel=2)
    gbtrs = zgbtrs if cplx else dgbtrs
    return LU(lu, piv, lambda b: gbtrs(lu, kl, ku, b, piv))


def lu_solve(fac, b):
    """x with A x = b, given fac = lu_factor(A)."""
    x, info = fac.trs(b)
    if info:
        raise ValueError(f"illegal value in argument {-info} of the LU solve")
    return x
