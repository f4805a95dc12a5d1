"""Linearized operators around kinks: spectra and linear transform residuals.

The three Schrodinger operators in play are

* ``kink_sg_operator``      -d^2/dx^2 + 1 - 2 sech^2(x)           (threshold 1)
* ``kink_phi4_operator``    -d^2/dx^2 + 2 - 3 sech^2(x/sqrt 2)    (threshold 2)
* ``kink_phi4_dual_operator``  -d^2/dx^2 + 2 - sech^2(x/sqrt 2)   (threshold 2)

The first has a single eigenvalue 0 (no internal mode, odd threshold resonance
tanh x); the second has eigenvalues {0, 3/2} and an even threshold resonance
1 - (3/2) sech^2(x/sqrt 2); the third has the single eigenvalue 3/2 and no
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (
    ContractError,
    GridSpec,
    ParameterError,
    SolverError,
    quadrature,
)
from .solutions import _OMEGA_INTERNAL, _SQRT2, SolutionSampler, _sech, _sech_s, _tanh_s

__all__ = [
    "SchrodingerOperator",
    "kink_sg_operator",
    "kink_phi4_operator",
    "kink_phi4_dual_operator",
    "discrete_spectrum",
    "lbt_residual_sg",
    "lbt_residual_phi4",
    "lbt_residual_phi4_dual",
]

@dataclass(frozen=True)
class SchrodingerOperator:
    """One-dimensional operator -d^2/dx^2 + potential(x)."""

    potential: Callable
    continuum_threshold: float

    def check_threshold(self, grid: GridSpec):
        """The potential must have reached its asymptotic value, within 1e-6,
        at the grid ends."""
        for end in (grid.x_min, grid.x_max):
            v = float(self.potential(np.array([end]))[0])
            if abs(v - self.continuum_threshold) > 1e-6:
                raise ContractError(
                    f"potential({end:g}) = {v:.8g} is not within 1e-06 of the "
                    f"continuum threshold {self.continuum_threshold:g}"
                )


def kink_sg_operator() -> SchrodingerOperator:
    return SchrodingerOperator(lambda x: 1.0 - 2.0 * _sech(x) ** 2, 1.0)


def kink_phi4_operator() -> SchrodingerOperator:
    return SchrodingerOperator(lambda x: 2.0 - 3.0 * _sech_s(x) ** 2, 2.0)


def kink_phi4_dual_operator() -> SchrodingerOperator:
    return SchrodingerOperator(lambda x: 2.0 - _sech_s(x) ** 2, 2.0)


def discrete_spectrum(op: SchrodingerOperator, grid: GridSpec):
    """Eigenvalues below threshold - 0.05 of the tridiagonal discretization.

    Returns a list of (eigenvalue, eigenvector) sorted ascending, eigenvectors
    normalized to unit L^2 norm in the grid quadrature with a positive
    max-magnitude entry.  The margin excludes the spurious near-threshold modes
    that Dirichlet truncation creates out of the continuum.
    """
    # scipy is imported here, by the only solve that needs it, so that
    # importing sglab costs little more than importing numpy
    from scipy.linalg import eigh_tridiagonal

    grid.require_symmetric()
    if grid.n_points < 2001:
        raise ContractError(f"spectrum needs n_points >= 2001, got {grid.n_points}")
    op.check_threshold(grid)
    h = grid.h
    diag = 2.0 / h ** 2 + np.asarray(op.potential(grid.x), dtype=float)
    off = np.full(grid.n_points - 1, -1.0 / h ** 2)
    lo = float(diag.min() - 2.0 / h ** 2) - 1.0
    hi = op.continuum_threshold - 0.05
    try:
        vals, vecs = eigh_tridiagonal(diag, off, select="v", select_range=(lo, hi))
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc
    out = []
    for k in range(len(vals)):
        v = vecs[:, k]
        v = v / math.sqrt(quadrature(v * v, grid))
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        out.append((float(vals[k]), v))
    return out


def _first_order_residuals(phi, psi, coeff: np.ndarray):
    """Residuals of  phi_x - psi_t + c phi  and  phi_t - psi_x + c psi, from
    the (u, u_x, u_t) ``fields`` of phi and psi."""
    (phi_u, phi_x, phi_t), (psi_u, psi_x, psi_t) = phi, psi
    return phi_x - psi_t + coeff * phi_u, phi_t - psi_x + coeff * psi_u


def lbt_residual_sg(phi: SolutionSampler, psi: SolutionSampler, t: float, grid: GridSpec):
    """Residuals of the linearized transform around the static sine-Gordon kink.

    The system couples a mode phi around the kink to a mode psi of the flat
    Klein-Gordon equation through the coefficient tanh x.
    """
    return _first_order_residuals(phi.fields(grid, t), psi.fields(grid, t), np.tanh(grid.x))


def lbt_residual_phi4(phi: SolutionSampler, psi: SolutionSampler, t: float, grid: GridSpec):
    """Residuals of the linearized transform around the phi^4 kink (coefficient sqrt 2 H)."""
    return _first_order_residuals(phi.fields(grid, t), psi.fields(grid, t),
                                  _SQRT2 * _tanh_s(grid.x))


def lbt_residual_phi4_dual(phi_pair, psi_pair, sign: int, t: float, grid: GridSpec):
    """Residuals of the dual complex transform around the phi^4 kink.

    ``phi_pair`` and ``psi_pair`` are (real, imaginary) sampler tuples; ``sign``
    is +1 or -1 and selects which of the two conjugate systems is meant.  The
    equations read, with lam = i sqrt(3/2) and H = tanh(x/sqrt 2):

        phi_x - psi_t + (1/sqrt 2) H phi + sign * lam * psi = 0
        phi_t - psi_x + (1/sqrt 2) H psi + sign * lam * phi = 0

    Returns ((e1_re, e1_im), (e2_re, e2_im)).
    """
    if sign not in (1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    phi, psi = ([re + 1j * im for re, im in zip(*(s.fields(grid, t) for s in pair))]
                for pair in (phi_pair, psi_pair))
    e1, e2 = _first_order_residuals(phi, psi, _tanh_s(grid.x) / _SQRT2)
    lam = sign * 1j * _OMEGA_INTERNAL
    e1, e2 = e1 + lam * psi[0], e2 + lam * phi[0]
    return (e1.real, e1.imag), (e2.real, e2.imag)
