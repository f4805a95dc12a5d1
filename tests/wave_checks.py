"""Second-order wave checks of the linearized modes, shared by acceptance
criterion 3 and test_spectra.

A mode pair that satisfies its first-order system also solves the implied
second-order wave equation phi_tt + L phi = 0; these helpers measure that
residual with centered differences in space and time.
"""

import numpy as np

from sglab.grids import _time_difference
from sglab.spectra import SchrodingerOperator


def dirichlet_second_derivative(f, grid):
    """Second derivative with zero ghost values outside the grid (Dirichlet closure)."""
    h2 = grid.h ** 2
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h2
    out[0] = (f[1] - 2.0 * f[0]) / h2
    out[-1] = (f[-2] - 2.0 * f[-1]) / h2
    return out


def apply_operator(op, f, grid):
    """-f'' + potential * f with centered differences and Dirichlet closure."""
    f = np.asarray(f, dtype=float)
    return -dirichlet_second_derivative(f, grid) + op.potential(grid.x) * f


def wave_residual(phi, op, t, grid, dt):
    """Residual of phi_tt + L phi = 0 with centered time differences.

    ``op`` is a SchrodingerOperator, or a number m^2 meaning the flat operator
    -d^2/dx^2 + m^2.
    """
    u_0, u_tt = _time_difference(phi, t, grid, dt)
    if isinstance(op, SchrodingerOperator):
        return u_tt + apply_operator(op, u_0, grid)
    return u_tt - dirichlet_second_derivative(u_0, grid) + float(op) * u_0
