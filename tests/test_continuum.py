"""The midpoint solver against a continuum reference that does not share its code.

``continuum.rod_axial_drag`` solves the unit rod by Galerkin with only the
kernel in common, so these tests know the true K11 of a body rather than
comparing the solver with itself at another resolution.
"""

import numpy as np
import pytest

from continuum import rod_axial_drag
from hyperstokes import HyperKernel, discretize, resistance, rod

K11_ROD_ELL_01 = 4.360748139785793  # the unit rod's K11 at ell = 0.1, to about 1e-15


def midpoint_k11(resolution, ell):
    return resistance(discretize(rod(1.0), resolution), HyperKernel(ell=ell)).K[0, 0]


def test_reference_matches_the_known_value_and_has_converged():
    eight, twelve = rod_axial_drag(0.1, modes=8), rod_axial_drag(0.1, modes=12)
    assert eight == pytest.approx(K11_ROD_ELL_01, rel=1e-12)
    assert abs(twelve - eight) < 1e-10 * eight


@pytest.mark.parametrize("ell, low", [(0.1, (0.030, 0.034)), (0.01, (0.170, 0.195))])
def test_midpoint_error_at_the_cli_resolution(ell, low):
    # resolution 16 is the CLI default; measured 3.17% and 18.20% low
    error = 1.0 - midpoint_k11(16, ell) / rod_axial_drag(ell, modes=12)
    assert low[0] <= error <= low[1]


def test_midpoint_error_falls_as_the_element_length():
    exact = rod_axial_drag(0.1, modes=12)
    error = {r: exact - midpoint_k11(r, 0.1) for r in (16, 32, 64, 128)}
    orders = [np.log2(error[r] / error[2 * r]) for r in (16, 32, 64)]  # measured 1.06, 1.03, 1.02
    assert all(0.9 <= order <= 1.1 for order in orders), orders
