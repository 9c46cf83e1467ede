"""A continuum reference for the straight rod, independent of the midpoint solver.

The unit rod along x1 is solved by Galerkin for its axial drag K11.  The
force density is a series of the even Legendre modes P0, P2, ... in t = 2u,
u the arclength from the middle, and a point force of one size sits at each
end.  The basis is tested against itself: with G the kernel's double
integrals over each pair of basis functions and b the total force of each,
K11 = b^T G^-1 b.  Z11 has a kink at w = u - v = 0, so the mode-mode entries
are integrated in w on each side of it and in u over the overlap of the two
ranges, both by Gauss-Legendre.  Only numpy and ``hyperstokes.kernel`` are
used, so the solver's agreement with it is not circular.
"""

import numpy as np
from numpy.polynomial import legendre

from hyperstokes.kernel import HyperKernel, oseen_tensor


def rod_axial_drag(ell, modes=8, w_points=400, u_points=32):
    """K11 of the unit rod at screening length ``ell`` from the even modes
    P0 ... P(2 modes - 2) and the pair of end forces."""
    kernel = HyperKernel(ell=ell)

    def z11(w):
        return oseen_tensor(np.multiply.outer(w, [1.0, 0.0, 0.0]), kernel)[..., 0, 0]

    def even_modes(u):  # shape (modes, *u.shape)
        return legendre.legval(2.0 * u, np.eye(2 * modes - 1)[::2].T)

    x, wx = legendre.leggauss(w_points)
    s, ws = legendre.leggauss(u_points)  # exact for the product of two modes
    g = np.zeros((modes + 1, modes + 1))
    for side in (-1.0, 1.0):  # w on [-1, 0], then on [0, 1]
        w = side * (x + 1.0) / 2.0
        lo, hi = np.maximum(-0.5, w - 0.5), np.minimum(0.5, w + 0.5)
        u = lo[:, None] + np.outer(hi - lo, (s + 1.0) / 2.0)
        weight = np.outer(wx / 2.0 * z11(w) * (hi - lo) / 2.0, ws)
        g[:modes, :modes] += np.einsum("wk,iwk,jwk->ij", weight, even_modes(u),
                                       even_modes(u - w[:, None]))
    u, wu = x / 2.0, wx / 2.0  # Gauss-Legendre along the rod; Z11 kinks only at its ends
    g[:modes, modes] = g[modes, :modes] = even_modes(u) @ (wu * (z11(u - 0.5) + z11(u + 0.5)))
    g[modes, modes] = 2.0 * z11(np.array([0.0, 1.0])).sum()
    b = np.zeros(modes + 1)
    b[0], b[modes] = 1.0, 2.0  # the rod's integral of P0, and the two end forces
    return float(b @ np.linalg.solve(g, b))
