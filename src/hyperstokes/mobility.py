"""Nystrom boundary-integral solver and resistance tensors.

The disturbance velocity of a force density f on the body is the discrete
convolution u(x) = sum_l Z(x - x_l) w_l f_l.  Collocating at the nodes and
imposing a rigid velocity U_k = xi + omega x x_k gives the dense first-kind
system (M W) f = U with 3x3 blocks M_kl = Z(x_k - x_l); the bounded kernel
makes the diagonal blocks Z(0) = I/(6 pi ell) finite, so no singularity
subtraction is needed.

The solver factorizes the weight-symmetrized matrix

    Mt = W^{1/2} M W^{1/2}

which is symmetric by construction (Z is even and symmetric) and positive
definite for valid discretizations; a failed Cholesky factorization is
reported and a symmetric-indefinite factorization is used as fallback.

Sign conventions: f is the force per unit length exerted by the body on the
fluid, so the hydrodynamic force and torque on the body are

    F = -sum_k w_k f_k,      T = -sum_k w_k x_k x f_k

and the resistance tensors satisfy F = -(K xi + S omega),
T = -(C xi + B omega), with A = [[K, S], [C, B]] symmetric positive
(semi-)definite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs

from .errors import AssemblyError, InvalidArgument, SingularSystemError
from .geometry import DiscretizedBody
from .kernel import HyperKernel, oseen_tensor

__all__ = [
    "KernelMatrix",
    "ResistanceSet",
    "assemble",
    "solve_rigid",
    "force_torque",
    "resistance",
    "disturbance_velocity",
    "dissipation",
]

_ASSEMBLY_CHUNK_ENTRIES = 2_000_000  # pairwise Z values held at once


@dataclass(eq=False)
class KernelMatrix:
    """Assembled and factorized collocation system for one body and kernel.

    ``matrix`` is the symmetrized system W^{1/2} M W^{1/2}; ``condition``
    is a LAPACK 1-norm estimate.  ``positive_definite`` records whether the
    Cholesky factorization succeeded.
    """

    body: DiscretizedBody
    kernel: HyperKernel
    matrix: np.ndarray
    condition: float
    positive_definite: bool
    _factor: tuple
    _sqrt_w: np.ndarray

    def solve(self, u: np.ndarray) -> np.ndarray:
        """Force density f with (M W) f = u, for u of shape (3N,) or (3N, k).

        Solves Mt y = W^{1/2} u in the symmetrized variables; f = W^{-1/2} y.
        """
        sw = self._sqrt_w if u.ndim == 1 else self._sqrt_w[:, None]
        if self.positive_definite:
            y = cho_solve(self._factor, sw * u)
        else:
            ldu, ipiv, sytrs = self._factor
            y, info = sytrs(ldu, ipiv, sw * u, lower=1)
            if info != 0:
                raise SingularSystemError(f"symmetric-indefinite solve failed (info={info})")
        return y / sw


def assemble(dbody: DiscretizedBody, kernel: HyperKernel) -> KernelMatrix:
    """Build and factorize the symmetrized kernel matrix.

    Raises AssemblyError for (near-)coincident nodes and SingularSystemError
    if both the Cholesky and the symmetric-indefinite factorization fail.
    """
    x = dbody.nodes
    w = dbody.weights
    n = len(x)
    size = 3 * n
    mt = np.empty((size, size))
    sw = np.repeat(np.sqrt(w), 3)
    diam = max(dbody.diameter, 1e-300)
    chunk = max(1, _ASSEMBLY_CHUNK_ENTRIES // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = x[lo:hi, None, :] - x[None, :, :]
        r = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(r[:, lo:hi], np.inf)
        if r.min() < 1e-12 * diam:
            raise AssemblyError(
                f"coincident quadrature nodes (min spacing {r.min():.3e})"
            )
        blocks = oseen_tensor(diff, kernel)  # (hi-lo, n, 3, 3)
        mt[3 * lo : 3 * hi] = blocks.transpose(0, 2, 1, 3).reshape(3 * (hi - lo), size)
    mt *= sw[:, None]
    mt *= sw[None, :]

    anorm = np.abs(mt).sum(axis=0).max()
    positive_definite = True
    try:
        factor = cho_factor(mt, lower=True)
        pocon = get_lapack_funcs("pocon", (mt,))
        rcond, _ = pocon(factor[0], anorm, uplo="L")
    except np.linalg.LinAlgError:
        positive_definite = False
        warnings.warn(
            "kernel matrix is not positive definite; falling back to a "
            "symmetric-indefinite factorization",
            stacklevel=2,
        )
        sytrf, sytrs, sycon = get_lapack_funcs(("sytrf", "sytrs", "sycon"), (mt,))
        ldu, ipiv, info = sytrf(mt, lower=1)
        if info != 0:
            raise SingularSystemError(
                f"kernel matrix factorization failed (sytrf info={info})"
            ) from None
        factor = (ldu, ipiv, sytrs)
        rcond, _ = sycon(ldu, ipiv, anorm, lower=1)
    condition = 1.0 / rcond if rcond > 0.0 else np.inf
    return KernelMatrix(
        body=dbody,
        kernel=kernel,
        matrix=mt,
        condition=float(condition),
        positive_definite=positive_definite,
        _factor=factor,
        _sqrt_w=sw,
    )


def _rigid_data(nodes: np.ndarray, xi, omega) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if xi.shape != (3,) or omega.shape != (3,):
        raise InvalidArgument("xi and omega must be 3-vectors")
    return xi + np.cross(np.broadcast_to(omega, nodes.shape), nodes)


def solve_rigid(km: KernelMatrix, xi, omega) -> np.ndarray:
    """Force density (N, 3) realizing the rigid velocity xi + omega x x on the body."""
    u = _rigid_data(km.body.nodes, xi, omega)
    return km.solve(u.ravel()).reshape(-1, 3)


def force_torque(f: np.ndarray, dbody: DiscretizedBody):
    """Hydrodynamic force and torque on the body (torque about the center of mass)."""
    f = np.asarray(f, dtype=float)
    if f.shape != dbody.nodes.shape:
        raise InvalidArgument(
            f"force density shape {f.shape} does not match body ({dbody.nodes.shape})"
        )
    w = dbody.weights
    force = -(w[:, None] * f).sum(axis=0)
    torque = -(w[:, None] * np.cross(dbody.nodes, f)).sum(axis=0)
    return force, torque


@dataclass(eq=False)
class ResistanceSet:
    """The tensors K, S, C, B, the 6x6 grand matrix A and solver diagnostics.

    spin_nullity flags rigid rotations with identically zero boundary data:
    1 for a body whose nodes are collinear through the origin (no resistance
    to spin about ``spin_axis``), 3 for a single node.  The corresponding
    rows/columns of B vanish identically and A is only positive
    semi-definite; such modes are reported, never silently inverted.
    """

    K: np.ndarray
    S: np.ndarray
    C: np.ndarray
    B: np.ndarray
    A: np.ndarray
    n_nodes: int
    condition: float
    asymmetry: float
    min_eigenvalue: float
    spin_nullity: int = 0
    spin_axis: np.ndarray | None = None

    @classmethod
    def from_blocks(cls, K, S, C, B, n_nodes: int = 0, condition: float = np.nan,
                    spin_nullity: int = 0, spin_axis: np.ndarray | None = None):
        """Assemble a ResistanceSet from 3x3 blocks and compute its diagnostics."""
        K, S, C, B = (np.asarray(m, dtype=float) for m in (K, S, C, B))
        a = np.block([[K, S], [C, B]])
        asym = float(np.linalg.norm(a - a.T) / max(np.linalg.norm(a), 1e-300))
        min_eig = float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())
        return cls(
            K=K,
            S=S,
            C=C,
            B=B,
            A=a,
            n_nodes=n_nodes,
            condition=condition,
            asymmetry=asym,
            min_eigenvalue=min_eig,
            spin_nullity=spin_nullity,
            spin_axis=spin_axis,
        )


def _spin_degeneracy(nodes: np.ndarray):
    """Detect rotation data e x x vanishing at every node (collinear bodies)."""
    sv = np.linalg.svd(nodes, compute_uv=False)
    if sv[0] <= 1e-300:
        return 3, None  # single node at the origin: no rotation is resisted
    if sv[1] <= 1e-12 * sv[0]:
        _, _, vt = np.linalg.svd(nodes)
        return 1, vt[0]
    return 0, None


def resistance(
    dbody: DiscretizedBody,
    kernel: HyperKernel,
    matrix: KernelMatrix | None = None,
) -> ResistanceSet:
    """Six rigid solves (unit translations e_i, unit rotations e_i x x) -> A.

    Entry A[a, b] is the weighted pairing sum_k w_k U^(a)_k . f^(b)_k of the
    boundary data of problem a with the force density of problem b; the
    reciprocity of the underlying operator makes A symmetric up to solver
    roundoff, which is reported in ``asymmetry`` rather than enforced.
    """
    km = matrix if matrix is not None else assemble(dbody, kernel)
    x = dbody.nodes
    w = dbody.weights
    n = len(x)
    u = np.zeros((n, 3, 6))
    for i in range(3):
        u[:, i, i] = 1.0
        e = np.zeros(3)
        e[i] = 1.0
        u[:, :, 3 + i] = np.cross(np.broadcast_to(e, (n, 3)), x)
    f = km.solve(u.reshape(3 * n, 6)).reshape(n, 3, 6)
    a = np.einsum("k,kia,kib->ab", w, u, f)
    nullity, axis = _spin_degeneracy(x)
    return ResistanceSet.from_blocks(
        a[:3, :3].copy(), a[:3, 3:].copy(), a[3:, :3].copy(), a[3:, 3:].copy(),
        n_nodes=n, condition=km.condition, spin_nullity=nullity, spin_axis=axis,
    )


def disturbance_velocity(
    x_eval, f: np.ndarray, dbody: DiscretizedBody, kernel: HyperKernel
) -> np.ndarray:
    """Fluid velocity u(x) = sum_k Z(x - x_k) w_k f_k at arbitrary points."""
    x_eval = np.asarray(x_eval, dtype=float)
    diff = x_eval[..., None, :] - dbody.nodes
    z = oseen_tensor(diff, kernel)
    return np.einsum("...kij,k,kj->...i", z, dbody.weights, np.asarray(f, dtype=float))


def dissipation(f: np.ndarray, dbody: DiscretizedBody, kernel: HyperKernel) -> float:
    """Discrete dissipation sum_kl w_k w_l f_k . Z(x_k - x_l) f_l (>= 0)."""
    f = np.asarray(f, dtype=float)
    x = dbody.nodes
    w = dbody.weights
    z = oseen_tensor(x[:, None, :] - x[None, :, :], kernel)
    return float(np.einsum("k,l,ki,klij,lj->", w, w, f, z, f))
