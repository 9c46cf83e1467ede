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

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from math import pi

import numpy as np

from ._lapack import cho_factor, cho_solve, pocon
from .errors import AssemblyError, InvalidArgument, SingularSystemError
from .geometry import DiscretizedBody
from .kernel import HyperKernel, _factors_over_s, oseen_tensor

__all__ = [
    "KernelMatrix",
    "ResistanceSet",
    "assemble",
    "symmetrized_matrix",
    "solve_rigid",
    "force_torque",
    "resistance",
    "disturbance_velocity",
    "dissipation",
]

_ASSEMBLY_CHUNK_PAIRS = 50_000  # node pairs per fill step; its ~3.6 MB of output stays in cache
_MEMINFO = "/proc/meminfo"


@dataclass(eq=False)
class KernelMatrix:
    """Factorized collocation system for one body and kernel.

    Only the factor of the symmetrized system W^{1/2} M W^{1/2} is kept
    (:func:`symmetrized_matrix` returns the system itself); ``condition`` is
    a LAPACK 1-norm estimate for it.  ``positive_definite`` records whether
    the Cholesky factorization succeeded; ``_factor`` is then ``(L,)``, and
    ``(ldu, ipiv, sytrs)`` of the symmetric-indefinite fallback otherwise.
    """

    body: DiscretizedBody
    kernel: HyperKernel
    condition: float
    positive_definite: bool
    _factor: tuple
    _sqrt_w: np.ndarray

    def solve(self, u: np.ndarray) -> np.ndarray:
        """Force density f with (M W) f = u, for u of shape (3N,) or (3N, k).

        Solves Mt y = W^{1/2} u in the symmetrized variables; f = W^{-1/2} y.
        """
        if not np.all(np.isfinite(u)):
            raise InvalidArgument("non-finite boundary data")
        sw = self._sqrt_w if u.ndim == 1 else self._sqrt_w[:, None]
        if self.positive_definite:
            # potrs reads only the lower triangle; the upper one was never written
            y = cho_solve(self._factor[0], sw * u)
        else:
            ldu, ipiv, sytrs = self._factor
            y, info = sytrs(ldu, ipiv, sw * u, lower=1)
            if info != 0:
                raise SingularSystemError(f"symmetric-indefinite solve failed (info={info})")
        return y / sw


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _available_memory_bytes() -> int | None:
    """``MemAvailable`` of /proc/meminfo, or None where it cannot be read."""
    try:
        with open(_MEMINFO) as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the file counts kB
    except (OSError, ValueError, IndexError):
        pass
    return None


def _column_blocks(n: int) -> list[tuple[int, int]]:
    """Node ranges [lo, hi) of the fill steps, one column block each."""
    chunk = max(1, _ASSEMBLY_CHUNK_PAIRS // max(n, 1))
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _empty_matrix(n: int) -> np.ndarray:
    """Uninitialized Fortran-order (3N, 3N) array.

    Refused if it exceeds physical memory or the memory available now (when
    the system reports it), so that a matrix the operating system would
    kill the process for ends in a clean AssemblyError instead.
    """
    need = 8 * (3 * n) ** 2
    limits = [("physical memory", _physical_memory_bytes()),
              ("memory available now", _available_memory_bytes())]
    for what, have in limits:
        if have is not None and need > have:
            raise AssemblyError(
                f"the {3 * n} x {3 * n} kernel matrix of {n} nodes needs "
                f"{need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of "
                f"{what}; lower the resolution"
            )
    return np.empty((3 * n, 3 * n), order="F")


def _fill_lower(mt: np.ndarray, dbody: DiscretizedBody, kernel: HyperKernel) -> float:
    """Fill the lower block triangle of W^{1/2} M W^{1/2} into ``mt``; return its 1-norm.

    Column block [lo, hi) of the nodes gets rows lo:N, so only the blocks
    (k, l) with k >= l, plus the upper halves of the diagonal square blocks,
    are written; the rest of ``mt`` is left as it was.  Block (k, l) is
    sqrt(w_k w_l) Z(d), d = x_k - x_l, filled from the two scalars
    a = D(s)/s and b = Y(s)/(s |d|^2) per node pair as b d_i d_j + a delta_ij
    (times sqrt(w_k w_l) / (8 pi ell)).

    The column blocks run on a thread pool (numpy releases the GIL in the
    ufuncs) and write disjoint columns; with one block or one usable CPU the
    calling thread fills them itself.  Each returns its minimum node
    spacing, its largest distance and the absolute sums of its columns and
    of its rows below the diagonal block; the calling thread combines them
    in block order, so the result does not depend on thread timing.  By
    symmetry a row sum below the diagonal block is the sum over the
    unfilled part of a later column, so the combined sums are the column
    sums of the full symmetric matrix and their maximum is its 1-norm.

    Raises AssemblyError for (near-)coincident nodes and for a non-finite
    entry (which makes its column sum, hence the norm, non-finite).
    """
    x = dbody.nodes
    w = dbody.weights
    n = len(x)
    blocks = mt.T.reshape(n, 3, n, 3)  # blocks[l, j, k, i] = mt[3k + i, 3l + j]
    scale = 1.0 / (8.0 * pi * kernel.ell)

    def fill(bounds):
        lo, hi = bounds
        d = x[lo:hi, None, :] - x[None, lo:, :]
        r2 = (d * d).sum(axis=-1)
        r = np.sqrt(r2)
        diam = r.max()
        own = r[:, : hi - lo]
        np.fill_diagonal(own, np.inf)
        spacing = r.min()
        np.fill_diagonal(own, 0.0)
        a, b = _factors_over_s(r / kernel.ell, kernel)
        c = np.sqrt(w[lo:hi, None] * w[None, lo:]) * scale
        a *= c
        b *= c
        b /= np.where(r2 > 0.0, r2, 1.0)  # d = 0 only on the diagonal, where b = 0
        for i in range(3):
            for j in range(i, 3):
                comp = b * (d[..., i] * d[..., j])
                if i == j:
                    comp += a
                blocks[lo:hi, j, lo:, i] = comp
                blocks[lo:hi, i, lo:, j] = comp
        filled = np.abs(mt[3 * lo:, 3 * lo:3 * hi])
        return spacing, diam, filled.sum(axis=0), filled[3 * (hi - lo):].sum(axis=1)

    bounds = _column_blocks(n)
    spacing = np.inf
    diam = 0.0
    col_sums = np.zeros(3 * n)
    workers = min(_usable_cpus(), len(bounds))
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        filled = pool.map(fill, bounds) if pool is not None else map(fill, bounds)
        for (lo, hi), (sp, dm, own_cols, rows_below) in zip(bounds, filled):
            spacing = min(spacing, sp)
            diam = max(diam, dm)
            col_sums[3 * lo:3 * hi] += own_cols
            col_sums[3 * hi:] += rows_below
    if spacing < 1e-12 * max(diam, 1e-300):
        raise AssemblyError(f"coincident quadrature nodes (min spacing {spacing:.3e})")
    anorm = float(col_sums.max())
    if not np.isfinite(anorm):
        raise AssemblyError(f"non-finite entry in the kernel matrix (1-norm {anorm})")
    return anorm


def symmetrized_matrix(dbody: DiscretizedBody, kernel: HyperKernel) -> np.ndarray:
    """The symmetrized system W^{1/2} M W^{1/2} as a Fortran-order (3N, 3N) array.

    The full matrix, for tests and inspection: the lower block triangle that
    :func:`assemble` factors, mirrored into the upper one.  Swapping k and l
    only flips the sign of d, and each of the six distinct components of a
    block is computed once and written to both (i, j) and (j, i), so the
    matrix equals its transpose bit for bit.

    Raises AssemblyError for (near-)coincident nodes, a non-finite entry or
    a matrix larger than physical or available memory.
    """
    n = dbody.n_nodes
    mt = _empty_matrix(n)
    _fill_lower(mt, dbody, kernel)
    for lo, hi in _column_blocks(n):
        mt[3 * lo:3 * hi, 3 * hi:] = mt[3 * hi:, 3 * lo:3 * hi].T
    return mt


def assemble(dbody: DiscretizedBody, kernel: HyperKernel) -> KernelMatrix:
    """Fill the lower triangle of the symmetrized kernel matrix and factorize it in place.

    Only the lower triangle is computed, checked and factored; the 1-norm
    for the condition estimate and the finiteness check come from the fill.
    The 8 (3N)^2 bytes of the matrix are checked against physical and
    available memory before anything is allocated.

    Raises AssemblyError for (near-)coincident nodes, a non-finite entry or
    a matrix larger than physical or available memory, and
    SingularSystemError if both the Cholesky and the symmetric-indefinite
    factorization fail.
    """
    mt = _empty_matrix(dbody.n_nodes)
    anorm = _fill_lower(mt, dbody, kernel)
    try:
        factor = (cho_factor(mt),)
    except np.linalg.LinAlgError:
        factor = None
    if factor is not None:
        positive_definite = True
        rcond = pocon(factor[0], anorm)
    else:
        from scipy.linalg import get_lapack_funcs  # the one solver path that needs scipy

        positive_definite = False
        warnings.warn(
            "kernel matrix is not positive definite; falling back to a "
            "symmetric-indefinite factorization",
            stacklevel=2,
        )
        # the failed Cholesky factorization overwrote the lower triangle
        _fill_lower(mt, dbody, kernel)
        sytrf, sytrs, sycon = get_lapack_funcs(("sytrf", "sytrs", "sycon"), (mt,))
        ldu, ipiv, info = sytrf(mt, lower=1, overwrite_a=1)
        if info != 0:
            raise SingularSystemError(
                f"kernel matrix factorization failed (sytrf info={info})"
            )
        factor = (ldu, ipiv, sytrs)
        rcond, _ = sycon(ldu, ipiv, anorm, lower=1)
    condition = 1.0 / rcond if rcond > 0.0 else np.inf
    return KernelMatrix(
        body=dbody,
        kernel=kernel,
        condition=float(condition),
        positive_definite=positive_definite,
        _factor=factor,
        _sqrt_w=np.repeat(np.sqrt(dbody.weights), 3),
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
