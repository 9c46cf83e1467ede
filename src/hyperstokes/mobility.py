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
reported as SingularSystemError.

When the nodes have a point-free involution x -> c + Q (x - c) permuting
them by sigma with equal weights (:attr:`DiscretizedBody.involution`), Mt
commutes with P_sigma (x) Q.  In the orthonormal basis
(e_k (x) v +- e_sigma(k) (x) Q v) / sqrt(2) over the representatives
k < sigma(k) it splits into two blocks Mt+ and Mt- of half the size, with
3x3 blocks Mt_kl +- Mt_k,sigma(l) Q, which are filled and factored instead
of Mt: a quarter of the factorization work and half the memory.

Sign conventions: f is the force per unit length exerted by the body on the
fluid, so the hydrodynamic force and torque on the body are

    F = -sum_k w_k f_k,      T = -sum_k w_k x_k x f_k

and the resistance tensors satisfy F = -(K xi + S omega),
T = -(C xi + B omega), with A = [[K, S], [C, B]] symmetric positive
(semi-)definite.
"""

from __future__ import annotations

import os
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

_ASSEMBLY_CHUNK_PAIRS = 50_000  # pair evaluations per fill step; its ~3.6 MB of output stays in cache
_MEMINFO = "/proc/meminfo"


@dataclass(eq=False)
class KernelMatrix:
    """Factorized collocation system for one body and kernel.

    Only the Cholesky factors of the symmetrized system W^{1/2} M W^{1/2}
    are kept (:func:`symmetrized_matrix` returns the system itself):
    ``_factor`` is ``(L,)``, or ``(L+, L-)`` of its two blocks when
    ``_split = (Q, representatives, images)`` of the body's involution is
    set.  ``condition`` is a LAPACK 1-norm estimate for the block-diagonal
    system that was factored.
    """

    body: DiscretizedBody
    kernel: HyperKernel
    condition: float
    _factor: tuple
    _sqrt_w: np.ndarray
    _split: tuple | None = None

    @property
    def positive_definite(self) -> bool:
        """Always True: a system whose Cholesky factorization fails is refused."""
        return True

    def solve(self, u: np.ndarray) -> np.ndarray:
        """Force density f with (M W) f = u, for u of shape (3N,) or (3N, k).

        Solves Mt y = W^{1/2} u in the symmetrized variables; f = W^{-1/2} y.
        Split systems solve Mt+- z+- = u+- with u+-_k = (u_k +- Q u_sigma(k)) / 2
        and recombine y_k = z+_k + z-_k, y_sigma(k) = Q (z+_k - z-_k).
        """
        if not np.all(np.isfinite(u)):
            raise InvalidArgument("non-finite boundary data")
        sw = self._sqrt_w if u.ndim == 1 else self._sqrt_w[:, None]
        # potrs reads only the lower triangle; the upper one was never written
        if self._split is None:
            return cho_solve(self._factor[0], sw * u) / sw
        q, reps, images = self._split
        y = (sw * u).reshape(len(sw) // 3, 3, -1)
        own = 0.5 * y[reps]
        mirrored = q @ (0.5 * y[images])
        plus, minus = (cho_solve(c, rhs.reshape(-1, y.shape[2])).reshape(own.shape)
                       for c, rhs in zip(self._factor, (own + mirrored, own - mirrored)))
        y[reps] = plus + minus
        y[images] = q @ (plus - minus)
        return y.reshape(u.shape) / sw


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


def _column_blocks(n: int, count: int = 1) -> list[tuple[int, int]]:
    """Node ranges [lo, hi) of the fill steps, one column block each.

    A fill into ``count`` = 2 split blocks evaluates two node pairs (direct
    and cross) per pair of representatives, so its steps are half as wide.
    """
    chunk = max(1, _ASSEMBLY_CHUNK_PAIRS // max(count * n, 1))
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _check_memory(need: float, what_needs: str, advice: str, error=AssemblyError) -> None:
    """Raise ``error`` if ``need`` bytes exceed physical memory or, where the
    system reports it, the memory available now."""
    for what, have in (("physical memory", _physical_memory_bytes()),
                       ("memory available now", _available_memory_bytes())):
        if have is not None and need > have:
            raise error(f"{what_needs} {need / 2**30:.3g} GiB, more than the "
                        f"{have / 2**30:.3g} GiB of {what}; {advice}")


def _empty_matrix(m: int, count: int) -> np.ndarray:
    """Uninitialized Fortran-order (m, m, count) array: ``count`` square matrices.

    Each ``[:, :, t]`` is a Fortran-order matrix of its own.  Its 8 m^2 count
    bytes are checked by :func:`_check_memory` first, so that a matrix the
    operating system would kill the process for ends in an AssemblyError.
    """
    _check_memory(8 * m * m * count,
                  f"the {m} x {m} kernel matrix needs" if count == 1
                  else f"the {count} kernel matrix blocks of {m} x {m} need",
                  "lower the resolution")
    return np.empty((m, m, count), order="F")


def _split_nodes(involution) -> tuple | None:
    """(Q, representatives k < sigma(k), their images) of an involution, or None."""
    if involution is None:
        return None
    sigma = involution.sigma
    reps = np.flatnonzero(sigma > np.arange(len(sigma)))
    return involution.Q, reps, sigma[reps]


def _fill_lower(mt: np.ndarray, dbody: DiscretizedBody, kernel: HyperKernel,
                split: tuple | None = None) -> list[float]:
    """Fill the lower block triangles of W^{1/2} M W^{1/2} or its two split blocks.

    With ``split = None``, ``mt[:, :, 0]`` gets the (3N, 3N) matrix; with
    ``split = (Q, reps, images)`` from :func:`_split_nodes`, ``mt[:, :, 0]``
    and ``mt[:, :, 1]`` get the blocks Mt+ and Mt- over the representatives.
    Returns the 1-norm of each.

    Column block [lo, hi) of the (representative) nodes gets rows lo:n, so
    only the blocks (k, l) with k >= l, plus the upper halves of the
    diagonal square blocks, are written; the rest of ``mt`` is left as it
    was.  Block (k, l) is sqrt(w_k w_l) Z(d), d = x_k - x_l, filled from the
    two scalars a = D(s)/s and b = Y(s)/(s |d|^2) per node pair as
    b d_i d_j + a delta_ij (times sqrt(w_k w_l) / (8 pi ell)).  A split adds
    the cross term sqrt(w_k w_l) Z(d') Q, d' = x_k - x_sigma(l), with entries
    b' d'_i (Q d')_j + a' Q_ij, to the block of Mt+ and subtracts it from
    that of Mt-.

    The column blocks run on a thread pool (numpy releases the GIL in the
    ufuncs) and write disjoint columns; with one block or one usable CPU the
    calling thread fills them itself.  Each returns its minimum node
    spacing, its largest distance and the absolute sums of its columns and
    of its rows below the diagonal block; the calling thread combines them
    in block order, so the result does not depend on thread timing.  By
    symmetry a row sum below the diagonal block is the sum over the
    unfilled part of a later column, so the combined sums are the column
    sums of the full symmetric matrix and their maximum is its 1-norm.  The
    direct and cross pairs of a split together cover every pair of nodes,
    so the spacing and distance checks see all of them.

    Raises AssemblyError for (near-)coincident nodes and for a non-finite
    entry (which makes its column sum, hence the norm, non-finite).
    """
    x = dbody.nodes
    w = dbody.weights
    if split is not None:
        q, reps, images = split
        x, w, partners = x[reps], w[reps], x[images]
    n = len(x)
    targets = range(mt.shape[2])
    blocks = [mt[:, :, t].T.reshape(n, 3, n, 3) for t in targets]  # [l, j, k, i] = [3k+i, 3l+j]
    scale = 1.0 / (8.0 * pi * kernel.ell)

    def pair_factors(d, lo, hi):
        """Distances of the pairs with separations d and their scaled factors a, b."""
        r2 = (d * d).sum(axis=-1)
        r = np.sqrt(r2)
        a, b = _factors_over_s(r / kernel.ell, kernel)
        c = np.sqrt(w[lo:hi, None] * w[None, lo:]) * scale
        a *= c
        b *= c
        b /= np.where(r2 > 0.0, r2, 1.0)  # d = 0 only on the diagonal, where b = 0
        return r, a, b

    def write(lo, hi):
        """Fill column block [lo, hi); return its minimum spacing and largest distance."""
        d = x[lo:hi, None, :] - x[None, lo:, :]
        r, a, b = pair_factors(d, lo, hi)
        diam = r.max()
        own = r[:, : hi - lo]
        np.fill_diagonal(own, np.inf)
        spacing = r.min()
        for i in range(3):
            for j in range(i, 3):
                comp = b * (d[..., i] * d[..., j])
                if i == j:
                    comp += a
                for target in blocks:
                    target[lo:hi, j, lo:, i] = comp
                    if i != j:
                        target[lo:hi, i, lo:, j] = comp
        if split is None:
            return spacing, diam
        # the cross term, once the direct one's temporaries are freed
        del d, r, own, a, b, comp
        d = x[None, lo:, :] - partners[lo:hi, None, :]
        r, a, b = pair_factors(d, lo, hi)
        qd = d @ q
        for i in range(3):
            for j in range(3):
                cross = b * (d[..., i] * qd[..., j])
                cross += a * q[i, j]
                plus = blocks[0][lo:hi, j, lo:, i]
                plus += cross
                minus = blocks[1][lo:hi, j, lo:, i]
                minus -= cross
        return min(spacing, r.min()), max(diam, r.max())

    def fill(bounds):
        lo, hi = bounds
        spacing, diam = write(lo, hi)
        sums = []
        for t in targets:
            filled = np.abs(mt[3 * lo:, 3 * lo:3 * hi, t])
            sums.append((filled.sum(axis=0), filled[3 * (hi - lo):].sum(axis=1)))
            del filled
        return spacing, diam, sums

    bounds = _column_blocks(n, len(targets))
    spacing = np.inf
    diam = 0.0
    col_sums = np.zeros((len(targets), 3 * n))
    workers = min(_usable_cpus(), len(bounds))
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        filled = pool.map(fill, bounds) if pool is not None else map(fill, bounds)
        for (lo, hi), (sp, dm, sums) in zip(bounds, filled):
            spacing = min(spacing, sp)
            diam = max(diam, dm)
            for t, (own_cols, rows_below) in zip(targets, sums):
                col_sums[t, 3 * lo:3 * hi] += own_cols
                col_sums[t, 3 * hi:] += rows_below
    if spacing < 1e-12 * max(diam, 1e-300):
        raise AssemblyError(f"coincident quadrature nodes (min spacing {spacing:.3e})")
    norms = [float(sums.max()) for sums in col_sums]
    if not np.all(np.isfinite(norms)):
        raise AssemblyError(f"non-finite entry in the kernel matrix (1-norms {norms})")
    return norms


def symmetrized_matrix(dbody: DiscretizedBody, kernel: HyperKernel) -> np.ndarray:
    """The symmetrized system W^{1/2} M W^{1/2} as a Fortran-order (3N, 3N) array.

    The full matrix, for tests and inspection: the lower block triangle of
    the unsplit fill, mirrored into the upper one.  Swapping k and l only
    flips the sign of d, and each of the six distinct components of a
    block is computed once and written to both (i, j) and (j, i), so the
    matrix equals its transpose bit for bit.

    Raises AssemblyError for (near-)coincident nodes, a non-finite entry or
    a matrix larger than physical or available memory.
    """
    n = dbody.n_nodes
    mt = _empty_matrix(3 * n, 1)
    _fill_lower(mt, dbody, kernel)
    mt = mt[:, :, 0]
    for lo, hi in _column_blocks(n):
        mt[3 * lo:3 * hi, 3 * hi:] = mt[3 * hi:, 3 * lo:3 * hi].T
    return mt


def assemble(dbody: DiscretizedBody, kernel: HyperKernel) -> KernelMatrix:
    """Fill the lower triangle of the symmetrized kernel matrix and factorize it in place.

    Only the lower triangle is computed, checked and factored; the 1-norm
    for the condition estimate and the finiteness check come from the fill.
    A body with a point-free involution gets the two half-size blocks of
    its split instead of the (3N, 3N) matrix.  The bytes to be allocated
    are checked against physical and available memory first.  ``condition``
    is the 1-norm estimate max_t |Mt_t| * max_t 1 / (rcond_t |Mt_t|) of the
    block-diagonal system; with one block, 1 / rcond.

    Raises AssemblyError for (near-)coincident nodes, a non-finite entry or
    a matrix larger than physical or available memory, and
    SingularSystemError if a Cholesky factorization fails.
    """
    split = _split_nodes(dbody.involution)
    count = 1 if split is None else 2
    mt = _empty_matrix(3 * dbody.n_nodes // count, count)
    norms = _fill_lower(mt, dbody, kernel, split)
    top = max(norms)
    factors = []
    condition = 0.0
    for t, anorm in enumerate(norms):
        try:
            factors.append(cho_factor(mt[:, :, t]))
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"kernel matrix factorization failed: {exc}") from None
        rcond = pocon(factors[-1], anorm)
        condition = max(condition, top / anorm / rcond if rcond > 0.0 else np.inf)
    return KernelMatrix(
        body=dbody,
        kernel=kernel,
        condition=float(condition),
        _factor=tuple(factors),
        _sqrt_w=np.repeat(np.sqrt(dbody.weights), 3),
        _split=split,
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
