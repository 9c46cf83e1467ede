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

Every body is solved through the involution x -> c + Q (x - c) of its
nodes (:attr:`DiscretizedBody.involution`), which permutes them by sigma
with equal weights, so that Mt commutes with P_sigma (x) Q.  Its orbits are
node pairs k < sigma(k) and fixed nodes sigma(k) = k.  In the frame of
eigenvectors r_i of Q (Q r_i = s_i r_i) the orthonormal basis vectors

    (e_k (x) r_i +- s_i e_sigma(k) (x) r_i) / sqrt(2)    for a pair, each i,
    e_k (x) r_i                                          for a fixed node, s_i = +-1,

split Mt into two blocks Mt+ and Mt- with 3x3 blocks Mt_kl +- Mt_k,sigma(l) Q
between pairs; a fixed node contributes only its components in the
eigenspace E+-(Q) to block +-.  With p pairs and f fixed nodes the blocks
have orders m+- = 3 p + f dim E+-, which differ when f > 0; their
factorization costs m+^3 + m-^3, a quarter of (3N)^3 for a point-free map.
A body without symmetry is the identity case Q = I: every node is fixed,
Mt+ is Mt itself and Mt- is empty.  The two blocks share one array, one
triangle each, in the memory of the larger block alone.

Sign conventions: f is the force per unit length exerted by the body on the
fluid, so the hydrodynamic force and torque on the body are

    F = -sum_k w_k f_k,      T = -sum_k w_k x_k x f_k

and the resistance tensors satisfy F = -(K xi + S omega),
T = -(C xi + B omega), with A = [[K, S], [C, B]] symmetric positive
(semi-)definite.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import pi

import numpy as np

from ._lapack import cho_factor, cho_solve, lansy, pocon, single_threaded
from .errors import AssemblyError, InvalidArgument, SingularSystemError, _check_memory
from .geometry import DiscretizedBody, Involution
from .kernel import (HyperKernel, _as_points, _factors_over_s, _over_ell, _over_pi_length,
                     stokeslet_velocity)
from .kernel import oseen_tensor  # unused here; perfbench/tracing.py patches this name

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

_ASSEMBLY_CHUNK_PAIRS = 50_000  # pair evaluations per fill step; its ~3.6 MB of output stays in cache
_SQRT_HALF = np.sqrt(0.5)


@dataclass(eq=False)
class KernelMatrix:
    """Factorized collocation system for one body and kernel.

    Only the Cholesky factors of the symmetrized system W^{1/2} M W^{1/2}
    are kept: they overwrite the system's triangles, and the system itself
    is not kept anywhere.  They are split by the orbits of the body's
    involution: ``_factor`` holds one ``(factor, lower)`` pair per
    non-empty block, as :func:`_triangles` gives them, the larger block
    first.  A body without symmetry has the single block of its identity
    case, the whole system.  ``condition`` is LAPACK's 1-norm estimate for
    the split, block-diagonal system that was factored: a lower bound on
    that system's condition number only (:func:`assemble`).
    """

    body: DiscretizedBody
    kernel: HyperKernel
    condition: float
    _factor: tuple
    _orbits: _Orbits

    @property
    def positive_definite(self) -> bool:
        """Always True: a system whose Cholesky factorization fails is refused."""
        return True

    def solve(self, u: np.ndarray) -> np.ndarray:
        """Force density f with (M W) f = u, for u of shape (3N,) or (3N, k).

        Solves Mt y = g = W^{1/2} u in the symmetrized variables; f = W^{-1/2} y.
        With g and y turned into the eigenframe of Q, block t solves
        Mt_t z_t = B_t^T g in its orthonormal basis B_t (the module
        docstring): (g_k + s g_sigma(k)) / sqrt(2) for a pair, with the
        block's signs s = +-diag(Q), and the block's components of g_k for
        a fixed node.  Then y = sum_t B_t z_t: y_k = (z+_k + z-_k) / sqrt(2)
        and y_sigma(k) = s+ (z+_k - z-_k) / sqrt(2) for a pair, y_k = z_k
        for a fixed node.  The blocks' solves run as :func:`_side_by_side` says.

        Raises InvalidArgument for data of another shape or with a
        non-finite entry.
        """
        m = 3 * self.body.n_nodes
        if np.ndim(u) not in (1, 2) or np.shape(u)[0] != m:
            raise InvalidArgument(f"boundary data of shape {np.shape(u)}; "
                                  f"expected ({m},) or ({m}, k)")
        if not np.all(np.isfinite(u)):
            raise InvalidArgument("non-finite boundary data")
        orb = self._orbits
        p = orb.pairs
        sw = np.sqrt(self.body.weights)[:, None, None]
        g = orb.frame.T @ (sw * np.reshape(u, (m // 3, 3, -1)))
        k = g.shape[2]
        own, mirrored = g[orb.nodes], g[orb.images]
        y = np.empty_like(g)
        rep_y, image_y = np.zeros_like(mirrored), np.zeros_like(mirrored)
        jobs = []
        for t, ((c, lower), order) in enumerate(zip(self._factor, orb.orders)):
            sign, fixed = orb.sign(t), orb.components(t)
            rhs = np.concatenate([((own[:p] + sign * mirrored) * _SQRT_HALF).reshape(3 * p, k),
                                  own[p:, fixed].reshape(order - 3 * p, k)])
            jobs.append((c, rhs, lower))  # potrs reads only the factor's own triangle
        for t, z in enumerate(_side_by_side(cho_solve, jobs)):
            sign, fixed = orb.sign(t), orb.components(t)
            pair_z = z[:3 * p].reshape(p, 3, k) * _SQRT_HALF
            rep_y += pair_z
            image_y += sign * pair_z
            y[orb.nodes[p:], fixed] = z[3 * p:].reshape(len(own) - p, fixed.stop - fixed.start, k)
        y[orb.nodes[:p]] = rep_y
        y[orb.images] = image_y
        return (orb.frame @ y / sw).reshape(np.shape(u))


@dataclass(frozen=True, eq=False)
class _Orbits:
    """The orbits of an involution's node permutation, and the eigenframe of its Q.

    ``nodes`` names one node of each orbit, the node pairs k < sigma(k)
    first, then the fixed nodes, in index order within each; ``images`` are
    the pairs' sigma(k).  The columns of ``frame`` are eigenvectors
    of +-Q, the sign taken so that the eigenvalue +1 has at least two of
    them, and ordered +1 first: the first ``plus`` components of a fixed
    node belong to block 0, the rest to block 1, so block 0 is never the
    smaller.
    """

    nodes: np.ndarray
    images: np.ndarray
    frame: np.ndarray
    plus: int

    @classmethod
    def of(cls, involution: Involution) -> _Orbits:
        sigma = involution.sigma
        index = np.arange(len(sigma))
        pairs = np.flatnonzero(sigma > index)
        nodes = np.concatenate([pairs, np.flatnonzero(sigma == index)])
        values, vectors = np.linalg.eigh(involution.Q)
        if np.count_nonzero(values > 0.0) < 2:
            values = -values  # -Q swaps the two blocks
        return cls(nodes=nodes, images=sigma[pairs],
                   frame=vectors[:, np.argsort(-values, kind="stable")],
                   plus=int(np.count_nonzero(values > 0.0)))

    def components(self, t: int) -> slice:
        """The frame components of a fixed node in block t."""
        return (slice(0, self.plus), slice(self.plus, 3))[t]

    def sign(self, t: int) -> np.ndarray:
        """diag(+-Q) in the frame, as a column, signed +1 on ``components(t)``."""
        s = np.where(np.arange(3) < self.plus, 1.0, -1.0)[:, None]
        return s if t == 0 else -s

    def start(self, t: int, k: int) -> int:
        """The first row of orbit k in block t: 3 per pair and a fixed node's components."""
        fixed = self.components(t)
        return 3 * min(k, self.pairs) + (fixed.stop - fixed.start) * max(k - self.pairs, 0)

    @property
    def pairs(self) -> int:
        return len(self.images)

    @property
    def orders(self) -> tuple[int, int]:
        return self.start(0, len(self.nodes)), self.start(1, len(self.nodes))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _column_blocks(n: int, pairs: int) -> list[tuple[int, int]]:
    """Orbit ranges [lo, hi) of the fill steps, one column block each.

    A pair column evaluates two node pairs (direct and cross) per row, so
    the steps over the ``pairs`` pair orbits are half as wide as those over
    the fixed nodes after them; no step holds both kinds.
    """
    blocks = []
    for first, end, evaluations in ((0, pairs, 2), (pairs, n, 1)):
        chunk = max(1, _ASSEMBLY_CHUNK_PAIRS // max(evaluations * n, 1))
        blocks += [(lo, min(lo + chunk, end)) for lo in range(first, end, chunk)]
    return blocks


def _empty_matrix(a: int, b: int) -> np.ndarray:
    """Uninitialized Fortran-order storage for symmetric blocks of orders a >= b.

    The two share one (a, max(a, b + 1)) array, one triangle each (see
    :func:`_triangles`), the idea of LAPACK's rectangular full packed format
    (Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 37(2), 2010); an
    empty second block takes no column.  The bytes are checked by
    :func:`_check_memory` first, so that a matrix the operating system would
    kill the process for ends in an AssemblyError.
    """
    cols = max(a, b + 1)
    _check_memory(8 * a * cols, f"the kernel matrix blocks of orders {a} and {b} need",
                  "lower the resolution")
    return np.empty((a, cols), order="F")


def _half_scale(kernel: HyperKernel) -> float:
    """0.5 / (8 pi ell), the scale of the fill's pairs; AssemblyError where it
    overflows, for ell below about 1.1e-310."""
    scale = _over_pi_length(0.5, 8.0 * pi, kernel.ell)
    if scale == np.inf:
        raise AssemblyError(f"ell {kernel.ell:g} is too small for the kernel matrix: "
                            "0.5 / (8 pi ell) overflows")
    return scale


def _triangles(mt: np.ndarray, orders: tuple[int, int]) -> list[tuple[np.ndarray, bool]]:
    """The ``(matrix, lower)`` views of the non-empty blocks stored in ``mt`` by :func:`_empty_matrix`.

    Each view is a Fortran-order square matrix with leading dimension a that
    keeps its block in the lower triangle when ``lower`` is set, else in the
    upper one.  Block 0 (order a) is the lower triangle of ``mt[:, :a]`` and
    block 1 (order b) the upper triangle of ``mt[:b, 1:b + 1]``, its element
    (r, c), r >= c, at ``mt[c, r + 1]``: the two are disjoint.
    """
    a, b = orders
    return [(mt[:, :a], True), (mt[:b, 1:b + 1], False)][:1 + (b > 0)]


def _fill_lower(mt: np.ndarray, dbody: DiscretizedBody, kernel: HyperKernel,
                orbits: _Orbits) -> None:
    """Fill the triangles of the blocks of W^{1/2} M W^{1/2} over ``orbits``.

    ``mt`` from ``_empty_matrix(*orbits.orders)`` gets each non-empty block
    in the triangle that :func:`_triangles` names.

    Column block [lo, hi) of the orbits (:func:`_column_blocks`) gets rows
    lo:n, and only the elements on or below the diagonal are written; the
    rest of ``mt`` is left as it was.  The rows below the block's own square
    go straight into ``mt`` (for a block kept transposed in an upper
    triangle, into that transposed view); the square is filled whole in a
    small temporary, of which only the lower triangle is copied.  In the
    frame of ``orbits``, with d = x_k - x_l and d' = x_k - x_sigma(l), block
    t's 3x3 block (k, l) is sqrt(o_k o_l) / 2 (Z(d) + S_t Z(d')), with S_t =
    diag(sign(t)) acting on columns and o the orbit weights (w_k + w_sigma(k)
    for a pair, w_k for a fixed node).  Z is filled from the two scalars
    a = D(s)/s and b = Y(s)/(s |d|^2) per node pair as b d_i d_j + a delta_ij
    (times 1 / (8 pi ell)).  For a fixed column l, d' = d, so the cross term
    is the direct one and costs no evaluation: the columns a block takes
    get sqrt(o_k o_l) Z(d).  A fixed row takes only its block's components,
    so rows and columns run over 3 components per pair and 1 to 3 per fixed
    node; for a fixed node in both, these are exactly the basis vectors
    e_k (x) r_i of the module docstring, and the identity case fills Mt.

    The column blocks are taken in order from one shared iterator by the
    calling thread and, with more than one usable CPU and more than two
    column blocks, by a helper thread as well (:func:`_two_threads`); numpy
    releases the interpreter lock in its array loops.  Each column block
    writes only its own elements, so the triangles are the same bit for
    bit whatever the interleaving.  If either worker raises, the other
    stops after its current column block.  The direct pairs and the cross
    pairs of the pair columns together cover every pair of nodes, so the
    spacing check sees all of them.

    Raises AssemblyError for (near-)coincident nodes.
    """
    n, p, reps = len(orbits.nodes), orbits.pairs, orbits.nodes
    # components first, in the frame
    xt = np.ascontiguousarray((dbody.nodes[reps] @ orbits.frame).T)
    pt = np.ascontiguousarray((dbody.nodes[orbits.images] @ orbits.frame).T)
    omega = dbody.weights[reps] * np.where(np.arange(n) < p, 2.0, 1.0)
    # element (r, c), r >= c, of block t is lowers[t][r, c]
    lowers = [view if lower else view.T for view, lower in _triangles(mt, orbits.orders)]
    signs = [orbits.sign(t)[:, 0] for t in range(len(lowers))]
    half_scale = _half_scale(kernel)

    def pair_factors(d, lo, hi):
        """Distances of the pairs with separations d (components first) and
        their scaled factors a, b."""
        r2 = d[0] * d[0]
        r2 += d[1] * d[1]
        r2 += d[2] * d[2]
        r = np.sqrt(r2)
        a, b = _factors_over_s(_over_ell(r, kernel), kernel)
        c = np.sqrt(omega[None, lo:hi] * omega[lo:, None]) * half_scale
        a *= c
        b *= c
        b /= np.where(r2 > 0.0, r2, 1.0)  # d = 0 only on the diagonal, where b = 0
        return r, a, b

    def write(lo, hi):
        """Fill column block [lo, hi); return its minimum spacing and largest distance."""
        c = hi - lo
        # components first, so that the arithmetic below reads contiguous arrays
        d = xt[:, None, lo:hi] - xt[:, lo:, None]  # [i, k, l], k in lo:n, l in lo:hi
        r, a, b = pair_factors(d, lo, hi)
        diam = r.max()
        np.fill_diagonal(r[:c], np.inf)
        spacing = r.min()
        pair_columns = hi <= p  # else fixed columns, whose cross term is the direct one
        if pair_columns:
            dx = pt[:, None, lo:hi] - xt[:, lo:, None]  # x_sigma(l) - x_k
            rx, ax, bx = pair_factors(dx, lo, hi)
            spacing, diam = min(spacing, rx.min()), max(diam, rx.max())
            cross = np.empty_like(b)
            del rx
        del r
        pair_rows = max(p - hi, 0)  # the pair rows below the square come first
        squares, segments, columns = [], [], []
        for t, low in enumerate(lowers):
            fixed = orbits.components(t)
            cols = slice(0, 3) if pair_columns else fixed
            first, last = orbits.start(t, lo), orbits.start(t, hi)
            per_node = (last - first) // c  # components of each column node in block t
            square = np.empty((last - first, last - first), order="F")
            rows = low[last:, first:last]
            split = 3 * pair_rows
            segments.append([  # (components, value rows, [k, i, l, j] target)
                (cols, slice(0, c), square.reshape(c, per_node, c, per_node)),
                (slice(0, 3), slice(c, c + pair_rows),
                 rows[:split].reshape(pair_rows, 3, c, per_node)),
                (fixed, slice(c + pair_rows, n - lo),
                 rows[split:].reshape(n - hi - pair_rows, fixed.stop - fixed.start, c, per_node)),
            ])
            squares.append(square)
            columns.append(cols)

        def emit(t, i, j, op, *values):
            """Write op(*values), component (i, j) of the node pairs, where block t has it."""
            if not columns[t].start <= j < columns[t].stop:
                return
            for comps, rows, target in segments[t]:
                if comps.start <= i < comps.stop:
                    op(*(v[rows] for v in values),
                       out=target[:, i - comps.start, :, j - columns[t].start])

        # work arrays for every component: fresh ones would each be paged in anew
        comp = np.empty_like(b)
        for i in range(3):
            for j in range(i, 3):
                np.multiply(d[i], d[j], out=comp)
                comp *= b
                if i == j:
                    comp += a
                term = comp
                if pair_columns:
                    np.multiply(dx[i], dx[j], out=cross)
                    cross *= bx
                    if i == j:
                        cross += ax
                    term = cross
                for u, v in ((i, j), (j, i)) if i != j else ((i, j),):
                    for t in range(len(lowers)):
                        emit(t, u, v, np.add if signs[t][v] > 0 else np.subtract, comp, term)
        for t, (low, square) in enumerate(zip(lowers, squares)):
            first, last = orbits.start(t, lo), orbits.start(t, hi)
            np.copyto(low[first:last, first:last], square,
                      where=np.tri(len(square), dtype=bool))
        return spacing, diam

    blocks = _column_blocks(n, p)
    untaken, taken = iter(blocks), threading.Lock()
    stop, extents = threading.Event(), []

    def fill_blocks():
        try:
            while not stop.is_set():
                with taken:
                    block = next(untaken, None)
                if block is None:
                    return
                extents.append(write(*block))
        except BaseException:
            stop.set()  # the other worker ends after its current column block
            raise

    if _usable_cpus() > 1 and len(blocks) > 2:  # below three, the thread start eats the gain
        _two_threads(fill_blocks, fill_blocks)
    else:
        fill_blocks()
    spacings, diams = zip(*extents)
    if min(spacings) < 1e-12 * max(*diams, 1e-300):
        raise AssemblyError(f"coincident quadrature nodes (min spacing {min(spacings):.3e})")


def _norm(c: np.ndarray, lower: bool) -> float:
    """LAPACK's lansy 1-norm of a ``(c, lower)`` of :func:`_triangles`;
    AssemblyError if it is not finite, as a NaN or inf entry makes it."""
    norm = lansy(c, lower)
    if not np.isfinite(norm):
        raise AssemblyError(f"non-finite entry in the kernel matrix (1-norm {norm})")
    return norm


def _factor_block(c: np.ndarray, lower: bool):
    """Take one block's 1-norm, factor the block in place and estimate its condition.

    Returns ``(anorm, rcond)``, or ``(anorm, exc)`` with the LinAlgError of
    a failed Cholesky factorization, which :func:`assemble` raises once
    every block has ended; a non-finite block raises AssemblyError here,
    before it is factored.
    """
    anorm = _norm(c, lower)
    try:
        cho_factor(c, lower)
    except np.linalg.LinAlgError as exc:
        return anorm, exc
    return anorm, pocon(c, anorm, lower)


def _two_threads(first, second) -> tuple:
    """``(first(), second())``, the first on the calling thread and the second
    on a helper thread at the same time.

    The helper has ended before this returns or raises: an exception on the
    calling thread (KeyboardInterrupt included, also one that arrives during
    the join) is raised once the helper has ended.  An exception of
    ``first`` comes before one of ``second``.
    """
    outcome = []

    def run_second():
        try:
            outcome.append(second())
        except BaseException as exc:  # raised on the calling thread after the join
            outcome.append(exc)

    helper = threading.Thread(target=run_second)
    helper.start()
    try:
        result = first()
    finally:
        interrupt = None
        while helper.is_alive():
            try:
                helper.join()
            except BaseException as exc:  # wait on: the helper must end first
                interrupt = exc
        if interrupt is not None:
            raise interrupt
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return result, outcome[0]


def _side_by_side(fn, jobs: list) -> list:
    """``fn(*job)`` of each of one or two LAPACK jobs, in job order.

    A single job runs with the library's own thread count.  Two jobs run
    with LAPACK pinned to one thread (:func:`_lapack.single_threaded`), the
    first on the calling thread and the second on a helper thread at the
    same time (:func:`_two_threads`), which two cores finish sooner than the
    two one after the other on both.  With one usable CPU the pinned jobs
    run one after the other, so the results are the same bit for bit
    whatever the CPU count or the thread count the process started with.
    Where the library's thread count cannot be set, they run one after the
    other on its threads.
    """
    if len(jobs) == 1:
        return [fn(*jobs[0])]
    with single_threaded() as pinned:
        if not pinned or _usable_cpus() == 1:
            return [fn(*job) for job in jobs]
        return list(_two_threads(lambda: fn(*jobs[0]), lambda: fn(*jobs[1])))


def assemble(dbody: DiscretizedBody, kernel: HyperKernel) -> KernelMatrix:
    """Fill the blocks of the symmetrized kernel matrix and factorize them in place.

    The blocks over the orbits of the body's involution (the identity for
    a body without one) are filled as :func:`_fill_lower` says, one
    triangle each: only these are computed, checked and factored, each by
    :func:`_factor_block` as :func:`_side_by_side` says.  Block 1, the
    smaller, is factored as U^T U in the upper triangle of its view; an
    empty block is neither allocated nor factored.  The bytes to be
    allocated are checked against physical and available memory first.
    ``condition`` is the 1-norm estimate max_t |Mt_t| * max_t 1 / (rcond_t
    |Mt_t|) of the block-diagonal system; with one block, 1 / rcond.  It is
    a lower bound on the 1-norm condition number of that system only, not
    of Mt, since the basis of the split changes 1-norms: 231.39 against
    Mt's 208.83 for the octahedron frame at ell 0.01 and resolution 64,
    904.75 against 836.36 at ell 0.1 and resolution 16.

    Raises AssemblyError for (near-)coincident nodes, a non-finite entry,
    an ell whose fill scale overflows (:func:`_half_scale`) or a matrix
    larger than physical or available memory, and
    SingularSystemError if a Cholesky factorization fails (for the first
    failed block, once every block's factorization has ended, and only if
    no block is non-finite).
    """
    orbits = _Orbits.of(dbody.involution or Involution.identity(dbody.n_nodes))
    _half_scale(kernel)  # refuses a tiny ell before the matrix is allocated
    mt = _empty_matrix(*orbits.orders)
    _fill_lower(mt, dbody, kernel, orbits)
    factors = _triangles(mt, orbits.orders)
    norms, rconds = zip(*_side_by_side(_factor_block, factors))
    for rcond in rconds:
        if isinstance(rcond, np.linalg.LinAlgError):
            raise SingularSystemError(f"kernel matrix factorization failed: {rcond}")
    top = max(norms)
    condition = 0.0
    for rcond, anorm in zip(rconds, norms):
        condition = max(condition, top / anorm / rcond if rcond > 0.0 else np.inf)
    return KernelMatrix(
        body=dbody,
        kernel=kernel,
        condition=float(condition),
        _factor=tuple(factors),
        _orbits=orbits,
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


def _force_density(f, dbody: DiscretizedBody) -> np.ndarray:
    """``f`` as a float array; InvalidArgument unless it has one finite 3-vector per node."""
    f = np.asarray(f, dtype=float)
    if f.shape != dbody.nodes.shape:
        raise InvalidArgument(f"force density shape {f.shape} does not match body "
                              f"({dbody.nodes.shape})")
    if not np.all(np.isfinite(f)):
        raise InvalidArgument("non-finite component in force density")
    return f


def force_torque(f: np.ndarray, dbody: DiscretizedBody):
    """Hydrodynamic force and torque on the body (torque about the center of mass)."""
    f = _force_density(f, dbody)
    w = dbody.weights
    force = -(w[:, None] * f).sum(axis=0)
    torque = -(w[:, None] * np.cross(dbody.nodes, f)).sum(axis=0)
    return force, torque


@dataclass(eq=False)
class ResistanceSet:
    """The 6x6 grand resistance matrix A = [[K, S], [C, B]] and solver diagnostics.

    A is the one stored matrix: K, S, C and B are views of its 3x3 blocks,
    and ``asymmetry`` and ``min_eigenvalue`` are computed from it on each
    read.  spin_nullity flags rigid rotations with identically zero boundary
    data: 1 for a body whose nodes are collinear through the origin (no
    resistance to spin about ``spin_axis``), 3 for a single node.  The
    corresponding rows/columns of B vanish identically and A is only
    positive semi-definite; such modes are reported, never silently inverted.
    """

    A: np.ndarray
    n_nodes: int = 0
    condition: float = np.nan
    spin_nullity: int = 0
    spin_axis: np.ndarray | None = None

    @classmethod
    def from_blocks(cls, K, S, C, B, **diagnostics):
        """A ResistanceSet whose A is [[K, S], [C, B]]; ``diagnostics`` are its other fields."""
        K, S, C, B = (np.asarray(m, dtype=float) for m in (K, S, C, B))
        return cls(A=np.block([[K, S], [C, B]]), **diagnostics)

    # the 3x3 blocks, as views of A
    K = property(lambda self: self.A[:3, :3])
    S = property(lambda self: self.A[:3, 3:])
    C = property(lambda self: self.A[3:, :3])
    B = property(lambda self: self.A[3:, 3:])

    @property
    def asymmetry(self) -> float:
        """|A - A^T| / |A| in the Frobenius norm."""
        return float(np.linalg.norm(self.A - self.A.T) / max(np.linalg.norm(self.A), 1e-300))

    @property
    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue of the symmetric part of A."""
        return float(np.linalg.eigvalsh(0.5 * (self.A + self.A.T)).min())


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
    A ``matrix`` that :func:`assemble` made for this very ``dbody`` and an equal
    ``kernel`` is used instead of assembling one; any other is InvalidArgument.
    """
    km = assemble(dbody, kernel) if matrix is None else matrix
    if km.body is not dbody or km.kernel != kernel:
        raise InvalidArgument("the kernel matrix was assembled for another body or kernel")
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
    return ResistanceSet(A=a, n_nodes=n, condition=km.condition,
                         spin_nullity=nullity, spin_axis=axis)


def disturbance_velocity(
    x_eval, f: np.ndarray, dbody: DiscretizedBody, kernel: HyperKernel
) -> np.ndarray:
    """Fluid velocity u(x) = sum_k Z(x - x_k) w_k f_k at points x of shape (..., 3).

    The points are taken in chunks of about ``_ASSEMBLY_CHUNK_PAIRS``
    point-node pairs, so that only one chunk's pair velocities are held at a
    time.  Each point's velocities are summed over the nodes in node order,
    so its bits do not depend on the chunking.
    """
    x_eval = _as_points(x_eval)
    wf = dbody.weights[:, None] * _force_density(f, dbody)
    points = x_eval.reshape(-1, 3)
    u = np.empty_like(points)
    step = max(1, _ASSEMBLY_CHUNK_PAIRS // max(dbody.n_nodes, 1))
    for lo in range(0, len(points), step):
        pairs = points[lo:lo + step, None, :] - dbody.nodes
        u[lo:lo + step] = stokeslet_velocity(pairs, wf, kernel).sum(axis=1)
    return u.reshape(x_eval.shape)


def dissipation(f: np.ndarray, dbody: DiscretizedBody, kernel: HyperKernel) -> float:
    """Discrete dissipation sum_kl w_k w_l f_k . Z(x_k - x_l) f_l (>= 0),
    as sum_k w_k f_k . u(x_k) with u from :func:`disturbance_velocity`."""
    f = _force_density(f, dbody)
    u = disturbance_velocity(dbody.nodes, f, dbody, kernel)
    return float(np.einsum("k,ki,ki->", dbody.weights, f, u))
