"""Boundary-integral solver: reciprocity, definiteness, equivariance, convergence."""

import dataclasses
import sys
import threading
import tracemalloc
import warnings
from math import pi

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs
from scipy.stats import ortho_group

from hyperstokes import (
    AssemblyError,
    BodyGeometry,
    HyperKernel,
    InvalidArgument,
    ResistanceSet,
    SingularSystemError,
    Segment,
    assemble,
    classical_oseen,
    discretize,
    disturbance_velocity,
    force_torque,
    helix,
    oseen_tensor,
    resistance,
    rod,
    solve_rigid,
    transform,
    tripod_tetrahedron,
)
from hyperstokes import _lapack
from hyperstokes.geometry import Involution
from hyperstokes.mobility import dissipation


def nan_matrix(a, b):
    """NaN-filled storage in the shape of ``mobility._empty_matrix(a, b)``."""
    return np.full((a, max(a, b + 1)), np.nan, order="F")


def single_node_body(ell=1.0):
    """A rod discretized to exactly one quadrature node at the origin."""
    return discretize(rod(1.0), 1.0)


@pytest.fixture()
def dense_path(monkeypatch):
    """Bodies discretized from now on have no involution: assemble takes the identity case."""
    import hyperstokes.geometry as geo

    monkeypatch.setattr(geo, "find_involution", lambda nodes, weights: None)


def orbit_bases(dbody):
    """The orthonormal bases (3N, m_t) of the two blocks, one column per basis vector.

    In the frame r_i of the split (``_Orbits``), with the block's signs s:
    (e_k (x) r_i + s_i e_sigma(k) (x) r_i) / sqrt(2) for each pair k < sigma(k)
    and component i, then e_k (x) r_i for each fixed node k and each
    component i of the block's eigenspace.
    """
    import hyperstokes.mobility as mob

    n = dbody.n_nodes
    orbits = mob._Orbits.of(dbody.involution or Involution.identity(n))
    p, frame = orbits.pairs, orbits.frame
    bases = []
    for t in range(2):
        columns = []
        for k, image in zip(orbits.nodes[:p], orbits.images):
            for i in range(3):
                v = np.zeros((n, 3))
                v[k] = frame[:, i] / np.sqrt(2.0)
                v[image] = orbits.sign(t)[i, 0] * frame[:, i] / np.sqrt(2.0)
                columns.append(v.ravel())
        for k in orbits.nodes[p:]:
            for i in range(3)[orbits.components(t)]:
                v = np.zeros((n, 3))
                v[k] = frame[:, i]
                columns.append(v.ravel())
        bases.append(np.array(columns).reshape(-1, 3 * n).T)
    return bases


def filled_lower(dbody, kernel):
    """The lower triangle of W^{1/2} M W^{1/2} as the fill writes it in the
    identity case, zeros above, as a Fortran-order (3N, 3N) array."""
    import hyperstokes.mobility as mob

    orbits = mob._Orbits.of(Involution.identity(dbody.n_nodes))
    mt = mob._empty_matrix(*orbits.orders)
    mob._fill_lower(mt, dbody, kernel, orbits)
    return np.asfortranarray(np.tril(mt))


def oseen_matrix(dbody, kernel):
    """W^{1/2} M W^{1/2} in full, from ``oseen_tensor`` and not from the fill."""
    x, w, n = dbody.nodes, dbody.weights, dbody.n_nodes
    blocks = np.sqrt(w[:, None, None, None] * w[None, :, None, None]) * oseen_tensor(
        x[:, None, :] - x[None, :, :], kernel
    )
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def split_blocks(dbody, kernel):
    """The blocks formed from the full matrix by the explicit change of basis."""
    full = oseen_matrix(dbody, kernel)
    return [basis.T @ full @ basis for basis in orbit_bases(dbody)]


class TestAssemble:
    def test_single_node_matrix(self):
        dbody = single_node_body()
        km = assemble(dbody, HyperKernel(ell=1.0))
        mt = filled_lower(dbody, HyperKernel(ell=1.0))
        assert np.allclose(mt, np.eye(3) / (6.0 * pi), rtol=1e-14)
        assert km.positive_definite
        assert km.condition >= 1.0

    def test_distant_pair_block_matches_classical_oseen(self, kernel):
        # two single-node stubs 1e4 * ell apart
        gap = 1e4 * kernel.ell
        seg1 = Segment(points=np.array([[-0.005, 0.0, 0.0], [0.005, 0.0, 0.0]]))
        seg2 = Segment(points=np.array([[gap - 0.005, 0.0, 0.0], [gap + 0.005, 0.0, 0.0]]))
        body = BodyGeometry(name="pair", segments=(seg1, seg2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # intentionally disconnected
            dbody = discretize(body, 1.0)
        mt = filled_lower(dbody, kernel)
        w = dbody.weights[0]
        block = mt[3:6, 0:3] / w  # sqrt(w1) sqrt(w2) = w here
        separation = dbody.nodes[1] - dbody.nodes[0]
        assert np.allclose(block, classical_oseen(separation), rtol=1e-7)
        assert np.linalg.norm(block, 2) == pytest.approx(
            2.0 / (8.0 * pi * gap), rel=1e-6
        )

    @pytest.mark.parametrize("name, resolution", [
        ("rod", 8), ("bent_rod", 8), ("tripod", 8), ("octahedron", 8), ("helix", 8),
        ("helix", 128),  # neighbour pairs at s < 0.1 take the series branch
    ])
    def test_fill_matches_oseen_blocks(self, bodies, kernel, name, resolution):
        dbody = discretize(bodies[name], resolution)
        ref = oseen_matrix(dbody, kernel)
        mt = filled_lower(dbody, kernel)
        assert np.abs(mt - np.tril(ref)).max() <= 1e-15 * np.abs(ref).max()
        if resolution == 128:
            x = dbody.nodes
            spacing = np.linalg.norm(x[1:] - x[:-1], axis=1).min()
            assert spacing < kernel.series_threshold * kernel.ell

    def test_assemble_peak_memory_near_matrix_size(self, kernel):
        dbody = discretize(helix(0.2, 0.1, 3), 256)
        matrix_bytes = 8 * (3 * dbody.n_nodes) ** 2
        tracemalloc.start()
        try:
            assemble(dbody, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * matrix_bytes, peak / matrix_bytes

    def test_split_assemble_peak_memory_below_unsplit_matrix(self, kernel):
        dbody = discretize(helix(0.2, 0.1, 3), 256)
        assert dbody.involution is not None
        matrix_bytes = 8 * (3 * dbody.n_nodes) ** 2
        tracemalloc.start()
        try:
            assemble(dbody, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.45 * matrix_bytes, peak / matrix_bytes

    def test_non_finite_entry_rejected(self, bodies, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        factors = mob._factors_over_s

        def nan_in_one_pair(s, kern):
            a, b = factors(s, kern)
            a.flat[-1] = np.nan
            return a, b

        monkeypatch.setattr(mob, "_factors_over_s", nan_in_one_pair)
        for name in ("tripod", "helix"):  # unequal, equal block orders
            dbody = discretize(bodies[name], 8)
            with pytest.raises(AssemblyError, match="non-finite"):
                assemble(dbody, kernel)

    def test_tiny_ell_rejected_before_allocation(self, bodies, monkeypatch):
        import hyperstokes.mobility as mob

        def no_matrix(a, b):
            raise AssertionError("allocated")

        # below ell ~ 1.1e-310 the fill's scale 0.5 / (8 pi ell) overflows
        monkeypatch.setattr(mob, "_empty_matrix", no_matrix)
        with pytest.raises(AssemblyError, match="ell 1e-310 is too small"):
            assemble(discretize(bodies["tripod"], 8), HyperKernel(ell=1e-310))

    def test_tiny_ell_solves_without_warning(self, bodies):
        # at ell 1e-309, s = r / ell overflows off the diagonal; it is inf, silently
        dbody = discretize(bodies["tripod"], 8)
        res = resistance(dbody, HyperKernel(ell=1e-309))
        assert np.all(np.isfinite(res.A)) and res.min_eigenvalue > 0.0

    def test_matrix_larger_than_memory_rejected(self, kernel, monkeypatch, dense_path):
        import hyperstokes.errors as err

        dbody = discretize(helix(0.2, 0.1, 3), 32)
        need = 8 * (3 * dbody.n_nodes) ** 2
        monkeypatch.setattr(err, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(AssemblyError, match="physical memory"):
            assemble(dbody, kernel)
        monkeypatch.setattr(err, "_physical_memory_bytes", lambda: need)
        assert assemble(dbody, kernel).positive_definite

    def test_split_blocks_larger_than_memory_rejected(self, kernel, monkeypatch):
        import hyperstokes.errors as err

        dbody = discretize(helix(0.2, 0.1, 3), 32)
        assert dbody.involution is not None
        m = 3 * dbody.n_nodes // 2
        need = 8 * m * (m + 1)  # two triangles of order m in one array
        monkeypatch.setattr(err, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(AssemblyError, match="physical memory"):
            assemble(dbody, kernel)
        monkeypatch.setattr(err, "_physical_memory_bytes", lambda: need)
        assert assemble(dbody, kernel).positive_definite

    def test_matrix_larger_than_available_memory_rejected(self, kernel, monkeypatch,
                                                          dense_path):
        import hyperstokes.errors as err

        dbody = discretize(helix(0.2, 0.1, 3), 512)  # a 279 MB matrix
        need = 8 * (3 * dbody.n_nodes) ** 2
        monkeypatch.setattr(err, "_available_memory_bytes", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(AssemblyError, match="memory available now"):
                assemble(dbody, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need / 100

    def test_split_blocks_larger_than_available_memory_rejected(self, kernel, monkeypatch):
        import hyperstokes.errors as err

        dbody = discretize(helix(0.2, 0.1, 3), 512)  # two blocks in one 70 MB array
        m = 3 * dbody.n_nodes // 2
        need = 8 * m * (m + 1)
        monkeypatch.setattr(err, "_available_memory_bytes", lambda: need - 1)
        tracemalloc.start()
        try:
            # the first call runs the involution search (about 0.75 MB) before it refuses
            with pytest.raises(AssemblyError, match="memory available now"):
                assemble(dbody, kernel)
            peak_with_search = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(AssemblyError, match="memory available now"):
                assemble(dbody, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dbody.involution is not None
        assert peak_with_search < 2e6
        assert peak < need / 100

    def test_available_memory_read_from_meminfo(self, kernel, monkeypatch, tmp_path,
                                                dense_path):
        import hyperstokes.errors as err

        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:       8000 kB\nMemAvailable:    1234 kB\n")
        monkeypatch.setattr(err, "_MEMINFO", str(meminfo))
        assert err._available_memory_bytes() == 1234 * 1024
        with pytest.raises(AssemblyError, match="memory available now"):
            assemble(discretize(helix(0.2, 0.1, 3), 32), kernel)
        # unreadable: physical memory is the only limit
        monkeypatch.setattr(err, "_MEMINFO", str(tmp_path / "missing"))
        assert err._available_memory_bytes() is None
        assert assemble(discretize(helix(0.2, 0.1, 3), 32), kernel).positive_definite

    @pytest.mark.parametrize("name, resolution, blocks", [
        ("tripod", 8, 1),
        ("helix", 128, 6),  # several column blocks
    ])
    def test_factor_is_cholesky_of_full_matrix(self, bodies, kernel, dense_path,
                                               name, resolution, blocks):
        import hyperstokes.mobility as mob

        dbody = discretize(bodies[name], resolution)
        assert len(mob._column_blocks(dbody.n_nodes, 0)) == blocks
        km = assemble(dbody, kernel)
        # the same LAPACK build as assemble's: another one may round differently;
        # potrf reads only the lower triangle, the one the fill writes
        ref = _lapack.cho_factor(filled_lower(dbody, kernel))
        (factor, lower), = km._factor
        assert lower and np.array_equal(np.tril(factor), np.tril(ref))

    @pytest.mark.parametrize("name, resolution", [
        ("bent_rod", 8), ("octahedron", 8), ("helix", 8),
        ("helix", 128),  # several column blocks
    ])
    def test_split_factors_are_cholesky_of_split_blocks(self, bodies, kernel,
                                                        name, resolution):
        dbody = discretize(bodies[name], resolution)
        km = assemble(dbody, kernel)
        assert len(km._factor) == 2
        for (factor, lower), block in zip(km._factor, split_blocks(dbody, kernel)):
            low = np.tril(factor) if lower else np.triu(factor).T
            assert np.abs(low @ low.T - block).max() <= 1e-13 * np.abs(block).max()

    @pytest.mark.parametrize("name", ["rod", "bent_rod", "tripod", "octahedron", "helix"])
    def test_condition_uses_norm_of_full_matrix(self, bodies, kernel, dense_path, name):
        dbody = discretize(bodies[name], 128)
        km = assemble(dbody, kernel)
        full = oseen_matrix(dbody, kernel)
        lange, pocon = get_lapack_funcs(("lange", "pocon"), (full,))
        (factor, lower), = km._factor
        rcond, _ = pocon(factor, lange("1", full), uplo="L" if lower else "U")
        assert km.condition == pytest.approx(1.0 / rcond, rel=1e-12)

    @pytest.mark.parametrize("name, resolution", [
        ("bent_rod", 128), ("octahedron", 32), ("helix", 128),
    ])
    def test_split_condition_uses_norms_of_both_blocks(self, bodies, kernel, name, resolution):
        dbody = discretize(bodies[name], resolution)
        km = assemble(dbody, kernel)
        blocks = split_blocks(dbody, kernel)
        lange, pocon = get_lapack_funcs(("lange", "pocon"), (blocks[0],))
        norms = [lange("1", block) for block in blocks]
        inverse_norms = [1.0 / (pocon(factor, norm, uplo="L" if lower else "U")[0] * norm)
                         for (factor, lower), norm in zip(km._factor, norms)]
        assert km.condition == pytest.approx(max(norms) * max(inverse_norms), rel=1e-12)
        # the same estimate as the unsplit system's, up to the change of basis
        full = oseen_matrix(dbody, kernel)
        lange, pocon = get_lapack_funcs(("lange", "pocon"), (full,))
        rcond, _ = pocon(np.linalg.cholesky(full), lange("1", full), uplo="L")
        assert 0.5 < km.condition * rcond < 2.0

    def test_unwritten_upper_triangle_is_never_read(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 128)
        ref = resistance(dbody, kernel)
        # an uninitialized allocation may hold any bits, NaN included
        monkeypatch.setattr(mob, "_empty_matrix", nan_matrix)
        res = resistance(dbody, kernel)
        assert np.array_equal(res.A, ref.A)
        assert res.condition == pytest.approx(ref.condition, rel=1e-12)

    @pytest.mark.parametrize("name", ["tripod", "helix"])  # blocks of unequal, equal orders
    def test_uninitialized_storage_gives_identical_results(self, bodies, kernel,
                                                           monkeypatch, name):
        import hyperstokes.mobility as mob

        dbody = discretize(bodies[name], 64)
        ref = resistance(dbody, kernel)
        monkeypatch.setattr(mob, "_empty_matrix", nan_matrix)
        res = resistance(dbody, kernel)
        assert np.array_equal(res.A, ref.A)
        assert res.condition == ref.condition

    @pytest.mark.parametrize("name", ["bent_rod", "octahedron", "helix", "tripod"])
    def test_factoring_one_block_leaves_the_other(self, bodies, kernel, name):
        import hyperstokes.mobility as mob

        dbody = discretize(bodies[name], 16)
        orbits = mob._Orbits.of(dbody.involution)
        a, b = orbits.orders
        mt = nan_matrix(a, b)
        mob._fill_lower(mt, dbody, kernel, orbits)
        # the two triangles fill the array, apart from the columns right of
        # block 1's triangle when the orders differ
        assert np.isnan(mt).sum() == a * max(a, b + 1) - a * (a + 1) // 2 - b * (b + 1) // 2
        filled = mt.copy(order="F")
        (plus, _), (minus, _) = mob._triangles(mt, orbits.orders)
        alone = np.asfortranarray(np.tril(plus))  # block 0 in a square array of its own
        _lapack.cho_factor(alone)
        _lapack.cho_factor(plus, lower=True)
        assert np.array_equal(np.triu(minus), np.triu(filled[:b, 1:b + 1]))
        assert np.array_equal(np.tril(plus), np.tril(alone))
        _lapack.cho_factor(minus, lower=False)
        assert np.array_equal(np.tril(plus), np.tril(alone))

    @pytest.mark.parametrize("name, resolution, cpus", [
        ("tripod", 8, 2),  # one column block
        ("tripod", 16, 2),  # the CLI default: two column blocks, too few to share
        ("helix", 128, 1),  # several column blocks, one CPU
    ])
    def test_single_worker_fill_starts_no_thread_pool(self, bodies, kernel, monkeypatch,
                                                      name, resolution, cpus):
        import hyperstokes.mobility as mob

        dbody = discretize(bodies[name], resolution)
        splits = [mob._Orbits.of(inv)
                  for inv in (Involution.identity(dbody.n_nodes), dbody.involution)]

        def fill(orbits):
            mt = nan_matrix(*orbits.orders)
            assert mob._fill_lower(mt, dbody, kernel, orbits) is None
            norms = [mob._norm(c, lower) for c, lower in mob._triangles(mt, orbits.orders)]
            assert len(norms) == 1 + (orbits.orders[1] > 0) and np.all(np.isfinite(norms))
            return mt

        refs = [fill(split) for split in splits]

        def no_thread(self):
            raise AssertionError("the fill started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(mob, "_usable_cpus", lambda: cpus)
        # the fill runs on the calling thread whatever the CPU count
        for split, ref in zip(splits, refs):
            assert np.array_equal(fill(split), ref, equal_nan=True)

    @pytest.mark.parametrize("name, resolution, split", [
        ("helix", 16, False),  # the identity case: one block
        ("helix", 128, True),  # point-free: equal orders, several column blocks
        ("tripod", 16, True),  # fixed nodes: unequal orders, pair and fixed columns
    ])
    def test_fill_writes_exactly_the_two_triangles(self, bodies, kernel, name, resolution,
                                                   split):
        import hyperstokes.mobility as mob

        dbody = discretize(bodies[name], resolution)
        orbits = mob._Orbits.of(dbody.involution if split
                                else Involution.identity(dbody.n_nodes))
        a, b = orbits.orders
        assert (b > 0) == split
        mt = mob._empty_matrix(a, b)
        mt[...] = np.nan
        mob._fill_lower(mt, dbody, kernel, orbits)
        own = np.zeros(mt.shape, dtype=bool)
        own[:, :a] = np.tri(a, dtype=bool)
        own[:b, 1:b + 1] |= np.tri(b, dtype=bool).T
        assert np.array_equal(np.isfinite(mt), own)
        assert np.isnan(mt[~own]).all()

    def test_fill_evaluates_lower_block_triangle(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        factors = mob._factors_over_s
        sizes = []

        def counting(s, kern):
            sizes.append(s.size)  # list.append is atomic under the GIL
            return factors(s, kern)

        monkeypatch.setattr(mob, "_factors_over_s", counting)
        dbody = discretize(helix(0.2, 0.1, 3), 256)
        assemble(dbody, kernel)
        assert sum(sizes) <= 0.65 * dbody.n_nodes**2

    def test_coincident_nodes_rejected(self, kernel):
        seg = Segment(points=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        body = BodyGeometry(name="dup", segments=(seg, seg))
        dbody = discretize(body, 4)
        with pytest.raises(AssemblyError):
            assemble(dbody, kernel)


class TestTwoWorkerFill:
    """The fill's column blocks are shared by the calling thread and one helper."""

    @pytest.mark.parametrize("name, resolution, chunk", [
        ("helix", 256, None),  # point-free: pair columns only
        ("tripod", 64, 2_000),  # fixed nodes: pair and fixed columns, in small chunks
    ])
    def test_two_workers_fill_the_same_triangles(self, bodies, kernel, monkeypatch,
                                                 name, resolution, chunk):
        import hyperstokes.mobility as mob

        if chunk is not None:
            monkeypatch.setattr(mob, "_ASSEMBLY_CHUNK_PAIRS", chunk)
        dbody = discretize(bodies[name], resolution)
        started, start = [], threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)

        def fill(orbits, cpus):
            monkeypatch.setattr(mob, "_usable_cpus", lambda: cpus)
            mt = nan_matrix(*orbits.orders)
            mob._fill_lower(mt, dbody, kernel, orbits)
            return mt

        for inv in (Involution.identity(dbody.n_nodes), dbody.involution):
            orbits = mob._Orbits.of(inv)
            ref = fill(orbits, 1)
            assert started == []
            for _ in range(2):  # each run interleaves the column blocks anew
                assert np.array_equal(fill(orbits, 2), ref, equal_nan=True)
            assert len(started) == 2
            started.clear()

    @pytest.mark.parametrize("failing", ["calling", "helper"])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_in_one_worker_stops_the_other(self, kernel, monkeypatch, failing, error):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 256)
        orbits = mob._Orbits.of(dbody.involution)
        blocks = len(mob._column_blocks(len(orbits.nodes), orbits.pairs))
        factors = mob._factors_over_s
        failed = threading.Event()
        calls = {"calling": 0, "helper": 0}

        def flaky(s, kern):
            main = threading.current_thread() is threading.main_thread()
            worker = "calling" if main else "helper"
            if worker == failing:
                failed.set()
                raise error("injected")
            if not failed.wait(timeout=30):  # the other worker fails first
                raise AssertionError("the fill ran on one thread")
            calls[worker] += 1
            return factors(s, kern)

        started, start = [], threading.Thread.start

        def counted_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted_start)
        monkeypatch.setattr(mob, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mob, "_factors_over_s", flaky)
        alive = threading.active_count()
        with pytest.raises(error, match="injected"):
            mob._fill_lower(nan_matrix(*orbits.orders), dbody, kernel, orbits)
        assert len(started) == 1
        assert not started[0].is_alive()
        assert threading.active_count() == alive
        # a pair column block evaluates twice; the other worker ends after the
        # block it is in, with most of the blocks never taken
        other = "helper" if failing == "calling" else "calling"
        assert calls[other] <= 4 < 2 * blocks

    def test_interrupted_join_waits_for_the_helper(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 256)
        orbits = mob._Orbits.of(dbody.involution)
        factors, join = mob._factors_over_s, threading.Thread.join
        released, helper_done = threading.Event(), []

        def held(s, kern):
            if threading.current_thread() is not threading.main_thread():
                assert released.wait(timeout=30)  # until the calling thread is interrupted
                helper_done.append(None)
            return factors(s, kern)

        def interrupted_join(thread, timeout=None):
            if not released.is_set():
                released.set()
                raise KeyboardInterrupt("during the join")
            join(thread, timeout)

        monkeypatch.setattr(mob, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mob, "_factors_over_s", held)
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        alive = threading.active_count()
        with pytest.raises(KeyboardInterrupt, match="during the join"):
            mob._fill_lower(nan_matrix(*orbits.orders), dbody, kernel, orbits)
        # the helper ended its column block before the interrupt was raised
        assert helper_done and threading.active_count() == alive


class TestUsableCpus:
    def test_affinity_mask_counts(self, monkeypatch):
        import hyperstokes.mobility as mob

        monkeypatch.setattr(mob.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert mob._usable_cpus() == 3

    @pytest.mark.parametrize("count, usable", [(6, 6), (None, 1)])
    def test_cpu_count_without_affinity_call(self, monkeypatch, count, usable):
        import hyperstokes.mobility as mob

        monkeypatch.delattr(mob.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mob.os, "cpu_count", lambda: count)
        assert mob._usable_cpus() == usable


class TestSolveRigid:
    def test_zero_data_gives_zero(self, kernel):
        km = assemble(discretize(rod(1.0), 8), kernel)
        f = solve_rigid(km, np.zeros(3), np.zeros(3))
        assert np.array_equal(f, np.zeros_like(f))

    def test_single_node_drag(self):
        # point drag: total force on the fluid is 6 pi ell xi
        for ell in (0.1, 1.0):
            dbody = single_node_body()
            km = assemble(dbody, HyperKernel(ell=ell))
            xi = np.array([1.0, 0.0, 0.0])
            f = solve_rigid(km, xi, np.zeros(3))
            w = dbody.weights[0]
            assert np.allclose(f[0], 6.0 * pi * ell * xi / w, rtol=1e-12)
            force, torque = force_torque(f, dbody)
            assert np.allclose(force, -6.0 * pi * ell * xi, rtol=1e-12)
            assert np.allclose(torque, 0.0, atol=1e-15)

    def test_linearity(self, kernel, rng):
        km = assemble(discretize(tripod_tetrahedron(1.0), 8), kernel)
        xi1, om1 = rng.normal(size=3), rng.normal(size=3)
        xi2, om2 = rng.normal(size=3), rng.normal(size=3)
        a, b = 0.7, -1.3
        combo = solve_rigid(km, a * xi1 + b * xi2, a * om1 + b * om2)
        parts = a * solve_rigid(km, xi1, om1) + b * solve_rigid(km, xi2, om2)
        assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12 * np.abs(combo).max())

    def test_non_finite_data_rejected(self, kernel):
        km = assemble(discretize(rod(1.0), 8), kernel)
        with pytest.raises(InvalidArgument):
            solve_rigid(km, np.array([np.nan, 0.0, 0.0]), np.zeros(3))

    @pytest.mark.parametrize("xi, omega", [((1.0, 0.0), (0.0, 0.0, 0.0)),
                                           ((0.0, 0.0, 0.0), np.zeros((3, 1)))],
                             ids=["two-vector-xi", "column-omega"])
    def test_rigid_velocity_must_be_3_vectors(self, kernel, xi, omega):
        km = assemble(discretize(rod(1.0), 8), kernel)
        with pytest.raises(InvalidArgument, match="xi and omega must be 3-vectors"):
            solve_rigid(km, xi, omega)

    def test_force_torque_validation(self, kernel):
        dbody = discretize(rod(1.0), 8)
        with pytest.raises(InvalidArgument):
            force_torque(np.zeros((3, 3)), dbody)
        force, torque = force_torque(np.zeros_like(dbody.nodes), dbody)
        assert np.array_equal(force, np.zeros(3))
        assert np.array_equal(torque, np.zeros(3))


class TestResistance:
    def test_single_node_tensors(self):
        for ell in (0.1, 1.0):
            res = resistance(single_node_body(), HyperKernel(ell=ell))
            assert np.allclose(res.K, 6.0 * pi * ell * np.eye(3), rtol=1e-12)
            assert np.allclose(res.S, 0.0, atol=1e-14)
            assert np.allclose(res.C, 0.0, atol=1e-14)
            assert np.allclose(res.B, 0.0, atol=1e-14)
            assert res.spin_nullity == 3

    def test_rod_structure(self, suite_solutions):
        _, res = suite_solutions[("rod", 16)]
        assert res.spin_nullity == 1
        assert np.allclose(res.spin_axis, [1.0, 0.0, 0.0], atol=1e-12)
        offdiag = res.K - np.diag(np.diag(res.K))
        assert np.abs(offdiag).max() < 1e-12 * np.linalg.norm(res.K)
        assert res.K[1, 1] == pytest.approx(res.K[2, 2], rel=1e-10)
        assert np.linalg.norm(res.C) < 1e-8 * np.linalg.norm(res.K)
        assert res.K[1, 1] > res.K[0, 0]  # broadside drag exceeds axial drag

    def test_octahedron_isotropic(self, suite_solutions):
        _, res = suite_solutions[("octahedron", 16)]
        kappa = res.K[0, 0]
        beta = res.B[0, 0]
        assert np.allclose(res.K, kappa * np.eye(3), rtol=0, atol=1e-10 * kappa)
        assert np.allclose(res.B, beta * np.eye(3), rtol=0, atol=1e-10 * kappa)
        assert np.linalg.norm(res.C) < 1e-8 * np.linalg.norm(res.K)

    def test_reciprocity_all_suite_bodies(self, suite_solutions):
        for (name, res_per_len), (_, res) in suite_solutions.items():
            assert res.asymmetry < 1e-10, (name, res_per_len, res.asymmetry)

    def test_reciprocal_pairings(self, suite_solutions, kernel, rng):
        # pairing of two rigid solutions is symmetric in the two data sets
        dbody, _ = suite_solutions[("bent_rod", 8)]
        km = assemble(dbody, kernel)
        xi1, om1 = rng.normal(size=3), rng.normal(size=3)
        xi2, om2 = rng.normal(size=3), rng.normal(size=3)
        f1 = solve_rigid(km, xi1, om1)
        f2 = solve_rigid(km, xi2, om2)
        u1 = xi1 + np.cross(np.broadcast_to(om1, dbody.nodes.shape), dbody.nodes)
        u2 = xi2 + np.cross(np.broadcast_to(om2, dbody.nodes.shape), dbody.nodes)
        p12 = float(np.sum(dbody.weights[:, None] * f1 * u2))
        p21 = float(np.sum(dbody.weights[:, None] * f2 * u1))
        assert p12 == pytest.approx(p21, rel=1e-10)

    def test_positive_definiteness(self, suite_solutions):
        for (name, _), (_, res) in suite_solutions.items():
            eigs = np.linalg.eigvalsh(0.5 * (res.A + res.A.T))
            scale = np.linalg.norm(res.A)
            if res.spin_nullity:
                # collinear spin mode carries exactly zero resistance
                assert abs(eigs[: res.spin_nullity]).max() <= 1e-12 * scale, name
                assert eigs[res.spin_nullity] > 0.0, name
            else:
                assert eigs[0] > 0.0, name
            assert np.linalg.eigvalsh(res.K).min() > 0.0, name

    def test_energy_identity(self, suite_solutions, kernel, rng):
        dbody, res = suite_solutions[("tripod", 8)]
        km = assemble(dbody, kernel)
        for _ in range(5):
            xi, om = rng.normal(size=3), rng.normal(size=3)
            f = solve_rigid(km, xi, om)
            quad = np.concatenate([xi, om]) @ res.A @ np.concatenate([xi, om])
            diss = dissipation(f, dbody, kernel)
            assert diss >= 0.0
            assert quad == pytest.approx(diss, rel=1e-10)

    def test_frame_equivariance_transported_nodes(self, suite_solutions, kernel, rng):
        dbody, res0 = suite_solutions[("tripod", 8)]
        for trial in range(10):
            q = ortho_group.rvs(3, random_state=rng)
            if trial >= 5:
                q = -q  # det -1 in odd dimension
            det = np.linalg.det(q)
            moved = dataclasses.replace(dbody, nodes=dbody.nodes @ q.T)
            res1 = resistance(moved, kernel)
            scale = np.linalg.norm(res0.A)
            assert np.linalg.norm(res1.K - q @ res0.K @ q.T) < 1e-12 * scale
            assert np.linalg.norm(res1.B - q @ res0.B @ q.T) < 1e-12 * scale
            assert np.linalg.norm(res1.C - det * (q @ res0.C @ q.T)) < 1e-12 * scale
            assert np.linalg.norm(res1.S - det * (q @ res0.S @ q.T)) < 1e-12 * scale

    def test_mesh_convergence_cauchy(self, kernel):
        for body in (rod(1.0), tripod_tetrahedron(1.0)):
            ks = []
            for res_per_len in (8, 16, 32, 64):
                dbody = discretize(body, res_per_len)
                ks.append(resistance(dbody, kernel).K)
            diffs = [np.linalg.norm(ks[i + 1] - ks[i]) for i in range(3)]
            assert diffs[0] > diffs[1] > diffs[2]

    def test_drag_increases_with_ell(self):
        dbody = discretize(rod(1.0), 16)
        k11 = [
            resistance(dbody, HyperKernel(ell=e)).K[0, 0] for e in (0.01, 0.1, 1.0)
        ]
        assert k11[0] < k11[1] < k11[2]

    def test_matrix_of_another_kernel_refused(self, bodies):
        dbody = discretize(bodies["rod"], 16)
        km = assemble(dbody, HyperKernel(ell=0.1))
        with pytest.raises(InvalidArgument, match="another body or kernel"):
            resistance(dbody, HyperKernel(ell=1.0), matrix=km)
        # an equal kernel is accepted: the same A as assembling afresh
        a = resistance(dbody, HyperKernel(ell=0.1), matrix=km).A
        assert np.array_equal(a, resistance(dbody, HyperKernel(ell=0.1)).A)

    def test_matrix_of_another_body_refused(self, bodies, kernel):
        rod16 = discretize(bodies["rod"], 16)
        bent16 = discretize(bodies["bent_rod"], 16)
        assert bent16.n_nodes == rod16.n_nodes
        km = assemble(rod16, kernel)
        for other in (bent16, discretize(bodies["rod"], 16)):
            with pytest.raises(InvalidArgument, match="another body or kernel"):
                resistance(other, kernel, matrix=km)

    def test_from_blocks_diagnostics(self):
        res = ResistanceSet.from_blocks(
            K=np.eye(3), S=np.zeros((3, 3)), C=np.zeros((3, 3)), B=np.eye(3)
        )
        assert res.asymmetry == 0.0
        assert res.min_eigenvalue == pytest.approx(1.0)

    def test_from_blocks_takes_nested_lists_and_diagnostics(self):
        res = ResistanceSet.from_blocks(
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]], np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3),
            n_nodes=7, condition=3.5, spin_nullity=1, spin_axis=np.array([1.0, 0.0, 0.0]),
        )
        assert res.A.dtype == float and np.array_equal(res.A, np.diag([2.0, 2, 2, 1, 1, 1]))
        assert (res.n_nodes, res.condition, res.spin_nullity) == (7, 3.5, 1)
        assert np.array_equal(res.spin_axis, [1.0, 0.0, 0.0])

    def test_a_is_the_one_stored_matrix(self, suite_solutions):
        assert [f.name for f in dataclasses.fields(ResistanceSet)] == [
            "A", "n_nodes", "condition", "spin_nullity", "spin_axis"]
        _, res = suite_solutions[("tripod", 8)]
        a = res.A
        for block, rows, cols in ((res.K, 0, 0), (res.S, 0, 3), (res.C, 3, 0), (res.B, 3, 3)):
            assert np.shares_memory(block, a)
            assert np.array_equal(block, a[rows:rows + 3, cols:cols + 3])
        assert res.asymmetry == np.linalg.norm(a - a.T) / np.linalg.norm(a)
        assert res.min_eigenvalue == np.linalg.eigvalsh(0.5 * (a + a.T)).min()


class TestDisturbanceVelocity:
    @pytest.mark.parametrize("shape", [(16, 2), (17, 3)], ids=["two-components", "extra-node"])
    def test_force_density_of_another_shape_refused(self, bodies, kernel, shape):
        dbody = discretize(bodies["rod"], 16)
        f = np.ones(shape)
        for call in (lambda: force_torque(f, dbody),
                     lambda: disturbance_velocity(dbody.nodes, f, dbody, kernel),
                     lambda: dissipation(f, dbody, kernel)):
            with pytest.raises(InvalidArgument, match="does not match body"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_force_density_refused(self, bodies, kernel, bad):
        dbody = discretize(bodies["rod"], 16)
        f = np.ones(dbody.nodes.shape)
        f[3, 1] = bad
        for call in (lambda: force_torque(f, dbody),
                     lambda: disturbance_velocity(dbody.nodes, f, dbody, kernel),
                     lambda: dissipation(f, dbody, kernel)):
            with pytest.raises(InvalidArgument, match="non-finite component in force density"):
                call()

    def test_reproduces_rigid_data_at_nodes(self, suite_solutions, kernel, rng):
        dbody, _ = suite_solutions[("bent_rod", 8)]
        km = assemble(dbody, kernel)
        xi, om = rng.normal(size=3), rng.normal(size=3)
        f = solve_rigid(km, xi, om)
        u = disturbance_velocity(dbody.nodes, f, dbody, kernel)
        target = xi + np.cross(np.broadcast_to(om, dbody.nodes.shape), dbody.nodes)
        assert np.allclose(u, target, atol=1e-10 * np.abs(target).max())

    def test_far_field_decay(self, suite_solutions, kernel):
        dbody, _ = suite_solutions[("tripod", 8)]
        km = assemble(dbody, kernel)
        f = solve_rigid(km, np.array([1.0, 0.0, 0.0]), np.zeros(3))
        total = np.abs(dbody.weights[:, None] * f).sum()
        radius = 1e3 * dbody.diameter
        for direction in np.eye(3):
            u = disturbance_velocity(radius * direction, f, dbody, kernel)
            assert np.linalg.norm(u) * radius <= total / (2.0 * pi)

    def test_zero_force_density(self, suite_solutions, kernel):
        dbody, _ = suite_solutions[("rod", 8)]
        u = disturbance_velocity(
            np.array([1.0, 2.0, 3.0]), np.zeros_like(dbody.nodes), dbody, kernel
        )
        assert np.array_equal(u, np.zeros(3))

    def test_points_in_chunks_keep_shape_and_values(self, suite_solutions, kernel, rng,
                                                    monkeypatch):
        # points at, near, far from and very far from the nodes, against Oseen tensors
        import hyperstokes.mobility as mob

        for key in (("tripod", 8), ("helix", 16)):
            dbody, _ = suite_solutions[key]
            f = rng.standard_normal(dbody.nodes.shape)
            directions = rng.standard_normal((4, 5, 3))
            directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
            at_nodes = dbody.nodes[:20].reshape(4, 5, 3)
            for x in (rng.standard_normal((4, 5, 3)),
                      at_nodes,
                      at_nodes + 3e-3 * directions,  # s < 0.1: the brackets' series branch
                      1e3 * directions,
                      1e200 * directions):
                whole = disturbance_velocity(x, f, dbody, kernel)
                with monkeypatch.context() as m:
                    m.setattr(mob, "_ASSEMBLY_CHUNK_PAIRS", 3 * dbody.n_nodes)  # 3 points a chunk
                    chunked = disturbance_velocity(x, f, dbody, kernel)
                z = oseen_tensor(x[..., None, :] - dbody.nodes, kernel)
                direct = np.einsum("...kij,k,kj->...i", z, dbody.weights, f)
                assert chunked.shape == x.shape
                assert np.array_equal(chunked, whole)
                assert np.allclose(chunked, direct, rtol=0, atol=1e-13 * np.abs(direct).max())

    def test_dissipation_peak_memory_bounded(self, kernel, rng):
        dbody = discretize(helix(0.2, 0.1, 3), 256)
        assert dbody.n_nodes == 1008  # where one (N, N, 3, 3) Oseen tensor is 73 MB
        f = rng.standard_normal(dbody.nodes.shape)
        tracemalloc.start()
        try:
            dissipation(f, dbody, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, peak


class TestEquivarianceViaTransform:
    def test_rediscretized_rotation_matches(self, kernel, rng):
        # rotating the body and re-discretizing transports the tensors too
        body = tripod_tetrahedron(1.0)
        base = resistance(discretize(body, 8), kernel)
        q = ortho_group.rvs(3, random_state=rng)
        rotated = resistance(discretize(transform(body, q, np.zeros(3)), 8), kernel)
        scale = np.linalg.norm(base.A)
        assert np.linalg.norm(rotated.K - q @ base.K @ q.T) < 1e-11 * scale

    def test_rotated_rod_keeps_spin_degeneracy(self, kernel, rng):
        q = ortho_group.rvs(3, random_state=rng)
        res = resistance(discretize(transform(rod(1.0), q, np.zeros(3)), 8), kernel)
        assert res.spin_nullity == 1
        axis = q @ np.array([1.0, 0.0, 0.0])
        assert min(
            np.linalg.norm(res.spin_axis - axis), np.linalg.norm(res.spin_axis + axis)
        ) < 1e-10


class TestSplitSolve:
    @pytest.mark.parametrize("name", ["bent_rod", "octahedron", "helix", "tripod"])
    def test_solve_matches_unsplit_system(self, bodies, kernel, rng, monkeypatch, name):
        import hyperstokes.geometry as geo

        dbody = discretize(bodies[name], 16)
        km = assemble(dbody, kernel)
        assert len(km._factor) == 2
        monkeypatch.setattr(geo, "find_involution", lambda nodes, weights: None)
        dense = assemble(discretize(bodies[name], 16), kernel)
        assert len(dense._factor) == 1
        m = 3 * dbody.n_nodes
        for u in (rng.normal(size=m), rng.normal(size=(m, 4))):
            f = km.solve(u)
            ref = dense.solve(u)
            assert f.shape == u.shape
            assert np.abs(f - ref).max() <= 1e-11 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["rod", "bent_rod", "tripod", "octahedron", "helix"])
    def test_resistance_matches_unsplit_system(self, bodies, kernel, monkeypatch, name):
        import hyperstokes.geometry as geo

        rng = np.random.default_rng(7)
        cases = []
        for trial in range(3):
            q = ortho_group.rvs(3, random_state=rng) if trial else np.eye(3)
            body = transform(bodies[name], q)
            for ell in (0.01, 0.1, 1.0):
                for resolution in (8, 16, 32, 64):
                    dbody = discretize(body, resolution)
                    cases.append((body, ell, resolution, dbody.involution is not None,
                                  resistance(dbody, HyperKernel(ell=ell)).A))
        monkeypatch.setattr(geo, "find_involution", lambda nodes, weights: None)
        for body, ell, resolution, split, a in cases:
            ref = resistance(discretize(body, resolution), HyperKernel(ell=ell)).A
            err = np.linalg.norm(a - ref) / np.linalg.norm(ref)
            assert err <= 1e-13, (ell, resolution, err)
            if not split:
                assert np.array_equal(a, ref)
        # every suite body splits, the tripod with a leg's nodes fixed by its mirror
        assert all(split for *_, split, _ in cases)


class TestFixedNodes:
    """Nodes on the symmetry element are orbits of one: the rod at odd N, the tripod."""

    @pytest.mark.parametrize("name, resolution, orders", [
        ("rod", 17, (26, 25)),  # the middle node on the mirror
        ("tripod", 16, (80, 64)),  # a leg's 16 nodes on the mirror
    ])
    @pytest.mark.parametrize("rotated", [False, True])
    def test_filled_blocks_match_orbit_basis(self, bodies, kernel, name, resolution, orders,
                                             rotated):
        import hyperstokes.mobility as mob

        q = ortho_group.rvs(3, random_state=np.random.default_rng(5)) if rotated else np.eye(3)
        dbody = discretize(transform(bodies[name], q), resolution)
        inv = dbody.involution
        assert np.any(inv.sigma == np.arange(dbody.n_nodes))
        orbits = mob._Orbits.of(inv)
        assert orbits.orders == orders
        assert orders[0] ** 3 + orders[1] ** 3 < 0.3 * (3 * dbody.n_nodes) ** 3
        bases = orbit_bases(dbody)
        together = np.hstack(bases)
        assert np.abs(together.T @ together - np.eye(3 * dbody.n_nodes)).max() < 1e-14
        full = oseen_matrix(dbody, kernel)
        scale = np.abs(full).max()
        assert np.abs(bases[0].T @ full @ bases[1]).max() <= 1e-13 * scale  # no coupling
        mt = nan_matrix(*orders)
        mob._fill_lower(mt, dbody, kernel, orbits)
        for (view, lower), basis in zip(mob._triangles(mt, orders), bases):
            block = basis.T @ full @ basis
            low = np.tril(view) if lower else np.triu(view).T
            assert np.abs(low - np.tril(block)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("resolution", [17, 33])
    def test_odd_rod_matches_identity_case(self, bodies, kernel, monkeypatch, resolution):
        import hyperstokes.geometry as geo

        dbody = discretize(bodies["rod"], resolution)
        km = assemble(dbody, kernel)
        assert km._orbits.orders == (3 * (resolution // 2) + 2, 3 * (resolution // 2) + 1)
        a = resistance(dbody, kernel, matrix=km).A
        monkeypatch.setattr(geo, "find_involution", lambda nodes, weights: None)
        ref = resistance(discretize(bodies["rod"], resolution), kernel).A
        assert np.linalg.norm(a - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("name", ["tripod", "helix", "rod"])
    def test_solve_refuses_data_of_another_shape(self, bodies, kernel, name):
        km = assemble(discretize(bodies[name], 16), kernel)
        m = 3 * km.body.n_nodes
        for shape in ((5,), (m + 3,), (m, 2, 1), (2, m), ()):
            with pytest.raises(InvalidArgument, match=rf"expected \({m},\) or \({m}, k\)"):
                km.solve(np.zeros(shape))
        assert km.solve(np.zeros((m, 0))).shape == (m, 0)


class TestFailedFactorization:
    @pytest.mark.parametrize("name", ["tripod", "helix"])  # one block, two blocks
    def test_failed_cholesky_is_singular_system(self, bodies, kernel, monkeypatch, name):
        import hyperstokes.mobility as mob

        def refuse(a, lower=True):
            raise np.linalg.LinAlgError("matrix is not positive definite (leading minor 3)")

        monkeypatch.setattr(mob, "cho_factor", refuse)
        with pytest.raises(SingularSystemError, match="not positive definite"):
            assemble(discretize(bodies[name], 8), kernel)


@pytest.fixture()
def openblas_threads():
    """(get, set) of LAPACK's thread count; the count is restored after the test."""
    if _lapack._threads is None:
        pytest.skip("this LAPACK's thread count cannot be set")
    get, set_ = _lapack._threads
    before = get()
    try:
        yield get, set_
    finally:
        set_(before)


class TestPinnedSplitFactorization:
    """The split blocks are factored side by side, each on one LAPACK thread."""

    @pytest.mark.parametrize("name, resolution", [("octahedron", 16), ("helix", 128)])
    def test_results_independent_of_cpus_and_starting_threads(self, bodies, kernel, monkeypatch,
                                                              openblas_threads, name, resolution):
        import hyperstokes.mobility as mob

        get, set_ = openblas_threads
        dbody = discretize(bodies[name], resolution)
        results = []
        for cpus in (1, 2):
            for threads in (1, 2):
                monkeypatch.setattr(mob, "_usable_cpus", lambda: cpus)
                set_(threads)
                km = assemble(dbody, kernel)
                assert get() == threads
                res = resistance(dbody, kernel, matrix=km)
                results.append(([c for c, _ in km._factor], km.condition, res.A))
        (factors, condition, a), *others = results
        for other_factors, other_condition, other_a in others:
            assert all(map(np.array_equal, other_factors, factors))
            assert other_condition == condition
            assert np.array_equal(other_a, a)

    def test_block_1_runs_on_a_helper_and_count_is_restored(self, bodies, kernel, monkeypatch,
                                                            openblas_threads):
        import hyperstokes.mobility as mob

        get, set_ = openblas_threads
        set_(2)
        dbody = discretize(bodies["helix"], 64)
        factor = mob.cho_factor
        seen = []

        def spy(a, lower=True):
            seen.append((lower, threading.current_thread() is threading.main_thread(), get()))
            return factor(a, lower)

        norm = mob.lansy
        normed = []

        def norm_spy(c, lower=True):
            normed.append((lower, threading.current_thread() is threading.main_thread()))
            return norm(c, lower)

        monkeypatch.setattr(mob, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mob, "cho_factor", spy)
        monkeypatch.setattr(mob, "lansy", norm_spy)
        assemble(dbody, kernel)
        assert sorted(seen) == [(False, False, 1), (True, True, 1)]
        # each block's 1-norm is taken on the thread that factors it
        assert sorted(normed) == [(False, False), (True, True)]
        assert get() == 2

    def test_solves_side_by_side_give_the_same_bits(self, bodies, kernel, monkeypatch,
                                                    openblas_threads, rng):
        import hyperstokes.mobility as mob

        get, set_ = openblas_threads
        set_(2)
        dbody = discretize(bodies["helix"], 256)
        km = assemble(dbody, kernel)
        u = rng.normal(size=(3 * dbody.n_nodes, 6))
        solve, seen = mob.cho_solve, []

        def spy(c, b, lower=True):
            seen.append((lower, threading.current_thread() is threading.main_thread(), get()))
            return solve(c, b, lower)

        monkeypatch.setattr(mob, "cho_solve", spy)
        monkeypatch.setattr(mob, "_usable_cpus", lambda: 2)
        pinned = km.solve(u)
        assert sorted(seen) == [(False, False, 1), (True, True, 1)]
        monkeypatch.setattr(mob, "_usable_cpus", lambda: 1)
        in_turn = km.solve(u)
        monkeypatch.setattr(_lapack, "_threads", None)  # not pinned: the library's threads
        seen.clear()
        unpinned = km.solve(u)
        assert seen == [(True, True, 2), (False, True, 2)]
        assert np.array_equal(pinned, in_turn)
        assert np.array_equal(pinned, unpinned)
        assert get() == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_block_wins_over_failed_factorization(self, bodies, kernel,
                                                             monkeypatch, cpus):
        import hyperstokes.mobility as mob

        fill = mob._fill_lower

        def nan_in_block_1(mt, dbody, kern, orbits):
            fill(mt, dbody, kern, orbits)
            _, (minus, lower) = mob._triangles(mt, orbits.orders)
            assert not lower
            minus[0, -1] = np.nan

        def refuse(a, lower=True):
            raise np.linalg.LinAlgError("matrix is not positive definite (leading minor 3)")

        monkeypatch.setattr(mob, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(mob, "_fill_lower", nan_in_block_1)
        monkeypatch.setattr(mob, "cho_factor", refuse)
        alive = threading.active_count()
        with pytest.raises(AssemblyError, match="non-finite"):
            assemble(discretize(bodies["helix"], 64), kernel)
        assert threading.active_count() == alive

    def test_interrupted_solve_restores_the_count_after_the_helper(self, bodies, kernel,
                                                                   monkeypatch,
                                                                   openblas_threads, rng):
        import hyperstokes.mobility as mob

        get, set_ = openblas_threads
        set_(2)
        dbody = discretize(bodies["helix"], 64)
        km = assemble(dbody, kernel)
        solve, join = mob.cho_solve, threading.Thread.join
        released, helper_counts = threading.Event(), []

        def held(c, b, lower=True):
            if threading.current_thread() is not threading.main_thread():
                assert released.wait(timeout=30)  # until the calling thread is interrupted
                helper_counts.append(get())
            return solve(c, b, lower)

        def interrupted_join(thread, timeout=None):
            if not released.is_set():
                released.set()
                raise KeyboardInterrupt("during the join")
            join(thread, timeout)

        monkeypatch.setattr(mob, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mob, "cho_solve", held)
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        alive = threading.active_count()
        with pytest.raises(KeyboardInterrupt, match="during the join"):
            km.solve(rng.normal(size=3 * dbody.n_nodes))
        # the helper's potrs ran pinned to the end, and only then was the count restored
        assert helper_counts == [1] and threading.active_count() == alive
        assert get() == 2

    def test_failed_block_1_is_raised_after_the_helper_ends(self, bodies, kernel, monkeypatch,
                                                            openblas_threads):
        import hyperstokes.mobility as mob

        get, set_ = openblas_threads
        set_(2)
        factor = mob.cho_factor
        ended = []

        def refuse_block_1(a, lower=True):
            if lower:
                factor(a, lower)
                ended.append(0)
                return a
            raise np.linalg.LinAlgError("matrix is not positive definite (leading minor 7)")

        monkeypatch.setattr(mob, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mob, "cho_factor", refuse_block_1)
        alive = threading.active_count()
        with pytest.raises(SingularSystemError, match="leading minor 7"):
            assemble(discretize(bodies["helix"], 64), kernel)
        assert ended == [0]
        assert threading.active_count() == alive
        assert get() == 2

    def test_without_thread_count_calls_blocks_run_in_turn(self, bodies, kernel, monkeypatch):
        dbody = discretize(bodies["helix"], 64)
        ref = resistance(dbody, kernel)

        def no_thread(self):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(_lapack, "_threads", None)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        res = resistance(dbody, kernel)
        assert np.linalg.norm(res.A - ref.A) <= 1e-13 * np.linalg.norm(ref.A)
        assert res.condition == pytest.approx(ref.condition, rel=1e-10)

    def test_concurrent_assembles_match_sequential(self, bodies, kernel, openblas_threads):
        get, _ = openblas_threads
        before = get()
        names = ("bent_rod", "octahedron", "helix")  # more solving threads than cores
        dbodies = [discretize(bodies[name], 64) for name in names]
        sequential = [resistance(dbody, kernel) for dbody in dbodies]
        results, errors = [[] for _ in names], []

        def solve(i):
            try:
                for _ in range(3):
                    results[i].append(resistance(dbodies[i], kernel))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        workers = [threading.Thread(target=solve, args=(i,)) for i in range(len(names))]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert get() == before
        for runs, ref in zip(results, sequential):
            assert len(runs) == 3
            for res in runs:
                assert res.condition == ref.condition
                assert np.array_equal(res.A, ref.A)
