"""Boundary-integral solver: reciprocity, definiteness, equivariance, convergence."""

import dataclasses
import sys
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
from hyperstokes.mobility import dissipation, symmetrized_matrix


def single_node_body(ell=1.0):
    """A rod discretized to exactly one quadrature node at the origin."""
    return discretize(rod(1.0), 1.0)


@pytest.fixture()
def dense_path(monkeypatch):
    """Bodies discretized from now on have no involution, so assemble never splits."""
    import hyperstokes.geometry as geo

    monkeypatch.setattr(geo, "find_involution", lambda nodes, weights: None)


def split_blocks(dbody, kernel):
    """Mt+ and Mt- formed from the full matrix by the explicit change of basis."""
    inv = dbody.involution
    n = dbody.n_nodes
    reps = np.flatnonzero(inv.sigma > np.arange(n))
    full = symmetrized_matrix(dbody, kernel)
    blocks = []
    for sign in (1.0, -1.0):
        basis = np.zeros((n, 3, len(reps), 3))
        basis[reps, :, np.arange(len(reps)), :] = np.eye(3) / np.sqrt(2.0)
        basis[inv.sigma[reps], :, np.arange(len(reps)), :] = sign * inv.Q / np.sqrt(2.0)
        basis = basis.reshape(3 * n, 3 * n // 2)
        blocks.append(basis.T @ full @ basis)
    return blocks


class TestAssemble:
    def test_single_node_matrix(self):
        dbody = single_node_body()
        km = assemble(dbody, HyperKernel(ell=1.0))
        mt = symmetrized_matrix(dbody, HyperKernel(ell=1.0))
        assert np.allclose(mt, np.eye(3) / (6.0 * pi), rtol=1e-14)
        assert km.positive_definite
        assert km.condition >= 1.0

    def test_matrix_exactly_symmetric(self, kernel):
        mt = symmetrized_matrix(discretize(tripod_tetrahedron(1.0), 8), kernel)
        assert np.array_equal(mt, mt.T)

    def test_distant_pair_block_matches_classical_oseen(self, kernel):
        # two single-node stubs 1e4 * ell apart
        gap = 1e4 * kernel.ell
        seg1 = Segment(points=np.array([[-0.005, 0.0, 0.0], [0.005, 0.0, 0.0]]))
        seg2 = Segment(points=np.array([[gap - 0.005, 0.0, 0.0], [gap + 0.005, 0.0, 0.0]]))
        body = BodyGeometry(name="pair", segments=(seg1, seg2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # intentionally disconnected
            dbody = discretize(body, 1.0)
        mt = symmetrized_matrix(dbody, kernel)
        w = dbody.weights[0]
        block = mt[0:3, 3:6] / w  # sqrt(w1) sqrt(w2) = w here
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
        x, w, n = dbody.nodes, dbody.weights, dbody.n_nodes
        mt = symmetrized_matrix(dbody, kernel)
        ref = np.sqrt(w[:, None, None, None] * w[None, :, None, None]) * oseen_tensor(
            x[:, None, :] - x[None, :, :], kernel
        )
        ref = ref.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
        assert np.abs(mt - ref).max() <= 1e-15 * np.abs(ref).max()
        assert np.array_equal(mt, mt.T)
        if resolution == 128:
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
        assert peak <= 0.6 * matrix_bytes, peak / matrix_bytes

    def test_non_finite_entry_rejected(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        factors = mob._factors_over_s

        def nan_in_one_pair(s, kern):
            a, b = factors(s, kern)
            a.flat[-1] = np.nan
            return a, b

        monkeypatch.setattr(mob, "_factors_over_s", nan_in_one_pair)
        with pytest.raises(AssemblyError, match="non-finite"):
            assemble(discretize(tripod_tetrahedron(1.0), 8), kernel)

    def test_matrix_larger_than_memory_rejected(self, kernel, monkeypatch, dense_path):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 32)
        need = 8 * (3 * dbody.n_nodes) ** 2
        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(AssemblyError, match="physical memory"):
            assemble(dbody, kernel)
        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: need)
        assert assemble(dbody, kernel).positive_definite

    def test_split_blocks_larger_than_memory_rejected(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 32)
        assert dbody.involution is not None
        need = 2 * 8 * (3 * dbody.n_nodes // 2) ** 2  # half the unsplit matrix
        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(AssemblyError, match="physical memory"):
            assemble(dbody, kernel)
        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: need)
        assert assemble(dbody, kernel).positive_definite

    def test_matrix_larger_than_available_memory_rejected(self, kernel, monkeypatch,
                                                          dense_path):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 512)  # a 279 MB matrix
        need = 8 * (3 * dbody.n_nodes) ** 2
        monkeypatch.setattr(mob, "_available_memory_bytes", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(AssemblyError, match="memory available now"):
                assemble(dbody, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need / 100

    def test_split_blocks_larger_than_available_memory_rejected(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 512)  # two 70 MB blocks
        need = 2 * 8 * (3 * dbody.n_nodes // 2) ** 2
        monkeypatch.setattr(mob, "_available_memory_bytes", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(AssemblyError, match="memory available now"):
                assemble(dbody, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need / 100

    def test_available_memory_read_from_meminfo(self, kernel, monkeypatch, tmp_path,
                                                dense_path):
        import hyperstokes.mobility as mob

        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:       8000 kB\nMemAvailable:    1234 kB\n")
        monkeypatch.setattr(mob, "_MEMINFO", str(meminfo))
        assert mob._available_memory_bytes() == 1234 * 1024
        with pytest.raises(AssemblyError, match="memory available now"):
            assemble(discretize(helix(0.2, 0.1, 3), 32), kernel)
        # unreadable: physical memory is the only limit
        monkeypatch.setattr(mob, "_MEMINFO", str(tmp_path / "missing"))
        assert mob._available_memory_bytes() is None
        assert assemble(discretize(helix(0.2, 0.1, 3), 32), kernel).positive_definite

    @pytest.mark.parametrize("name, resolution, cpus", [
        ("tripod", 8, 2),  # one column block
        ("helix", 128, 1),  # six blocks, one CPU
    ])
    def test_single_worker_fill_starts_no_thread_pool(self, bodies, kernel, monkeypatch,
                                                      name, resolution, cpus):
        import hyperstokes.mobility as mob

        dbody = discretize(bodies[name], resolution)
        ref = resistance(dbody, kernel)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(mob, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(mob, "_usable_cpus", lambda: cpus)
        assert np.array_equal(resistance(dbody, kernel).A, ref.A)

    @pytest.mark.parametrize("name, resolution, blocks", [
        ("tripod", 8, 1),
        ("helix", 128, 6),  # several column blocks: the fill runs on the pool
    ])
    def test_factor_is_cholesky_of_full_matrix(self, bodies, kernel, dense_path,
                                               name, resolution, blocks):
        import hyperstokes.mobility as mob

        dbody = discretize(bodies[name], resolution)
        assert len(mob._column_blocks(dbody.n_nodes)) == blocks
        km = assemble(dbody, kernel)
        # the same LAPACK build as assemble's: another one may round differently
        ref = _lapack.cho_factor(symmetrized_matrix(dbody, kernel))
        assert np.array_equal(np.tril(km._factor[0]), np.tril(ref))

    @pytest.mark.parametrize("name, resolution", [
        ("bent_rod", 8), ("octahedron", 8), ("helix", 8),
        ("helix", 128),  # several column blocks: the fill runs on the pool
    ])
    def test_split_factors_are_cholesky_of_split_blocks(self, bodies, kernel,
                                                        name, resolution):
        dbody = discretize(bodies[name], resolution)
        km = assemble(dbody, kernel)
        assert km._split is not None and len(km._factor) == 2
        for factor, block in zip(km._factor, split_blocks(dbody, kernel)):
            low = np.tril(factor)
            assert np.abs(low @ low.T - block).max() <= 1e-13 * np.abs(block).max()

    @pytest.mark.parametrize("name", ["rod", "bent_rod", "tripod", "octahedron", "helix"])
    def test_condition_uses_norm_of_full_matrix(self, bodies, kernel, dense_path, name):
        dbody = discretize(bodies[name], 128)
        km = assemble(dbody, kernel)
        full = symmetrized_matrix(dbody, kernel)
        lange, pocon = get_lapack_funcs(("lange", "pocon"), (full,))
        rcond, _ = pocon(km._factor[0], lange("1", full), uplo="L")
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
        inverse_norms = [1.0 / (pocon(factor, norm, uplo="L")[0] * norm)
                         for factor, norm in zip(km._factor, norms)]
        assert km.condition == pytest.approx(max(norms) * max(inverse_norms), rel=1e-12)
        # the same estimate as the unsplit system's, up to the change of basis
        full = symmetrized_matrix(dbody, kernel)
        lange, pocon = get_lapack_funcs(("lange", "pocon"), (full,))
        rcond, _ = pocon(np.linalg.cholesky(full), lange("1", full), uplo="L")
        assert 0.5 < km.condition * rcond < 2.0

    def test_unwritten_upper_triangle_is_never_read(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 128)
        ref = resistance(dbody, kernel)
        # an uninitialized allocation may hold any bits, NaN included
        monkeypatch.setattr(
            mob, "_empty_matrix",
            lambda m, count: np.full((m, m, count), np.nan, order="F"),
        )
        res = resistance(dbody, kernel)
        assert np.array_equal(res.A, ref.A)
        assert res.condition == pytest.approx(ref.condition, rel=1e-12)

    def test_fill_independent_of_worker_count_and_timing(self, kernel, monkeypatch):
        import hyperstokes.mobility as mob

        dbody = discretize(helix(0.2, 0.1, 3), 128)
        for split in (None, mob._split_nodes(dbody.involution)):
            count = 1 if split is None else 2
            m = 3 * dbody.n_nodes // count
            results = []
            interval = sys.getswitchinterval()
            try:
                sys.setswitchinterval(1e-6)
                for workers in (1, 8):  # 8 exceeds the column blocks and most core counts
                    monkeypatch.setattr(mob, "_usable_cpus", lambda: workers)
                    mt = np.zeros((m, m, count), order="F")
                    norms = mob._fill_lower(mt, dbody, kernel, split)
                    results.append((norms, np.tril(mt.transpose(2, 0, 1))))
            finally:
                sys.setswitchinterval(interval)
            (norm1, low1), (norm8, low8) = results
            assert norm1 == norm8
            assert np.array_equal(low1, low8)

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

    def test_from_blocks_diagnostics(self):
        res = ResistanceSet.from_blocks(
            K=np.eye(3), S=np.zeros((3, 3)), C=np.zeros((3, 3)), B=np.eye(3)
        )
        assert res.asymmetry == 0.0
        assert res.min_eigenvalue == pytest.approx(1.0)


class TestDisturbanceVelocity:
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
    @pytest.mark.parametrize("name", ["bent_rod", "octahedron", "helix"])
    def test_solve_matches_unsplit_system(self, bodies, kernel, rng, monkeypatch, name):
        import hyperstokes.geometry as geo

        dbody = discretize(bodies[name], 16)
        km = assemble(dbody, kernel)
        assert km._split is not None
        monkeypatch.setattr(geo, "find_involution", lambda nodes, weights: None)
        dense = assemble(discretize(bodies[name], 16), kernel)
        assert dense._split is None
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
        # only the tripod (its mirrors hold a leg) keeps the dense path
        assert all(split for *_, split, _ in cases) == (name != "tripod")


class TestFailedFactorization:
    @pytest.mark.parametrize("name", ["tripod", "helix"])  # one block, two blocks
    def test_failed_cholesky_is_singular_system(self, bodies, kernel, monkeypatch, name):
        import hyperstokes.mobility as mob

        def refuse(a):
            raise np.linalg.LinAlgError("matrix is not positive definite (leading minor 3)")

        monkeypatch.setattr(mob, "cho_factor", refuse)
        with pytest.raises(SingularSystemError, match="not positive definite"):
            assemble(discretize(bodies[name], 8), kernel)
