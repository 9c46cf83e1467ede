"""Bodies, mass accounting and quadrature: exactness, symmetry, equivariance."""

import hashlib
import warnings

import numpy as np
import pytest

from hyperstokes import geometry
from hyperstokes import (
    BodyConfigError,
    BodyGeometry,
    HyperKernel,
    InvalidArgument,
    Segment,
    bent_rod,
    diameter,
    discretize,
    helix,
    mass_properties,
    octahedron_frame,
    rod,
    transform,
    tripod_tetrahedron,
)


def riemann_mass_oracle(body, n_sub=200_000):
    """Brute-force line integrals by subdividing every edge uniformly."""
    m = 0.0
    moment = np.zeros(3)
    length = 0.0
    geo_moment = np.zeros(3)
    for seg in body.segments:
        for i, rho in enumerate(seg.density):
            p0, p1 = seg.points[i], seg.points[i + 1]
            ell = np.linalg.norm(p1 - p0)
            t = (np.arange(n_sub) + 0.5) / n_sub
            pts = p0 + t[:, None] * (p1 - p0)
            dl = ell / n_sub
            m += rho * ell
            length += ell
            moment += rho * dl * pts.sum(axis=0)
            geo_moment += dl * pts.sum(axis=0)
    return m, moment / m, geo_moment / length


def connected_by_loops(body):
    """Reference: every segment end against every edge, then scipy's components."""
    from scipy.sparse.csgraph import connected_components

    tol = 1e-9 * diameter(body)
    n = len(body.segments)
    touch = np.zeros((n, n), dtype=bool)
    for i, seg in enumerate(body.segments):
        for j, other in enumerate(body.segments):
            for end in (seg.points[0], seg.points[-1]):
                for a, b in zip(other.points[:-1], other.points[1:]):
                    t = np.clip((end - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
                    touch[i, j] |= np.linalg.norm(end - a - t * (b - a)) <= tol
    return connected_components(touch, directed=False)[0] == 1


def two_density_rod():
    seg = Segment(
        points=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        density=np.array([2.0, 1.0]),
    )
    return BodyGeometry(name="two_density_rod", segments=(seg,))


class TestMassProperties:
    def test_uniform_rod_r_zero(self):
        mass = mass_properties(rod(1.0))
        assert np.allclose(mass.r, 0.0, atol=1e-15)
        assert mass.m == pytest.approx(1.0, rel=1e-15)
        assert mass.m_e == pytest.approx(1.0, rel=1e-15)

    def test_two_density_rod_closed_form(self):
        # density 2 on [0, 1/2], 1 on [1/2, 1]:
        # m = 3/2, com = 5/12, centroid = 1/2, r = 1/12
        mass = mass_properties(two_density_rod())
        assert mass.m == pytest.approx(1.5, rel=1e-15)
        assert mass.center_of_mass[0] == pytest.approx(5.0 / 12.0, rel=1e-14)
        assert mass.centroid[0] == pytest.approx(0.5, rel=1e-14)
        assert mass.r[0] == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert np.allclose(mass.r[1:], 0.0)

    def test_two_density_rod_against_riemann_oracle(self):
        body = two_density_rod()
        mass = mass_properties(body)
        m_ref, com_ref, centroid_ref = riemann_mass_oracle(body)
        assert mass.m == pytest.approx(m_ref, rel=1e-12)
        assert np.allclose(mass.center_of_mass, com_ref, atol=1e-10)
        assert np.allclose(mass.centroid, centroid_ref, atol=1e-10)

    def test_octahedron_center_of_mass_at_center(self):
        mass = mass_properties(octahedron_frame(1.0))
        assert np.allclose(mass.center_of_mass, 0.0, atol=1e-15)

    def test_m_c_bookkeeping(self):
        body = BodyGeometry(
            name="b", segments=rod(2.0).segments, m_c=0.5
        )
        mass = mass_properties(body)
        assert mass.m == pytest.approx(2.0)
        assert mass.m_c == 0.5
        assert mass.m_e == pytest.approx(1.5)

    def test_m_c_exceeding_mass_rejected(self):
        body = BodyGeometry(name="b", segments=rod(1.0).segments, m_c=2.0)
        with pytest.raises(BodyConfigError):
            mass_properties(body)

    def test_m_e_and_r_are_computed_from_the_fields(self):
        import dataclasses

        body = BodyGeometry(name="b", segments=two_density_rod().segments, m_c=0.25)
        mass = mass_properties(body)
        assert [f.name for f in dataclasses.fields(mass)] == [
            "m", "m_c", "center_of_mass", "centroid", "total_length"]
        assert mass.m_e == mass.m - mass.m_c
        assert np.array_equal(mass.r, mass.centroid - mass.center_of_mass)


class TestDiscretize:
    def test_rod_resolution_four(self):
        dbody = discretize(rod(1.0), 4)
        expected = np.array([1, 3, 5, 7]) / 8.0 - 0.5
        assert np.allclose(np.sort(dbody.nodes[:, 0]), expected, atol=1e-15)
        assert np.allclose(dbody.nodes[:, 1:], 0.0)
        assert np.allclose(dbody.weights, 0.25)

    def test_weights_partition_arc_length(self):
        for body in (rod(1.0), bent_rod(90.0, 0.5), tripod_tetrahedron(1.0),
                     octahedron_frame(1.0), helix(0.2, 0.1, 3)):
            for res in (4, 8, 16):
                dbody = discretize(body, res)
                assert dbody.weights.sum() == pytest.approx(
                    mass_properties(body).total_length, rel=1e-12
                )

    def test_density_moment_vanishes(self):
        for body in (two_density_rod(), bent_rod(60.0, 0.7)):
            dbody = discretize(body, 16)
            moment = (dbody.weights * dbody.densities) @ dbody.nodes
            assert np.linalg.norm(moment) < 1e-12 * diameter(body)

    def test_doubling_resolution_doubles_nodes(self):
        n8 = discretize(rod(1.0), 8).n_nodes
        n16 = discretize(rod(1.0), 16).n_nodes
        assert (n8, n16) == (8, 16)

    def test_nodes_pairwise_distinct(self):
        dbody = discretize(tripod_tetrahedron(1.0), 8)
        d2 = np.sum(
            (dbody.nodes[:, None, :] - dbody.nodes[None, :, :]) ** 2, axis=-1
        )
        np.fill_diagonal(d2, np.inf)
        assert d2.min() > 1e-6

    @pytest.mark.parametrize("chunk_pairs", [250_000, 997])
    def test_diameter_matches_one_shot_formula(self, bodies, monkeypatch, chunk_pairs):
        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", chunk_pairs)
        for name, body in bodies.items():
            dbody = discretize(body, 16)
            x = dbody.nodes
            d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
            assert dbody.diameter == float(np.sqrt(d2.max())), name

    def test_bad_resolution(self):
        with pytest.raises(InvalidArgument):
            discretize(rod(1.0), 0.0)
        with pytest.raises(InvalidArgument):
            discretize(rod(1.0), -3)
        with pytest.raises(InvalidArgument, match="more nodes than a float counts"):
            discretize(rod(10.0), 1e308)  # length x resolution overflows

    def test_nodes_larger_than_memory_rejected(self, monkeypatch):
        import hyperstokes.errors as err

        monkeypatch.setattr(err, "_available_memory_bytes", lambda: None)
        monkeypatch.setattr(err, "_physical_memory_bytes", lambda: 100 * 8)
        assert discretize(rod(1.0), 8).n_nodes == 8
        with pytest.raises(InvalidArgument, match="physical memory"):
            discretize(rod(1.0), 9)

    def test_second_moment_second_order_convergence(self):
        # the scalar second moment integral has a closed form per edge;
        # midpoint quadrature converges at second order towards it
        body = tripod_tetrahedron(1.0)
        mass = mass_properties(body)
        exact = 0.0
        for seg in body.segments:
            for i, rho in enumerate(seg.density):
                a = seg.points[i] - mass.center_of_mass
                b = seg.points[i + 1] - seg.points[i]
                ell = np.linalg.norm(b)
                exact += rho * ell * (a @ a + a @ b + (b @ b) / 3.0)
        errors = []
        for res in (8, 16, 32):
            dbody = discretize(body, res)  # nodes are centered on the com
            approx = np.sum(
                dbody.weights * dbody.densities * np.sum(dbody.nodes**2, axis=1)
            )
            errors.append(abs(approx - exact))
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.6)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.6)


class TestNearestNeighbors:
    @pytest.mark.parametrize("n", [12, 13, 20, 50, 100, 2000, 5000, 20000])
    def test_lattice_neighbor_sets_match_kd_tree(self, n):
        from scipy.spatial import cKDTree

        from hyperstokes.dynamics import fibonacci_sphere

        grid = fibonacci_sphere(n)
        dist, idx = geometry.nearest_neighbors(grid, grid, k=7)
        ref_dist, ref_idx = cKDTree(grid).query(grid, k=7)
        assert np.array_equal(np.sort(idx, axis=1), np.sort(ref_idx, axis=1))
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(idx[:, 0], np.arange(n))  # each point is its own nearest

    @pytest.mark.parametrize("chunk_pairs", [250_000, 7])
    @pytest.mark.parametrize("k", [1, 3])
    def test_clouds_match_kd_tree(self, rng, monkeypatch, chunk_pairs, k):
        from scipy.spatial import cKDTree

        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", chunk_pairs)
        for n in (3, 37, 500):
            points = rng.standard_normal((n, 3)) * [1.0, 5.0, 0.2]
            queries = rng.standard_normal((n + 5, 3))
            dist, idx = geometry.nearest_neighbors(points, queries, k)
            ref_dist, ref_idx = cKDTree(points).query(queries, k=[*range(1, k + 1)])
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(dist, ref_dist)

    def test_no_wide_window_on_axis_aligned_body(self, bodies, monkeypatch):
        # whole edges of the octahedron lie in coordinate planes, so hundreds
        # of its nodes share each coordinate value
        nodes = discretize(bodies["octahedron"], 128).nodes
        c4 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        widths = []
        partition = np.argpartition

        def spy(a, kth, axis=-1, **kwargs):
            widths.append(a.shape[axis])
            return partition(a, kth, axis=axis, **kwargs)

        monkeypatch.setattr(np, "argpartition", spy)
        dist, idx = geometry.nearest_neighbors(nodes, nodes @ c4.T)
        assert dist.max() <= 1e-12 * np.abs(nodes).max()
        assert max(widths) <= 64

    def test_more_neighbors_than_points_rejected(self):
        with pytest.raises(InvalidArgument):
            geometry.nearest_neighbors(np.zeros((2, 3)), np.zeros((1, 3)), k=3)


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


class TestFindInvolution:
    @staticmethod
    def _check(inv, nodes, weights):
        """Check that ``inv`` is an involution of the nodes; return how many it fixes."""
        n = len(nodes)
        assert np.array_equal(inv.sigma[inv.sigma], np.arange(n))
        fixed = int(np.sum(inv.sigma == np.arange(n)))
        assert fixed < n - 1  # a pair moves
        assert np.array_equal(inv.Q, inv.Q.T)
        assert np.abs(inv.Q @ inv.Q - np.eye(3)).max() < 1e-14
        assert np.trace(inv.Q) < 2.5  # not the identity
        c = weights @ nodes / weights.sum()
        size = np.linalg.norm(nodes - c, axis=1).max()
        assert np.abs((nodes - c) @ inv.Q + c - nodes[inv.sigma]).max() <= 1e-12 * size
        assert np.abs(weights[inv.sigma] - weights).max() <= 1e-12 * weights.max()
        return fixed

    @pytest.mark.parametrize("name", ["bent_rod", "octahedron", "helix"])
    @pytest.mark.parametrize("resolution", [8, 16, 64])
    def test_found_for_symmetric_bodies(self, bodies, name, resolution):
        dbody = discretize(bodies[name], resolution)
        inv = dbody.involution
        assert inv is not None
        assert dbody.involution is inv  # found once per body
        assert self._check(inv, dbody.nodes, dbody.weights) == 0

    @pytest.mark.parametrize("resolution", [8, 16, 64])
    def test_tripod_fixes_nodes(self, bodies, rng, resolution):
        # its rotations are of order 3 and its mirrors each hold a leg, so
        # the involution found is a mirror that fixes one leg's nodes
        for q in (np.eye(3), _random_rotation(rng)):
            dbody = discretize(transform(bodies["tripod"], q), resolution)
            inv = dbody.involution
            assert self._check(inv, dbody.nodes, dbody.weights) == dbody.n_nodes // 3
            assert np.linalg.det(inv.Q) == pytest.approx(-1.0)

    def test_none_for_random_polyline(self, rng):
        body = BodyGeometry(name="polyline", segments=(Segment(points=rng.normal(size=(6, 3))),))
        for resolution in (8, 16, 64):
            assert discretize(body, resolution).involution is None

    @pytest.mark.parametrize("resolution", [8, 16, 64])
    def test_found_for_rod_at_even_n(self, bodies, rng, resolution):
        # collinear: the mirror through its midpoint swaps the two halves
        for q in (np.eye(3), _random_rotation(rng)):
            dbody = discretize(transform(bodies["rod"], q), resolution)
            assert dbody.n_nodes % 2 == 0
            assert self._check(dbody.involution, dbody.nodes, dbody.weights) == 0

    @pytest.mark.parametrize("resolution", [9, 17, 65])
    def test_rod_at_odd_n_fixes_its_middle_node(self, bodies, rng, resolution):
        for q in (np.eye(3), _random_rotation(rng)):
            dbody = discretize(transform(bodies["rod"], q), resolution)
            inv = dbody.involution
            assert self._check(inv, dbody.nodes, dbody.weights) == 1
            assert inv.sigma[resolution // 2] == resolution // 2
            assert np.abs(inv.Q @ (q @ [1.0, 0.0, 0.0]) + q @ [1.0, 0.0, 0.0]).max() < 1e-12

    def test_none_for_helix_with_one_vertex_moved(self, bodies):
        points = bodies["helix"].segments[0].points.copy()
        assert discretize(bodies["helix"], 16).involution is not None
        points[20] += 1e-9 * np.array([0.6, 0.0, 0.8])
        moved = BodyGeometry(name="helix", segments=(Segment(points=points),))
        assert discretize(moved, 16).involution is None

    def test_none_for_unequal_weights(self):
        # a regular hexagon: point symmetric, so only the weights can rule it out
        angles = np.arange(6) * np.pi / 3.0
        nodes = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
        inv = geometry.find_involution(nodes, np.ones(6))
        assert inv is not None
        assert self._check(inv, nodes, np.ones(6)) == 0
        # alternating weights keep the centroid; every point-free map of the
        # hexagon onto itself sends a vertex to one of the other weight, so
        # only a mirror through two opposite vertices is left
        weights = np.array([2.0, 1.0] * 3)
        inv = geometry.find_involution(nodes, weights)
        assert self._check(inv, nodes, weights) == 2
        # and so does a perturbation of a single weight
        weights = discretize(helix(0.2, 0.1, 3), 16).weights.copy()
        weights[3] *= 1.0 + 1e-9
        assert geometry.find_involution(discretize(helix(0.2, 0.1, 3), 16).nodes,
                                        weights) is None

    # (Q, a digest of sigma) at resolution 16, as found before fixed nodes were
    # accepted: a body with a point-free involution keeps the one it had
    POINT_FREE = {
        "rod": ([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], "9a720029b8484a22"),
        "bent_rod": ([[1, 0, 0], [0, -1, 0], [0, 0, 1]], "9a720029b8484a22"),
        "octahedron": ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], "d2e241412466df2b"),
        "helix": ([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], "28bb675959655282"),
    }

    @pytest.mark.parametrize("name", ["rod", "bent_rod", "octahedron", "helix"])
    def test_deterministic_under_rotation(self, bodies, rng, name):
        ref = discretize(bodies[name], 16).involution
        q_ref, sigma_digest = self.POINT_FREE[name]
        assert np.abs(ref.Q - q_ref).max() < 1e-15
        assert hashlib.sha1(ref.sigma.astype(np.int64).tobytes()).hexdigest()[:16] == sigma_digest
        for _ in range(4):
            q = _random_rotation(rng)
            inv = discretize(transform(bodies[name], q), 16).involution
            assert np.array_equal(inv.sigma, ref.sigma)
            assert np.abs(inv.Q - q @ ref.Q @ q.T).max() < 1e-12

    # the tripod's two mirrors that move the anchor both fix nodes, so both are tried
    @pytest.mark.parametrize("name, full_matches", [("tripod", 2), ("helix", 1)])
    def test_rejected_candidates_skip_the_full_match(self, bodies, monkeypatch,
                                                     name, full_matches):
        sizes = []
        search = geometry.nearest_neighbors

        def counting(points, queries, k=1):
            sizes.append(len(queries))
            return search(points, queries, k)

        monkeypatch.setattr(geometry, "nearest_neighbors", counting)
        dbody = discretize(bodies[name], 64)
        assert dbody.involution is not None
        assert sizes.count(dbody.n_nodes) == full_matches


class TestTransform:
    def test_identity(self):
        body = bent_rod(90.0, 0.5)
        same = transform(body, np.eye(3), np.zeros(3))
        for s1, s2 in zip(body.segments, same.segments):
            assert np.array_equal(s1.points, s2.points)

    def test_composition(self, rng):
        from scipy.stats import ortho_group

        body = tripod_tetrahedron(1.0)
        q1 = ortho_group.rvs(3, random_state=rng)
        q2 = ortho_group.rvs(3, random_state=rng)
        t1 = rng.normal(size=3)
        t2 = rng.normal(size=3)
        once = transform(transform(body, q1, t1), q2, t2)
        combined = transform(body, q2 @ q1, q2 @ t1 + t2)
        for s1, s2 in zip(once.segments, combined.segments):
            assert np.allclose(s1.points, s2.points, atol=1e-13)

    def test_r_equivariance(self, rng):
        from scipy.stats import ortho_group

        seg = Segment(
            points=bent_rod(90.0, 0.5).segments[0].points,
            density=np.array([2.0, 1.0]),
        )
        body = BodyGeometry(name="bent_heavy", segments=(seg,))
        q = ortho_group.rvs(3, random_state=rng)
        t = rng.normal(size=3)
        r0 = mass_properties(body).r
        r1 = mass_properties(transform(body, q, t)).r
        assert np.allclose(r1, q @ r0, atol=1e-14)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidArgument):
            transform(rod(1.0), np.eye(3) * 1.5, np.zeros(3))

    def test_rejects_a_matrix_that_is_not_3x3(self):
        with pytest.raises(InvalidArgument, match="3x3"):
            geometry.ensure_orthogonal(np.eye(2))

    @pytest.mark.parametrize("t", [(1.0, 2.0), (np.nan, 0.0, 0.0), (0.0, np.inf, 0.0)],
                             ids=["two-vector", "nan", "inf"])
    def test_rejects_a_translation_that_is_not_a_finite_3_vector(self, t):
        with pytest.raises(InvalidArgument, match="translation must be a finite 3-vector"):
            transform(rod(1.0), np.eye(3), t)

    def test_discretize_commutes_with_transform(self, rng):
        from scipy.stats import ortho_group

        body = bent_rod(75.0, 0.4)
        q = ortho_group.rvs(3, random_state=rng)
        t = rng.normal(size=3)
        direct = discretize(transform(body, q, t), 12)
        mapped = discretize(body, 12).nodes @ q.T
        # translation drops out: both are centered on the center of mass
        assert np.allclose(direct.nodes, mapped, atol=1e-13)

    def test_node_count_rotation_invariant(self, bodies, rng):
        # a rotation that lengthens an edge by an ulp must not add an element
        from scipy.stats import ortho_group

        for name, body in bodies.items():
            counts = {res: discretize(body, res).n_nodes for res in (8, 16, 32)}
            for q in ortho_group.rvs(3, size=40, random_state=rng):
                rotated = transform(body, q)
                for res, n in counts.items():
                    assert discretize(rotated, res).n_nodes == n, (name, res)


class TestBuilders:
    def test_rod_endpoints(self):
        pts = rod(1.0).segments[0].points
        assert np.allclose(pts, [[-0.5, 0, 0], [0.5, 0, 0]], atol=1e-16)

    def test_bent_rod_in_plane_with_right_angle(self):
        body = bent_rod(90.0, 0.5)
        pts = body.segments[0].points
        assert np.allclose(pts[:, 0], 0.0)
        arm1 = pts[0] - pts[1]
        arm2 = pts[2] - pts[1]
        assert np.linalg.norm(arm1) == pytest.approx(0.5, rel=1e-15)
        assert float(arm1 @ arm2) == pytest.approx(0.0, abs=1e-16)

    def test_tripod_invariant_under_third_turn(self):
        body = tripod_tetrahedron(1.0)
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        q = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        dbody = discretize(body, 8)
        mapped = dbody.nodes @ q.T
        d2 = np.sum((mapped[:, None, :] - dbody.nodes[None, :, :]) ** 2, axis=-1)
        assert np.sqrt(d2.min(axis=1).max()) < 1e-13

    def test_tripod_edges_unit_length(self):
        body = tripod_tetrahedron(1.0)
        for seg in body.segments:
            assert np.linalg.norm(np.diff(seg.points, axis=0)) == pytest.approx(1.0, rel=1e-14)

    def test_octahedron_frame_counts(self):
        body = octahedron_frame(1.0)
        assert len(body.segments) == 12
        assert mass_properties(body).total_length == pytest.approx(12.0, rel=1e-14)

    def test_helix_length_close_to_smooth(self):
        body = helix(0.2, 0.1, 3)
        smooth = 3.0 * np.hypot(2 * np.pi * 0.2, 0.1)
        polyline = mass_properties(body).total_length
        assert polyline < smooth
        assert polyline == pytest.approx(smooth, rel=0.01)

    @pytest.mark.parametrize("turns", [0.01, 0.03])  # 0.16 and 0.48 of a sample
    def test_helix_shorter_than_one_sample_has_one_edge(self, turns):
        pts = helix(0.2, 0.1, turns).segments[0].points
        t = 2.0 * np.pi * turns
        assert np.allclose(pts, [[-0.05 * turns, 0.2, 0.0],
                                 [0.05 * turns, 0.2 * np.cos(t), 0.2 * np.sin(t)]],
                           rtol=0.0, atol=1e-16)
        assert discretize(helix(0.2, 0.1, turns), 16).nodes.shape == (1, 3)

    @pytest.mark.parametrize(
        "builder,args",
        [
            (rod, (0.0,)),
            (rod, (-1.0,)),
            (bent_rod, (0.0, 1.0)),
            (bent_rod, (90.0, -1.0)),
            (tripod_tetrahedron, (0.0,)),
            (octahedron_frame, (-2.0,)),
            (helix, (0.0, 0.1, 3)),
            (bent_rod, (180.0, 1.0)),  # an opening angle of 180 deg or more
        ],
    )
    def test_builders_reject_bad_dimensions(self, builder, args):
        with pytest.raises(InvalidArgument):
            builder(*args)

    def test_helix_has_sixteen_edges_per_turn(self):
        assert len(helix(0.2, 0.1, 3).segments[0].density) == 48
        assert len(helix(0.2, 0.1, 0.5).segments[0].density) == 8

class TestValidation:
    def test_segment_needs_two_points(self):
        with pytest.raises(BodyConfigError):
            Segment(points=np.array([[0.0, 0.0, 0.0]]))

    def test_segment_rejects_duplicate_points(self):
        with pytest.raises(BodyConfigError):
            Segment(points=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_segment_rejects_bad_density(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(BodyConfigError):
            Segment(points=pts, density=0.0)
        with pytest.raises(BodyConfigError):
            Segment(points=pts, density=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]],  # its squared length overflows
        [[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0]],  # its difference overflows
    ])
    def test_segment_rejects_overflowing_edge(self, points):
        with pytest.raises(BodyConfigError, match="overflows"):
            Segment(points=np.array(points))

    def test_overflowing_mass_rejected(self):
        seg = Segment(points=np.array([[0.0, 0.0, 0.0], [1e10, 0.0, 0.0]]), density=1e300)
        body = BodyGeometry(name="dense", segments=(seg,))
        with pytest.raises(BodyConfigError, match="overflow"):
            mass_properties(body)
        with pytest.raises(BodyConfigError, match="overflow"):
            discretize(body, 1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_segment_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(BodyConfigError, match="non-finite coordinates"):
            Segment(points=np.array([[0.0, 0.0, 0.0], [1.0, bad, 0.0]]))

    def test_body_holds_segments_only(self):
        with pytest.raises(BodyConfigError, match="Segment instances"):
            BodyGeometry(name="b", segments=(rod(1.0).segments[0], np.zeros((2, 3))))

    def test_body_needs_segments(self):
        with pytest.raises(BodyConfigError):
            BodyGeometry(name="empty", segments=())

    def test_negative_m_c_rejected(self):
        with pytest.raises(BodyConfigError):
            BodyGeometry(name="b", segments=rod(1.0).segments, m_c=-0.1)

    def test_disconnected_body_warns(self):
        seg1 = Segment(points=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        seg2 = Segment(points=np.array([[5.0, 5.0, 5.0], [6.0, 5.0, 5.0]]))
        body = BodyGeometry(name="split", segments=(seg1, seg2))
        with pytest.warns(UserWarning, match="disconnected"):
            discretize(body, 4)

    def test_connected_multi_segment_body_does_not_warn(self, recwarn):
        bar = Segment(points=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        stem = Segment(points=np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        straight_bar = Segment(points=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        # left and right meet only through link, each ending in the middle of its edge
        left = Segment(points=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        right = Segment(points=np.array([[1.0, 1.0, 0.0], [2.0, 1.0, 0.0]]))
        link = Segment(points=np.array([[1.0, -1.0, 0.0], [1.0, 2.0, 0.0]]))
        bodies = (
            tripod_tetrahedron(1.0),
            BodyGeometry(name="stem_at_vertex", segments=(bar, stem)),
            BodyGeometry(name="stem_mid_edge", segments=(straight_bar, stem)),
            BodyGeometry(name="chain", segments=(left, right, link)),
        )
        for body in bodies:
            discretize(body, 4)
        assert not [w for w in recwarn.list if "disconnected" in str(w.message)]

    def test_connectivity_matches_pairwise_reference(self, rng, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_PAIRS", 7)  # about one end per chunk
        outcomes = set()
        for _ in range(40):
            segs = []
            for _ in range(rng.integers(2, 5)):
                pts = rng.normal(size=(rng.integers(2, 5), 3))
                if segs and rng.random() < 0.7:  # one end on an earlier segment
                    other = segs[rng.integers(len(segs))].points
                    k = rng.integers(len(other) - 1)
                    t = rng.choice([0.0, rng.random(), 1.0])
                    pts[rng.choice([0, -1])] = other[k] + t * (other[k + 1] - other[k])
                segs.append(Segment(points=pts))
            body = BodyGeometry(name="random", segments=tuple(segs))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                geometry._warn_if_disconnected(body)
            connected = connected_by_loops(body)
            assert bool(caught) != connected
            outcomes.add(connected)
        assert outcomes == {True, False}


# the builders, the kernel and discretize share errors._require_positive
@pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("call, name", [
    (lambda v: rod(v), "length"),
    (lambda v: helix(0.2, 0.1, v), "turns"),
    (lambda v: HyperKernel(ell=v), "ell"),
    (lambda v: discretize(rod(1.0), v), "resolution"),
], ids=["rod", "helix", "kernel", "discretize"])
def test_boolean_is_not_a_positive_number(call, name, flag):
    with pytest.raises(InvalidArgument, match=f"^{name} must be positive, got True$"):
        call(flag)
