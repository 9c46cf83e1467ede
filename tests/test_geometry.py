"""Bodies, mass accounting and quadrature: exactness, symmetry, equivariance."""

import numpy as np
import pytest

from hyperstokes import geometry
from hyperstokes import (
    BodyConfigError,
    BodyGeometry,
    InvalidArgument,
    Segment,
    bent_rod,
    diameter,
    discretize,
    helix,
    mass_properties,
    octahedron_frame,
    rod,
    total_length,
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
                    total_length(body), rel=1e-12
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
        monkeypatch.setattr(geometry, "_DIAMETER_CHUNK_PAIRS", chunk_pairs)
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

    def test_nodes_larger_than_memory_rejected(self, monkeypatch):
        import hyperstokes.mobility as mob

        monkeypatch.setattr(mob, "_available_memory_bytes", lambda: None)
        monkeypatch.setattr(mob, "_physical_memory_bytes", lambda: 100 * 8)
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

        monkeypatch.setattr(geometry, "_NEIGHBOR_CHUNK_PAIRS", chunk_pairs)
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
        n = len(nodes)
        assert np.array_equal(inv.sigma[inv.sigma], np.arange(n))
        assert np.all(inv.sigma != np.arange(n))
        assert np.array_equal(inv.Q, inv.Q.T)
        assert np.abs(inv.Q @ inv.Q - np.eye(3)).max() < 1e-14
        assert np.trace(inv.Q) < 2.5  # not the identity
        c = weights @ nodes / weights.sum()
        size = np.linalg.norm(nodes - c, axis=1).max()
        assert np.abs((nodes - c) @ inv.Q + c - nodes[inv.sigma]).max() <= 1e-12 * size
        assert np.abs(weights[inv.sigma] - weights).max() <= 1e-12 * weights.max()

    @pytest.mark.parametrize("name", ["bent_rod", "octahedron", "helix"])
    @pytest.mark.parametrize("resolution", [8, 16, 64])
    def test_found_for_symmetric_bodies(self, bodies, name, resolution):
        dbody = discretize(bodies[name], resolution)
        inv = dbody.involution
        assert inv is not None
        assert dbody.involution is inv  # found once per body
        self._check(inv, dbody.nodes, dbody.weights)

    @pytest.mark.parametrize("resolution", [8, 16, 64])
    def test_none_for_tripod(self, bodies, rng, resolution):
        # its mirrors each hold a leg, and its rotations are of order 3
        for q in (np.eye(3), _random_rotation(rng)):
            dbody = discretize(transform(bodies["tripod"], q), resolution)
            assert dbody.involution is None

    @pytest.mark.parametrize("resolution", [8, 16, 64])
    def test_found_for_rod_at_even_n(self, bodies, rng, resolution):
        # collinear: the mirror through its midpoint swaps the two halves
        for q in (np.eye(3), _random_rotation(rng)):
            dbody = discretize(transform(bodies["rod"], q), resolution)
            assert dbody.n_nodes % 2 == 0
            self._check(dbody.involution, dbody.nodes, dbody.weights)

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
        self._check(inv, nodes, np.ones(6))
        # alternating weights keep the centroid; every point-free map of the
        # hexagon onto itself sends a vertex to one of the other weight
        assert geometry.find_involution(nodes, np.array([2.0, 1.0] * 3)) is None
        # and so does a perturbation of a single weight
        weights = discretize(helix(0.2, 0.1, 3), 16).weights.copy()
        weights[3] *= 1.0 + 1e-9
        assert geometry.find_involution(discretize(helix(0.2, 0.1, 3), 16).nodes,
                                        weights) is None

    @pytest.mark.parametrize("name", ["rod", "bent_rod", "octahedron", "helix"])
    def test_deterministic_under_rotation(self, bodies, rng, name):
        ref = discretize(bodies[name], 16).involution
        for _ in range(4):
            q = _random_rotation(rng)
            inv = discretize(transform(bodies[name], q), 16).involution
            assert np.array_equal(inv.sigma, ref.sigma)
            assert np.abs(inv.Q - q @ ref.Q @ q.T).max() < 1e-12

    @pytest.mark.parametrize("name, full_matches", [("tripod", 0), ("helix", 1)])
    def test_rejected_candidates_skip_the_full_match(self, bodies, monkeypatch,
                                                     name, full_matches):
        sizes = []
        search = geometry.nearest_neighbors

        def counting(points, queries, k=1):
            sizes.append(len(queries))
            return search(points, queries, k)

        monkeypatch.setattr(geometry, "nearest_neighbors", counting)
        dbody = discretize(bodies[name], 64)
        assert (dbody.involution is None) == (full_matches == 0)
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
            assert seg.edge_lengths[0] == pytest.approx(1.0, rel=1e-14)

    def test_octahedron_frame_counts(self):
        body = octahedron_frame(1.0)
        assert len(body.segments) == 12
        assert total_length(body) == pytest.approx(12.0, rel=1e-14)

    def test_helix_length_close_to_smooth(self):
        body = helix(0.2, 0.1, 3)
        smooth = 3.0 * np.hypot(2 * np.pi * 0.2, 0.1)
        polyline = total_length(body)
        assert polyline < smooth
        assert polyline == pytest.approx(smooth, rel=0.01)

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
        ],
    )
    def test_builders_reject_bad_dimensions(self, builder, args):
        with pytest.raises(InvalidArgument):
            builder(*args)


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
        discretize(tripod_tetrahedron(1.0), 4)
        assert not [w for w in recwarn.list if "disconnected" in str(w.message)]
