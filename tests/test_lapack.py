"""LAPACK binding: numpy's OpenBLAS through ctypes, scipy as the fallback."""

import numpy as np
import pytest

from hyperstokes import HyperKernel, _lapack, discretize, octahedron_frame, resistance
from hyperstokes.geometry import Involution
from hyperstokes import mobility as mob

from conftest import use_scipy_lapack


def _spd(n, rng):
    a = rng.standard_normal((n, n))
    return np.asfortranarray(a @ a.T + n * np.eye(n))


@pytest.fixture(params=["loaded", "scipy"])
def routines(request, monkeypatch):
    if request.param == "scipy":
        use_scipy_lapack(monkeypatch)
    return request.param


class TestRoutines:
    def test_factor_solve_and_condition(self, routines, rng):
        a = _spd(40, rng)
        full = a.copy()
        a[np.triu_indices(40, 1)] = np.nan  # the strict upper triangle is never read
        c = _lapack.cho_factor(a)
        assert c is a
        low = np.tril(c)
        assert np.allclose(low @ low.T, full, rtol=0, atol=1e-12 * np.abs(full).max())
        assert np.isnan(c[0, 1])
        b = rng.standard_normal((40, 3))
        x = _lapack.cho_solve(c, b)
        assert np.allclose(full @ x, b, atol=1e-12)
        assert np.allclose(_lapack.cho_solve(c, b[:, 0]), x[:, 0], rtol=0, atol=1e-15)
        anorm = np.abs(full).sum(axis=0).max()
        exact = np.linalg.cond(full, 1)
        estimate = 1.0 / _lapack.pocon(c, anorm)
        assert exact / 3.0 <= estimate <= exact * (1.0 + 1e-12)

    def test_factor_solve_and_condition_in_upper_triangle(self, routines, rng):
        a = _spd(40, rng)
        full = a.copy()
        a[np.tril_indices(40, -1)] = np.nan  # the strict lower triangle is never read
        c = _lapack.cho_factor(a, lower=False)
        assert c is a
        up = np.triu(c)
        assert np.allclose(up.T @ up, full, rtol=0, atol=1e-12 * np.abs(full).max())
        assert np.isnan(c[1, 0])
        b = rng.standard_normal((40, 3))
        x = _lapack.cho_solve(c, b, lower=False)
        assert np.allclose(full @ x, b, atol=1e-12)
        anorm = np.abs(full).sum(axis=0).max()
        exact = np.linalg.cond(full, 1)
        estimate = 1.0 / _lapack.pocon(c, anorm, lower=False)
        assert exact / 3.0 <= estimate <= exact * (1.0 + 1e-12)

    def test_square_view_with_larger_leading_dimension(self, routines, rng):
        # a block of order 30 in the upper triangle of the top rows of a taller
        # array, beside one of order 40 in its lower triangle, as assemble packs them
        big, small = _spd(40, rng), _spd(30, rng)
        store = np.asfortranarray(np.tril(big))
        store[:30, 1:31][np.triu_indices(30)] = small[np.triu_indices(30)]
        view = store[:30, 1:31]
        c = _lapack.cho_factor(view, lower=False)
        assert c is view
        up = np.triu(c)
        assert np.allclose(up.T @ up, small, rtol=0, atol=1e-12 * np.abs(small).max())
        assert np.array_equal(np.tril(store), np.tril(big))  # the other block is untouched
        b = rng.standard_normal((30, 2))
        assert np.allclose(small @ _lapack.cho_solve(c, b, lower=False), b, atol=1e-12)
        estimate = 1.0 / _lapack.pocon(c, np.abs(small).sum(axis=0).max(), lower=False)
        assert np.linalg.cond(small, 1) / 3.0 <= estimate <= np.linalg.cond(small, 1) * (1 + 1e-12)

    @pytest.mark.parametrize("lower", [True, False])
    def test_symmetric_norm_reads_one_triangle(self, routines, rng, lower):
        a = rng.standard_normal((40, 40))
        full = a + a.T
        store = np.asfortranarray(full)
        other = np.triu_indices(40, 1) if lower else np.tril_indices(40, -1)
        store[other] = np.nan  # the other strict triangle is never read
        assert _lapack.lansy(store, lower) == pytest.approx(np.abs(full).sum(0).max(),
                                                            rel=1e-14)

    def test_symmetric_norm_of_view_with_larger_leading_dimension(self, routines, rng):
        # the two triangles of a packed pair, as assemble stores them
        a, b = rng.standard_normal((40, 40)), rng.standard_normal((30, 30))
        big, small = a + a.T, b + b.T
        store = np.full((40, 41), np.nan, order="F")
        store[:, :40][np.tril_indices(40)] = big[np.tril_indices(40)]
        store[:30, 1:31][np.triu_indices(30)] = small[np.triu_indices(30)]
        assert _lapack.lansy(store[:, :40]) == pytest.approx(np.abs(big).sum(0).max(),
                                                             rel=1e-14)
        assert _lapack.lansy(store[:30, 1:31], lower=False) == pytest.approx(
            np.abs(small).sum(0).max(), rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("lower", [True, False])
    def test_symmetric_norm_propagates_non_finite_entry(self, routines, bad, lower):
        a = np.asfortranarray(np.eye(5))
        a[(3, 1) if lower else (1, 3)] = bad
        norm = _lapack.lansy(a, lower)
        assert np.isnan(norm) if np.isnan(bad) else norm == np.inf

    def test_indefinite_matrix_raises(self, routines):
        a = np.asfortranarray(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError, match="order 2"):
            _lapack.cho_factor(a)

    @pytest.mark.parametrize("a", [
        np.eye(3),
        np.eye(3, dtype=np.float32, order="F"),
        np.zeros((3, 4), order="F"),
    ], ids=["c-order", "float32", "not-square"])
    def test_layout_checked_before_the_call(self, a):
        with pytest.raises(ValueError):
            _lapack.cho_factor(a)

    def test_right_hand_side_length_checked(self):
        c = _lapack.cho_factor(np.eye(3, order="F"))
        with pytest.raises(ValueError):
            _lapack.cho_solve(c, np.ones(4))


def test_single_threaded_pins_and_restores(routines):
    if _lapack._threads is None:
        pytest.skip("this LAPACK's thread count cannot be set")
    get, set_ = _lapack._threads
    before = get()
    try:
        set_(2)
        with pytest.raises(KeyError):
            with _lapack.single_threaded() as pinned:
                assert pinned and get() == 1
                with _lapack.single_threaded():  # re-entrant
                    assert get() == 1
                assert get() == 1
                raise KeyError("restored on the way out")
        assert get() == 2
    finally:
        set_(before)


def test_library_without_thread_calls_has_none():
    class NoThreadCalls:  # a library that exports neither call
        pass

    assert _lapack._thread_calls(NoThreadCalls(), "64_") is None


def test_single_threaded_without_thread_calls_pins_nothing(monkeypatch):
    monkeypatch.setattr(_lapack, "_threads", None)
    with _lapack.single_threaded() as pinned:
        assert pinned is False


def test_scipy_fallback_matches_numpy_openblas(bodies, kernel, monkeypatch):
    loaded = {name: resistance(discretize(body, 16), kernel) for name, body in bodies.items()}
    use_scipy_lapack(monkeypatch)
    for name, body in bodies.items():
        res = resistance(discretize(body, 16), kernel)
        ref = loaded[name]
        assert np.linalg.norm(res.A - ref.A) <= 1e-13 * np.linalg.norm(ref.A), name
        assert res.condition == pytest.approx(ref.condition, rel=1e-10), name


@pytest.mark.parametrize("source", ["loaded", "scipy"])
def test_packed_pair_factored_in_place(bodies, kernel, monkeypatch, source):
    dbody = discretize(bodies["helix"], 16)
    ref = resistance(dbody, kernel)  # on the loaded source
    if source == "scipy":
        use_scipy_lapack(monkeypatch)
    potrf, factored = _lapack._potrf, []

    def spy(a, lower):
        factored.append(a)
        return potrf(a, lower)

    monkeypatch.setattr(_lapack, "_potrf", spy)
    km = mob.assemble(dbody, kernel)
    (plus, _), (minus, _) = km._factor
    assert np.shares_memory(plus, minus)  # one (m, m + 1) array
    assert sorted(map(id, factored)) == sorted([id(plus), id(minus)])
    res = resistance(dbody, kernel, matrix=km)
    assert np.linalg.norm(res.A - ref.A) <= 1e-13 * np.linalg.norm(ref.A)
    assert res.condition == pytest.approx(ref.condition, rel=1e-10)


def test_condition_estimate_independent_of_heap_placement(routines, rng):
    # with work arrays wherever the heap puts them, this estimate took three
    # values in its last digits over 200 calls
    dbody = discretize(octahedron_frame(1.0), 16)
    orbits = mob._Orbits.of(Involution.identity(dbody.n_nodes))
    mt = mob._empty_matrix(*orbits.orders)
    mob._fill_lower(mt, dbody, HyperKernel(ell=0.1), orbits)
    anorm = _lapack.lansy(mt)
    c = _lapack.cho_factor(mt)
    held, values = [], set()
    for _ in range(200):
        held.append(np.empty(int(rng.integers(1, 5000))))  # move the heap around
        if len(held) > 50:
            held.pop(int(rng.integers(0, 50)))
        values.add(_lapack.pocon(c, anorm))
    assert len(values) == 1


@pytest.mark.parametrize("error", [ImportError, OSError, AttributeError])
def test_missing_library_or_symbol_falls_back_to_scipy(monkeypatch, error):
    def missing():
        raise error("not in this numpy build")

    monkeypatch.setattr(_lapack, "_from_numpy_openblas", missing)
    *_, source = _lapack._load()
    assert source == "scipy"
