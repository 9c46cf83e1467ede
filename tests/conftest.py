import numpy as np
import pytest

from hyperstokes import (
    HyperKernel,
    bent_rod,
    discretize,
    helix,
    octahedron_frame,
    resistance,
    rod,
    tripod_tetrahedron,
)
from hyperstokes import _lapack

ELL = 0.1
SUITE_RESOLUTIONS = (8, 16)


def pytest_addoption(parser):
    parser.addoption(
        "--lapack-source", choices=("loaded", "scipy"), default="loaded",
        help="LAPACK routines for the whole test session: the source _lapack "
             "loaded, or its scipy fallback (to test the fallback where both exist).",
    )


def use_scipy_lapack(monkeypatch):
    """Route _lapack to the routines and thread-count calls of its scipy source,
    so that a pinned section pins the library that factors."""
    for name, value in zip(("_potrf", "_potrs", "_pocon", "_lansy", "_threads"),
                           _lapack._from_scipy()):
        monkeypatch.setattr(_lapack, name, value)


@pytest.fixture(scope="session", autouse=True)
def lapack_source(request):
    with pytest.MonkeyPatch.context() as monkeypatch:
        if request.config.getoption("--lapack-source") == "scipy":
            use_scipy_lapack(monkeypatch)
        yield


def suite_bodies():
    return {
        "rod": rod(1.0),
        "bent_rod": bent_rod(90.0, 0.5),
        "tripod": tripod_tetrahedron(1.0),
        "octahedron": octahedron_frame(1.0),
        "helix": helix(0.2, 0.1, 3),
    }


@pytest.fixture(scope="session")
def kernel():
    return HyperKernel(ell=ELL)


@pytest.fixture(scope="session")
def bodies():
    return suite_bodies()


@pytest.fixture(scope="session")
def suite_solutions(bodies, kernel):
    """(dbody, ResistanceSet) for every suite body at resolutions 8 and 16."""
    out = {}
    for name, body in bodies.items():
        for res in SUITE_RESOLUTIONS:
            dbody = discretize(body, res)
            out[(name, res)] = (dbody, resistance(dbody, kernel))
    return out


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
