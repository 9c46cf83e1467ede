"""Exception hierarchy shared by all hyperstokes modules.

Each class carries the ``slug`` that the command line prints as
``error[<slug>]: <message>``.
"""


class HyperstokesError(Exception):
    """Base class for all errors raised by this package."""

    slug = "error"


class InvalidArgument(HyperstokesError, ValueError):
    """An argument is malformed (wrong shape, non-finite, non-orthogonal, ...)."""

    slug = "invalid-argument"


class SingularPointError(HyperstokesError, ZeroDivisionError):
    """A singular kernel was evaluated at its singularity (x = 0)."""

    slug = "singular-point"


class BodyConfigError(HyperstokesError, ValueError):
    """A body definition violates its invariants (empty segments, m_c > m, ...)."""

    slug = "invalid-body"


class AssemblyError(HyperstokesError):
    """The kernel matrix cannot be assembled (e.g. coincident quadrature nodes)."""

    slug = "assembly"


class SingularSystemError(HyperstokesError):
    """A linear system required by the solver is numerically singular."""

    slug = "singular-system"


class NoTranslationalOrientation(HyperstokesError):
    """The coupling tensor has no numerical null space, so no purely
    translational orientation can be predicted."""

    slug = "no-translational-orientation"
