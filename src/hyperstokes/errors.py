"""Exception hierarchy and the argument and memory checks shared by all
hyperstokes modules.

Each class carries the ``slug`` that the command line prints as
``error[<slug>]: <message>``.
"""

import math
import numbers
import os

_MEMINFO = "/proc/meminfo"


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


def _require_positive(**values: float) -> None:
    """Raise InvalidArgument naming the first of ``values``, in argument order,
    that is not a positive real number (a numpy scalar or 0-d array by its item)
    that a float holds finitely; booleans and strings are not.  A number beyond
    the float range is not printed: str() refuses an int of over 4300 digits."""
    for name, value in values.items():
        value = value.item() if getattr(value, "ndim", None) == 0 else value
        try:
            if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and 0.0 < float(value) < math.inf):
                continue
            shown = repr(value) if isinstance(value, str) else value
        except OverflowError:
            shown = "a number beyond the float range"
        raise InvalidArgument(f"{name} must be positive, got {shown}")


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


def _check_memory(need: float, what_needs: str, advice: str, error=AssemblyError) -> None:
    """Raise ``error`` if ``need`` bytes exceed physical memory or, where the
    system reports it, the memory available now."""
    for what, have in (("physical memory", _physical_memory_bytes()),
                       ("memory available now", _available_memory_bytes())):
        if have is not None and need > have:
            try:
                gib = f"{need / 2**30:.3g}"
            except OverflowError:  # a whole number of bytes whose GiB no float holds
                from decimal import Decimal  # here only: a CLI call would pay its import

                gib = f"{Decimal(need) / 2**30:.3g}"
            raise error(f"{what_needs} {gib} GiB, more than the {have / 2**30:.3g} GiB of {what}; "
                        f"{advice}")
