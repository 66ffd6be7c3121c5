"""The library's one refusal type, its ceilings, the line reader of its
text formats and the base of its slotted records."""
from operator import attrgetter

# The enumerations refuse to build more rows than this, after counting them
# first: cusp components, components of a dlt model and cyclic-quotient labels.
# On a two-core machine with Python 3.11, `cusp --json` takes 2.2 s and
# 276 MB at 135,450 rows (k = 3, bound 300), and 4.2 s and 399 MB just under
# the ceiling (bound 364); `inoue --quiet` on the golden field (k = 1) takes
# 2.4 s and 134 MB at 199,396 rows (bound 631).
ROWS_CEILING = 200_000

# Bound on a group's order.  The closure returns the group as its Cayley
# table, of order^2 cells, so 1024 elements mean about 10^6 table entries
# (some 8 MB).
CLOSURE_CEILING = 1024

# Bound on the length of a dual cusp sequence, sum(b_i - 2); a longer one is
# refused before any list is built.  Construction and canonical rotation are
# linear in the length, so at this ceiling `dual` and `cusp` finish in well
# under 1 s.
DUAL_CEILING = 100_000


class InputError(ValueError):
    """Input the library refuses: malformed text, or data outside a function's domain.
    Every library error class derives from it; any other exception, but cli.Falsified, is a bug."""


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(number from 1, content) of each line left after cutting '#' comments and blank lines."""
    lines = ((no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), start=1))
    return [(no, line) for no, line in lines if line]


class Record:
    """Base of the immutable records that validate, normalise, carry a derived
    field or define arithmetic; a pure record is a ``typing.NamedTuple``.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``object.__setattr__``.  ``_fields``, the slots
    unless the subclass names fewer, are the fields that equality, hash and
    repr go by, in constructor order.  Any assignment or deletion raises
    AttributeError.  Nothing is generated per class but one attrgetter.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
