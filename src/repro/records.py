"""``record``: a :func:`dataclasses.dataclass` that generates only ``__init__``
(and a frozen class's two guards).  ``__repr__``, ``__eq__`` and ``__hash__``
are the shared functions below, which read the class's field tuples, honour
``repr=`` / ``compare=``, and return what the stdlib's generated methods
return; so a cold start ``exec``s one method per class, not four."""

from dataclasses import dataclass, field, fields  # noqa: F401 (``field`` for records)
from operator import attrgetter
from reprlib import recursive_repr


@recursive_repr()  # a record that holds itself prints "...", as the stdlib's does
def _repr(self):
    return f"{self.__class__.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._repr_names)})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._compared(self) == self._compared(other)
    return NotImplemented


def _hash(self):
    return hash(self._compared(self))


def _tuple_of(names):
    """The named fields of an instance as a tuple, without a generator: the
    shared ``__eq__`` calls it twice per comparison."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


def record(cls=None, /, *, frozen=False):
    """``@dataclass`` / ``@dataclass(frozen=True)`` with the shared methods."""

    def wrap(cls):
        cls = dataclass(cls, repr=False, eq=False, frozen=frozen)
        cls._repr_names = tuple(f.name for f in fields(cls) if f.repr)
        cls._compared = staticmethod(_tuple_of(tuple(f.name for f in fields(cls) if f.compare)))
        cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash if frozen else None
        return cls

    return wrap if cls is None else wrap(cls)
