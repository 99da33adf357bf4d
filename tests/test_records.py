"""Every dataclass in the package is a :func:`repro.records.record`, and a
record's shared ``__repr__`` / ``__eq__`` / ``__hash__`` behave exactly like
the methods ``dataclasses.dataclass`` would generate for it.

Each record class gets a stdlib twin built here (same fields, same
``repr=`` / ``compare=`` flags, same ``frozen``, same base twins, same
qualified name); the two are compared on synthetic instances of every class
and on every record reachable from the ten applications compiled to P4."""

import dataclasses
import importlib
import pkgutil

import pytest

import repro
from repro.apps import ALL_APPLICATIONS
from repro.records import record


def _package_dataclasses():
    """Every dataclass defined in the package, bases before subclasses."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        found.update(value for value in vars(module).values()
                     if isinstance(value, type) and value.__module__ == info.name
                     and "__dataclass_fields__" in vars(value))
    return sorted(found, key=lambda cls: (len(cls.__mro__), cls.__module__, cls.__qualname__))


DATACLASSES = _package_dataclasses()
TWINS = {}
for _cls in DATACLASSES:
    _inherited = {f.name for base in _cls.__mro__[1:] if base in TWINS
                  for f in dataclasses.fields(base)}
    _twin = dataclasses.make_dataclass(
        _cls.__name__,
        [(f.name, object, dataclasses.field(repr=f.repr, compare=f.compare))
         for f in dataclasses.fields(_cls) if f.name not in _inherited],
        bases=tuple(TWINS[b] for b in _cls.__bases__ if b in TWINS),
        frozen=_cls.__dataclass_params__.frozen,
    )
    _twin.__qualname__ = _cls.__qualname__
    TWINS[_cls] = _twin


def _fill(cls, values):
    """An instance of ``cls`` holding ``values`` field by field, built without
    its ``__init__`` (the shared methods only read the fields)."""
    obj = object.__new__(cls)
    for f, value in zip(dataclasses.fields(cls), values):
        object.__setattr__(obj, f.name, value)
    return obj


def _twin_of(obj):
    cls = type(obj)
    return _fill(TWINS[cls], [getattr(obj, f.name) for f in dataclasses.fields(cls)])


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except TypeError as exc:
        return ("raises", type(exc))


def _assert_like_twin(a, b):
    ta, tb = _twin_of(a), _twin_of(b)
    assert repr(a) == repr(ta)
    assert (a == b) is (ta == tb)
    assert (a != b) is (ta != tb)
    assert _outcome(hash, a) == _outcome(hash, ta)


def test_every_package_dataclass_is_a_record():
    assert len(DATACLASSES) >= 100
    for cls in DATACLASSES:
        assert "_compared" in vars(cls), cls.__qualname__
        assert cls.__repr__ is not TWINS[cls].__repr__


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def test_shared_methods_equal_the_stdlib_twin(cls):
    fields = dataclasses.fields(cls)
    values = [("v", i) for i in range(len(fields))]
    base = _fill(cls, values)
    _assert_like_twin(base, _fill(cls, values))
    for i, f in enumerate(fields):
        other = _fill(cls, values[:i] + [("w", i)] + values[i + 1:])
        _assert_like_twin(base, other)
        assert (base == other) is not f.compare
    frozen = cls.__dataclass_params__.frozen
    assert (cls.__hash__ is None) is (not frozen) is (TWINS[cls].__hash__ is None)
    assert base.__eq__(object()) is NotImplemented


SUBCLASS_PAIRS = [(base, cls) for cls in DATACLASSES for base in cls.__mro__[1:]
                  if base in TWINS]


def test_subclass_pairs_are_covered():
    assert len(SUBCLASS_PAIRS) >= 30


@pytest.mark.parametrize("base, sub", SUBCLASS_PAIRS,
                         ids=lambda cls: cls.__qualname__)
def test_a_subclass_instance_never_equals_its_base(base, sub):
    values = [("v", i) for i in range(len(dataclasses.fields(sub)))]
    a, b = _fill(base, values), _fill(sub, values)
    assert a != b and b != a
    assert _twin_of(a) != _twin_of(b)


def _records_below(root):
    """Every record instance reachable from ``root`` through fields, lists,
    tuples, sets and dict values."""
    stack, seen, found = [root], set(), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in TWINS:
            found.append(obj)
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return found


def test_compiled_applications_match_the_twin():
    by_class = {}
    for app in ALL_APPLICATIONS.values():
        for obj in _records_below(app.compile(emit_naive_p4=True)):
            by_class.setdefault(type(obj), []).append(obj)
    assert len(by_class) >= 40
    for objs in by_class.values():
        for a, b in zip(objs, objs[1:] + objs[:1]):
            _assert_like_twin(a, b)
            _assert_like_twin(a, _fill(type(a), [getattr(a, f.name)
                                                 for f in dataclasses.fields(a)]))


class _Outer:
    @record(frozen=True)
    class Inner:
        x: int = 0

    @dataclasses.dataclass(frozen=True)
    class StdInner:
        x: int = 0


def test_a_nested_record_reprs_by_its_qualified_name():
    assert repr(_Outer.Inner(3)) == repr(_Outer.StdInner(3)).replace("StdInner", "Inner")
    assert hash(_Outer.Inner(3)) == hash(_Outer.StdInner(3))


def test_a_record_that_holds_itself_reprs_like_the_stdlib():
    from repro.frontend.effects import EffectSummary

    summary = EffectSummary()
    summary.items.append(summary)
    twin = _twin_of(summary)
    twin.items = [twin]
    assert repr(summary) == repr(twin) == "EffectSummary(items=[...])"
