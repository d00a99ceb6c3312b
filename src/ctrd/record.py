"""Immutable records: the classes of terms, values, types and messages.

A subclass of Frozen is built when its class statement runs, by one exec
of straight-line methods over its annotated fields, in order: __init__,
where a field named `pos` (a source position) defaults to None; __eq__,
which gives NotImplemented for an instance of any other class; __hash__
and __repr__; and, for `class C(Frozen, order=True)`, the four order
comparisons. Every field but `pos` takes part in all of these, which are
what dataclass(frozen=True) gives with `pos` as
field(default=None, compare=False, repr=False); assigning or deleting an
attribute raises FrozenInstanceError. Every process builds these classes
on import, at about a quarter of what dataclasses pays for each. An
instance keeps a __dict__, where a caller may cache what it derives from
the fields. The package's `record` is abstract_exec.record, so import
names from here (`import ctrd.record as m` binds that function).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

# __eq__, then the four that order=True adds
_COMPARISONS = (("__eq__", "=="), ("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"),
                ("__ge__", ">="))


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, order: bool = False) -> None:
        names = tuple(cls.__dict__.get("__annotations__", ()))
        shown = [n for n in names if n != "pos"]
        own = "(" + "".join(f"self.{n}," for n in shown) + ")"
        other = own.replace("self.", "other.")
        params = ", ".join("pos=None" if n == "pos" else n for n in names)
        src = [f"def __init__(self, {params}):",
               *([f" _set(self, {n!r}, {n})" for n in names] or [" pass"]),
               "def __repr__(self):",
               " return f'{self.__class__.__qualname__}("
               + ", ".join(f"{n}={{self.{n}!r}}" for n in shown) + ")'",
               "def __hash__(self):",
               f" return hash({own})"]
        for name, op in _COMPARISONS[:5 if order else 1]:
            src += [f"def {name}(self, other):",
                    f" if other.__class__ is self.__class__: return {own} {op} {other}",
                    " return NotImplemented"]
        methods: dict = {}
        exec("\n".join(src), {"_set": object.__setattr__}, methods)
        for name, fn in methods.items():
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
        cls.__match_args__ = names

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def fields(record) -> tuple[str, ...]:
    """The field names of a record or its class, in order."""
    return record.__match_args__


def replace(record: Frozen, **changes) -> Frozen:
    """A record like this one with the given fields changed."""
    return record.__class__(**{**{n: getattr(record, n) for n in fields(record)}, **changes})
