"""Join-semilattice value domains backing lattice literals.

Two built-in domains: max-ordered naturals and grow-only string sets. One is
totally ordered, the other genuinely partial, so order comparisons can come
out incomparable.
"""

from __future__ import annotations

from typing import Union

from .record import Frozen


class DomainMismatch(Exception):
    """An operation mixed values from different lattice domains."""


class NatMax(Frozen):
    n: int

    def __str__(self) -> str:
        return f"nat {self.n}"


class GSet(Frozen):
    elems: frozenset[str]

    def __str__(self) -> str:
        inner = ", ".join(f'"{e}"' for e in sorted(self.elems))
        return "set{" + inner + "}"


LatticeValue = Union[NatMax, GSet]


def _check_domains(d1: LatticeValue, d2: LatticeValue) -> None:
    if type(d1) is not type(d2):
        raise DomainMismatch(f"cannot combine {d1} with {d2}")


def lat_join(d1: LatticeValue, d2: LatticeValue) -> LatticeValue:
    """Least upper bound: max for naturals, union for sets."""
    _check_domains(d1, d2)
    if isinstance(d1, NatMax):
        return NatMax(max(d1.n, d2.n))
    return GSet(d1.elems | d2.elems)


def lat_meet(d1: LatticeValue, d2: LatticeValue) -> LatticeValue:
    """Greatest lower bound: min for naturals, intersection for sets."""
    _check_domains(d1, d2)
    if isinstance(d1, NatMax):
        return NatMax(min(d1.n, d2.n))
    return GSet(d1.elems & d2.elems)


def lat_leq(d1: LatticeValue, d2: LatticeValue) -> bool:
    _check_domains(d1, d2)
    if isinstance(d1, NatMax):
        return d1.n <= d2.n
    return d1.elems <= d2.elems


def lat_lt(d1: LatticeValue, d2: LatticeValue) -> bool:
    return lat_leq(d1, d2) and d1 != d2
