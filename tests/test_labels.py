"""Exhaustive checks of the four-label chain algebra, and the order of
the names built on it: identifiers, locations and events."""

from __future__ import annotations

import itertools

from hypothesis import given, strategies as st

from ctrd.runtime_local import EventId
from ctrd.syntax import (
    AVA, CON, Identifier, LABELS, LOC, Location, OAC, label_join, label_leq,
)

_CHAIN = [LOC, CON, OAC, AVA]


def label_rank(a):
    """a's position on the chain loc < con < oac < ava."""
    return _CHAIN.index(a)


def label_meet(a, b):
    return a if label_rank(a) <= label_rank(b) else b


def test_chain_order():
    assert label_leq(LOC, AVA)          # transitive reach across the chain
    assert label_leq(CON, CON)          # reflexive
    assert not label_leq(AVA, CON)      # direction


def test_order_is_total_reflexive_antisymmetric_transitive():
    for a, b in itertools.product(LABELS, repeat=2):
        assert label_leq(a, b) or label_leq(b, a)                 # total
        if label_leq(a, b) and label_leq(b, a):
            assert a == b                                          # antisymmetric
        assert label_leq(a, b) == (_CHAIN.index(a) <= _CHAIN.index(b))
        assert (a < b) == (_CHAIN.index(a) < _CHAIN.index(b))     # Label.__lt__
    for a, b, c in itertools.product(LABELS, repeat=3):
        if label_leq(a, b) and label_leq(b, c):
            assert label_leq(a, c)                                 # transitive


def test_join_examples():
    assert label_join(CON, AVA) == AVA
    assert label_join(LOC, LOC) == LOC


def test_join_laws_exhaustive():
    for a, b, c in itertools.product(LABELS, repeat=3):
        assert label_join(a, b) == label_join(b, a)
        assert label_join(label_join(a, b), c) == label_join(a, label_join(b, c))
        assert label_join(a, a) == a
    for a, b in itertools.product(LABELS, repeat=2):
        # join/leq coherence and upper-bound property
        assert label_leq(a, b) == (label_join(a, b) == b)
        assert label_leq(a, label_join(a, b))
        # the meet is the greatest lower bound of the chain order
        assert label_meet(a, b) == (a if label_leq(a, b) else b)


def _written_out_key(x) -> tuple:
    """The order each kind of name had as a hand-written sort key."""
    if isinstance(x, Location):
        return (x.client, x.serial, int(x.remote))
    if isinstance(x, Identifier):
        return (_CHAIN.index(x.label), x.index)
    return (x.client, x.n)


_small = st.integers(0, 3)       # small, so that names tie on leading fields


@given(st.one_of(
    st.lists(st.builds(Location, _small, _small, st.booleans())),
    st.lists(st.builds(Identifier, st.sampled_from(LABELS), _small)),
    st.lists(st.builds(EventId, _small, _small))))
def test_names_order_by_their_fields_as_their_sort_keys_did(xs):
    assert sorted(xs) == sorted(xs, key=_written_out_key)
