"""The value types that key the hot dicts: `VarId`, `Vertex` and `CQObject`.

Their hashes, order, equality, text and copies are pinned here: every set and
dict iteration order, and so every digest, depends on the hash values.
"""
import copy
import pickle
import random

import pytest

from clustermod.quivers import Vertex
from clustermod.reps import CQObject
from clustermod.symbolic import VarId, Yvar, fvar, xvar, ycoef, zvar

FAMILIES = "xfYzy"  # the canonical family order

VARS = [xvar(1), xvar(2), fvar(3), Yvar(1, -2), Yvar(1, 0), Yvar(2, -5), zvar(1, -4),
        zvar(2, 0), ycoef(1), ycoef(2, -1)]
VERTICES = [Vertex(1, 0), Vertex(2, -3), Vertex(3), Vertex(3, primed=True), Vertex(-1, None)]
OBJECTS = [CQObject.shifted(1), CQObject.shifted(4), CQObject.module((0, 1, 1)),
           CQObject.module((1, 0, 0, 0))]


def test_hashes_are_the_hashes_of_the_field_tuples():
    for v in VARS:
        assert hash(v) == hash((FAMILIES.index(v.family), v.index))
    for v in VERTICES:
        assert hash(v) == hash((v.i, v.r, v.primed))
    for o in OBJECTS:
        assert hash(o) == hash((o.kind, o.dims, o.i))


def test_vertex_and_object_equal_only_their_own_class():
    for v, t in ((Vertex(1, 0), (1, 0, 0)), (Vertex(2), (2, None, False))):
        assert v != t and not v == t
        assert t != v and not t == v
        assert t not in {v} and v not in {t}
        assert v == Vertex(*t) and not v != Vertex(*t)
    for o in OBJECTS:
        t = (o.kind, o.dims, o.i)
        assert o != t and not o == t
        assert t != o and not t == o
        assert t not in {o} and o not in {t}
        assert o == CQObject(*t) and not o != CQObject(*t)
    assert Vertex(1, 0, False) != CQObject(1, 0, False)


def test_a_variable_equals_its_plain_tuple():
    assert xvar(1) == (0, (1,))
    assert zvar(2, -4) == (3, (2, -4))
    assert xvar(1) != fvar(1)


def test_variables_sort_by_family_then_index():
    shuffled = VARS[:]
    random.Random(1).shuffle(shuffled)
    want = [xvar(1), xvar(2), fvar(3), Yvar(1, -2), Yvar(1, 0), Yvar(2, -5), zvar(1, -4),
            zvar(2, 0), ycoef(1), ycoef(2, -1)]
    assert sorted(shuffled) == want
    assert xvar(9) < fvar(0) < Yvar(0, 0) < zvar(0, 0) < ycoef(0)
    assert Yvar(1, 0) < Yvar(2, -5)


def test_text_is_unchanged():
    assert [str(v) for v in VARS] == ["x[1]", "x[2]", "f[3]", "Y[1,-2]", "Y[1,0]", "Y[2,-5]",
                                      "z[1,-4]", "z[2,0]", "y[1]", "y[2,-1]"]
    assert repr(zvar(1, -4)) == "VarId('z', (1, -4))"
    assert repr(xvar(2)) == "VarId('x', (2,))"
    assert [str(v) for v in VERTICES] == ["(1,0)", "(2,-3)", "3", "3'", "-1"]
    assert repr(Vertex(1, 0)) == "Vertex(i=1, r=0, primed=False)"
    assert repr(Vertex(3, primed=True)) == "Vertex(i=3, r=None, primed=True)"
    assert [str(o) for o in OBJECTS] == ["shp:1", "shp:4", "mod:0,1,1", "mod:1,0,0,0"]
    assert repr(CQObject.module((0, 1))) == "CQObject(kind='mod', dims=(0, 1), i=0)"
    assert repr(CQObject.shifted(2)) == "CQObject(kind='shift', dims=(), i=2)"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_with_the_same_hash_and_text(clone):
    for x in VARS + VERTICES + OBJECTS:
        y = clone(x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert str(y) == str(x) and repr(y) == repr(x)
    v = clone(zvar(2, -3))
    assert (v.family, v.index) == ("z", (2, -3))
