"""The immutable value classes: equality, hashing, repr and frozen fields."""

import pytest

from cychom.delta import CyclicMorphism, MonotoneMap, PeriodicMap, cyclic_normal_form, delta
from cychom.domains import Fp, Q, Z, parse_domain
from cychom.linalg import SubspaceBasis


def _equal_pairs():
    """Pairs of equal values, each side built on its own."""
    return [
        (Fp(5), parse_domain("zp:5")),
        (MonotoneMap(1, 2, (0, 2)), delta(2, 1)),
        (PeriodicMap(1, 1, (0, 2)), PeriodicMap(1, 1, tuple([0, 2]))),
        (CyclicMorphism(MonotoneMap(1, 2, (0, 2)), 0), cyclic_normal_form([("delta", 1, 2)])),
        (SubspaceBasis.from_spanning([[1, 2, 0], [0, 1, 1]], 3, Q),
         SubspaceBasis.from_spanning([[1, 3, 1], [0, 2, 2], [1, 2, 0]], 3, Q)),
    ]


@pytest.mark.parametrize("a, b", _equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_values_built_apart_are_equal_and_hash_alike(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("a, b", [
    (Fp(5), Fp(7)),
    (Q, Z),
    (MonotoneMap(1, 2, (0, 2)), MonotoneMap(1, 2, (0, 1))),
    (CyclicMorphism(MonotoneMap(1, 1, (0, 1)), 0), CyclicMorphism(MonotoneMap(1, 1, (0, 1)), 1)),
    (SubspaceBasis.from_spanning([[1, 2]], 2, Q), SubspaceBasis.from_spanning([[1, 2]], 2, Fp(5))),
    # equal fields in classes that differ
    (MonotoneMap(1, 1, (0, 1)), PeriodicMap(1, 1, (0, 1))),
    (MonotoneMap(1, 1, (0, 1)), (1, 1, (0, 1))),
    (SubspaceBasis(1, Q, ()), (1, Q, ())),
], ids=lambda v: type(v).__name__)
def test_values_that_differ_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b


def test_domain_repr_and_str_are_those_of_the_messages():
    assert repr(Q) == "ScalarDomain(kind='Q', p=None)"
    assert repr(Fp(5)) == "ScalarDomain(kind='Fp', p=5)"
    assert (str(Q), str(Z), str(Fp(5))) == ("Q", "Z", "F5")


@pytest.mark.parametrize("value, field", [
    (Fp(5), "p"),
    (Q, "kind"),
    (MonotoneMap(1, 2, (0, 2)), "images"),
    (PeriodicMap(1, 1, (0, 2)), "vals"),
    (CyclicMorphism(MonotoneMap(1, 1, (0, 1)), 0), "rot"),
    (SubspaceBasis(1, Q, ()), "vectors"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before
