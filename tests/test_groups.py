import pytest

from cychom import groups
from cychom.errors import InputFormatError, NotCentral
from cychom.groups import (
    FiniteGroup,
    cyclic_group,
    group_from_json,
    group_from_preset,
    product_group,
    symmetric_3,
)


def test_cyclic_group_basics():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.mul(3, 2) == 1
    assert g.inv(1) == 3
    assert g.is_abelian()


def test_symmetric_3():
    s3 = symmetric_3()
    assert s3.order == 6
    assert not s3.is_abelian()
    # only the identity is central
    assert [z for z in range(6) if s3.is_central(z)] == [s3.identity]
    # every element has the right order dividing 6
    for a in range(6):
        x, k = a, 1
        while x != s3.identity:
            x = s3.mul(x, a)
            k += 1
        assert k in (1, 2, 3)


def test_product_group():
    g = product_group(cyclic_group(2), cyclic_group(3))
    assert g.order == 6
    assert g.is_abelian()
    # (1,1) generates, so the product is cyclic of order 6
    a = 1 * 3 + 1
    x, k = a, 1
    while x != g.identity:
        x = g.mul(x, a)
        k += 1
    assert k == 6


def test_bad_tables_rejected():
    with pytest.raises(InputFormatError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse / not a group
    with pytest.raises(InputFormatError):
        FiniteGroup([[0, 1]])  # not square
    with pytest.raises(InputFormatError):
        FiniteGroup([[1, 0], [1, 0]])  # no identity


def test_require_central():
    s3 = symmetric_3()
    with pytest.raises(NotCentral):
        s3.require_central(1)
    s3.require_central(s3.identity)


def test_presets_and_json():
    assert group_from_preset("cyclic:5").order == 5
    assert group_from_preset("cyclic:2 x cyclic:2").order == 4
    assert group_from_preset("symmetric:3").order == 6
    with pytest.raises(InputFormatError):
        group_from_preset("dihedral:4")
    g = group_from_json({"preset": "cyclic:3"})
    assert g.order == 3
    h = group_from_json({"table": [[0, 1], [1, 0]]})
    assert h.order == 2
    with pytest.raises(InputFormatError):
        group_from_json({"nope": 1})


def test_preset_builds_every_factor_before_any_product(monkeypatch):
    # the order 40 * 40 * 0 counts no table entries against the budget, so
    # only the refusal of Z/0 keeps Z/40 x Z/40 from being built
    def product(g, h):
        raise AssertionError(f"built {g} x {h}")

    monkeypatch.setattr(groups, "product_group", product)
    with pytest.raises(InputFormatError, match="must be positive"):
        group_from_preset("cyclic:40 x cyclic:40 x cyclic:0")
