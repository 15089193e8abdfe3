import numpy as np
import pytest
from hypothesis import given, strategies as st

import crsm.carrier as carrier_module
from crsm.carrier import (
    Carrier,
    CarrierSizeError,
    TorusTag,
    as_values,
    iter_bits,
    popcounts,
)
from crsm.io import SchemaError, _parse_carrier


def parse_carrier(spec) -> Carrier:
    """The carrier a model with this carrier JSON is read on."""
    return _parse_carrier({"carrier": spec}, "$")


def test_basic_masks():
    c = Carrier(("a", "b", "c"))
    assert c.size == 3
    assert c.full_mask == 0b111
    assert c.mask_of(["a", "c"]) == 0b101
    assert c.labels_of(0b101) == ("a", "c")
    assert c.index_of("b") == 1


def test_subset_key_sorted():
    c = Carrier(("b", "a"))
    # keys sort labels, not bit positions
    assert c.subset_key(0b11) == "a,b"
    assert c.mask_from_key("a,b") == 0b11
    assert c.mask_from_key("b") == 0b01


@pytest.mark.parametrize("bits", [0, 2, carrier_module._KEY_BLOCK_BITS])
def test_subset_key_blocks_cover_every_mask_once(monkeypatch, bits):
    # unsorted labels, some sorting below ",", so sorted order is not bit order
    monkeypatch.setattr(carrier_module, "_KEY_BLOCK_BITS", bits)
    c = Carrier(("z", "b", "ab", "a", "q", "B", "a b", "+"))
    masks, keys = [], []
    for block_masks, block in c.subset_key_blocks():
        masks += block_masks.tolist()
        keys += list(block)
        assert len(masks) == len(keys)
    assert sorted(masks) == list(range(1 << c.size))
    assert keys == [c.subset_key(m) for m in masks]
    assert c.subset_keys().tolist() == [c.subset_key(m) for m in range(1 << c.size)]


def test_label_validation():
    with pytest.raises(ValueError):
        Carrier(())
    with pytest.raises(ValueError):
        Carrier(("a", "a"))
    with pytest.raises(ValueError):
        Carrier(("a,b",))  # comma is the subset-key separator
    with pytest.raises(ValueError):
        Carrier(("",))


def test_size_cap():
    labels = tuple(f"p{i}" for i in range(25))
    with pytest.raises(CarrierSizeError):
        Carrier(labels)
    # 24 is allowed
    c = Carrier(labels[:24])
    assert c.size == 24


def test_unknown_label():
    c = Carrier(("a", "b"))
    with pytest.raises(KeyError):
        c.mask_of(["z"])
    with pytest.raises(KeyError):
        c.mask_from_key("a,z")


def test_validate_mask():
    c = Carrier(("a", "b"))
    c.validate_mask(0b11)
    with pytest.raises(ValueError):
        c.validate_mask(0b100)
    with pytest.raises(ValueError):
        c.validate_mask(-1)


def test_iter_bits():
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert list(iter_bits(0)) == []


def test_popcounts():
    pc = popcounts(16)
    assert pc.tolist() == [bin(m).count("1") for m in range(16)]


def test_as_values_dict_and_sequence():
    c = Carrier(("a", "b"))
    v = as_values(c, {"b": 2.0, "a": 1.0}, "f")
    assert v.tolist() == [1.0, 2.0]
    assert not v.flags.writeable
    v2 = as_values(c, [1.0, 2.0], "f")
    assert np.array_equal(v, v2)
    with pytest.raises(ValueError):
        as_values(c, [1.0], "f")
    with pytest.raises(ValueError):
        as_values(c, [1.0, -2.0], "f")
    with pytest.raises(ValueError):
        as_values(c, [1.0, float("nan")], "f")
    with pytest.raises(KeyError):
        as_values(c, {"z": 1.0}, "f")


def test_torus_tag_1d():
    tag = TorusTag(n=4, dim=1)
    assert tag.size == 4
    perm = tag.shift_permutation((1,))
    assert perm.tolist() == [1, 2, 3, 0] or perm.tolist() == [3, 0, 1, 2]
    # shifting by n is the identity
    assert np.array_equal(tag.shift_permutation((4,)), tag.shift_permutation((0,)))
    assert len(list(tag.shifts())) == 4


def test_torus_tag_2d():
    tag = TorusTag(n=3, dim=2)
    assert tag.size == 9
    assert len(list(tag.shifts())) == 9
    perm = tag.shift_permutation((0, 0))
    assert perm.tolist() == list(range(9))


def test_carrier_json_roundtrip():
    c = Carrier(("a", "b"), torus=TorusTag(n=2, dim=1))
    c2 = parse_carrier(c.to_json())
    assert c2 == c
    plain = Carrier(("a", "b"))
    assert parse_carrier(plain.to_json()) == plain


@given(st.integers(min_value=1, max_value=10), st.data())
def test_mask_label_roundtrip(d, data):
    c = Carrier(tuple(f"x{i}" for i in range(d)))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << d) - 1))
    assert c.mask_of(c.labels_of(mask)) == mask
    if mask:
        assert c.mask_from_key(c.subset_key(mask)) == mask


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_shift_permutation_matches_coordinate_formula(n, dim):
    tag = TorusTag(n=n, dim=dim)
    for v in np.ndindex((3 * n,) * dim):
        v = tuple(c - n for c in v)  # every shift, also negative and >= n
        perm = tag.shift_permutation(v)
        assert perm.dtype == np.int64
        for p in range(tag.size):
            if dim == 1:
                want = (p + v[0]) % n
            else:
                i, j = divmod(p, n)
                want = ((i + v[0]) % n) * n + (j + v[1]) % n
            assert perm[p] == want


def test_torus_tag_point_forms():
    line, plane = TorusTag(n=5), TorusTag(n=3, dim=2)
    assert line.coords(7) == line.coords([7]) == line.coords((np.int64(-3),)) == (2,)
    assert plane.coords((4, -1)) == plane.coords([np.int32(1), 2]) == (1, 2)
    for point in (1.7, 1.0, True, None, "1", [1.0], [True], [0, 1], []):
        with pytest.raises(ValueError, match=r"^not a point of \(Z_5\)\^1: "):
            line.coords(point)
    for point in (1, None, [1], [0, 1, 2], [0, "x"], [0, 1.0], [False, 0], "01"):
        with pytest.raises(ValueError, match=r"^not a point of \(Z_3\)\^2: "):
            plane.coords(point)


def test_torus_tag_carrier_labels():
    assert TorusTag(n=3).carrier().labels == ("0", "1", "2")
    plane = TorusTag(n=2, dim=2)
    assert plane.carrier() == Carrier(("0.0", "0.1", "1.0", "1.1"), torus=plane)
    assert list(plane.shifts()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_torus_tag_refuses_oversized_torus():
    assert TorusTag(n=24).size == 24
    for n, dim in ((25, 1), (5, 2), (1000, 2)):
        with pytest.raises(CarrierSizeError, match=f"^torus with {n ** dim} points exceeds "
                                                   f"the carrier cap of 24$"):
            TorusTag(n=n, dim=dim)
    for n, dim in ((0, 1), (2.0, 1), (True, 1), (3, 3), (2, True), (2, 1.0)):
        with pytest.raises(ValueError, match="unsupported torus geometry"):
            TorusTag(n=n, dim=dim)
    # the torus size is refused before the labels are counted
    with pytest.raises(CarrierSizeError):
        parse_carrier({"labels": ["a"], "torus": {"n": 25, "dim": 1}})
    with pytest.raises(SchemaError, match=r'^at \$\.carrier\.torus: expected \{"n": int'):
        parse_carrier({"labels": ["0", "1"], "torus": {"n": 2.7, "dim": 1}})
