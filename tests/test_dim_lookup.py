"""The sorted-array dimension lookup every broadcast join shares
(``dim_table`` / ``dim_lookup`` in pipelines/relational.py)."""

import numpy as np
import pytest

from dude_ray.pipelines.relational import dim_lookup, dim_table


def test_lookup_below_inside_above_and_absent():
    t = dim_table([30, 10, 20], np.array([3.0, 1.0, 2.0]))
    found, val = dim_lookup(t, [5, 10, 15, 20, 30, 35])
    assert found.tolist() == [False, True, False, True, True, False]
    assert val[found].tolist() == [1.0, 2.0, 3.0]


def test_several_value_columns_follow_their_key():
    keys = np.array([7, 3, 9, 1], dtype=np.int32)
    names = np.array(["g", "c", "i", "a"], dtype=object)
    flags = np.array([True, False, True, False])
    sk, sn, sf = dim_table(keys, names, flags)
    assert sk.dtype == np.int64 and sk.tolist() == [1, 3, 7, 9]
    assert sn.tolist() == ["a", "c", "g", "i"]
    found, n, f = dim_lookup((sk, sn, sf), np.array([9, 2, 3]))
    assert found.tolist() == [True, False, True]
    assert n[found].tolist() == ["i", "c"]
    assert f[found].tolist() == [True, False]


def test_keys_only_dimension_is_a_membership_test():
    found, = dim_lookup(dim_table([4, 2]), [1, 2, 3, 4, 5])
    assert found.tolist() == [False, True, False, True, False]


def test_empty_dimension():
    t = dim_table(np.array([], dtype=np.int64), np.array([], dtype=np.float64))
    found, val = dim_lookup(t, [1, 2, 3])
    assert found.tolist() == [False] * 3
    assert val.dtype == np.float64 and len(val) == 3
    found, val = dim_lookup(t, np.array([], dtype=np.int64))
    assert len(found) == 0 and len(val) == 0


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        dim_table([1, 2, 1], ["a", "b", "c"])

