"""Field axioms of the F_{p^k} lookup tables."""

import numpy as np
import pytest

from iosc.gf import GFTable
from iosc.ringcount import power

FIELDS = [(2, 1), (7, 1), (2, 4), (3, 3), (5, 2), (2, 8), (3, 5)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda pk: f"{pk[0]}^{pk[1]}")
def gf(request):
    return GFTable(*request.param)


def test_distributive_and_associative(gf):
    rng = np.random.default_rng(gf.q)
    a, b, c = rng.integers(0, gf.q, size=(3, 2000))
    add, mul = gf.add_table, gf.mul_table
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (mul[a, mul[b, c]] == mul[mul[a, b], c]).all()
    assert (add[a, add[b, c]] == add[add[a, b], c]).all()


def test_every_nonzero_row_permutes_the_units(gf):
    units = gf.mul_table[1:, 1:]
    assert (np.sort(units, axis=1) == np.arange(1, gf.q)).all()


def test_frobenius_to_the_q_is_the_identity(gf):
    a = np.arange(gf.q)
    assert (power(gf, a, gf.q) == a).all()


def test_trace_is_additive_and_balanced(gf):
    a = np.arange(gf.q)
    tr = gf.trace(gf.add_table[a[:, None], a[None, :]])
    assert (tr == (gf.trace(a)[:, None] + gf.trace(a)[None, :]) % gf.p).all()
    assert np.bincount(gf.trace(a), minlength=gf.p).tolist() == [gf.q // gf.p] * gf.p


# the fields the grid-verify benchmark scans, and small odd ones
NEG_FIELDS = [(2, 8), (3, 5), (5, 2), (2, 4), (7, 2), (11, 2), (13, 2), (3, 2)]


@pytest.mark.parametrize("pk", NEG_FIELDS, ids=lambda pk: f"{pk[0]}^{pk[1]}")
def test_neg_table_is_the_additive_inverse(pk):
    gf = GFTable(*pk)
    a = np.arange(gf.q)
    assert (gf.add_table[a, gf.neg_table] == 0).all()
    assert gf.neg_table[0] == 0
    assert (gf.neg(a) == gf.neg_table).all()


def test_tables_keep_their_dtypes(gf):
    assert gf.add_table.dtype == gf.mul_table.dtype == np.int32
    assert gf.trace_table.dtype == np.int64
    assert gf.add_table.shape == gf.mul_table.shape == (gf.q, gf.q)


def test_field_above_the_table_cap_is_rejected():
    with pytest.raises(ValueError):
        GFTable(2, 13)
