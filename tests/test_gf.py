"""Field axioms of the F_{p^k} lookup tables."""

import tracemalloc

import numpy as np
import pytest

from iosc import ringcount
from iosc.gf import GFTable
from iosc.ringcount import digits, power

FIELDS = [(2, 1), (7, 1), (2, 4), (3, 3), (5, 2), (2, 8), (3, 5)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda pk: f"{pk[0]}^{pk[1]}")
def gf(request):
    return GFTable(*request.param)


def field_add(gf, a, b):
    """a + b by the digitwise definition: a ^ b over F_(2^k), where GFTable
    keeps no add table, and the add table for odd p, which
    test_every_table_is_its_definition checks against the definition."""
    return np.bitwise_xor(a, b) if gf.p == 2 else gf.add_table[a, b]


def test_distributive_and_associative(gf):
    rng = np.random.default_rng(gf.q)
    a, b, c = rng.integers(0, gf.q, size=(3, 2000))
    mul = gf.mul_table

    def add(x, y):
        return field_add(gf, x, y)

    assert (mul[a, add(b, c)] == add(mul[a, b], mul[a, c])).all()
    assert (mul[a, mul[b, c]] == mul[mul[a, b], c]).all()
    assert (add(a, add(b, c)) == add(add(a, b), c)).all()


def test_every_nonzero_row_permutes_the_units(gf):
    units = gf.mul_table[1:, 1:]
    assert (np.sort(units, axis=1) == np.arange(1, gf.q)).all()


def test_frobenius_to_the_q_is_the_identity(gf):
    a = np.arange(gf.q)
    assert (power(gf, a, gf.q) == a).all()


def test_trace_is_additive_and_balanced(gf):
    a = np.arange(gf.q)
    tr = gf.trace(field_add(gf, a[:, None], a[None, :]))
    assert (tr == (gf.trace(a)[:, None] + gf.trace(a)[None, :]) % gf.p).all()
    assert np.bincount(gf.trace(a), minlength=gf.p).tolist() == [gf.q // gf.p] * gf.p


# the fields the grid-verify benchmark scans, and small odd ones
NEG_FIELDS = [(2, 8), (3, 5), (5, 2), (2, 4), (7, 2), (11, 2), (13, 2), (3, 2)]


@pytest.mark.parametrize("pk", NEG_FIELDS, ids=lambda pk: f"{pk[0]}^{pk[1]}")
def test_neg_table_is_the_additive_inverse(pk):
    gf = GFTable(*pk)
    a = np.arange(gf.q)
    assert (field_add(gf, a, gf.neg_table) == 0).all()
    assert gf.neg_table[0] == 0
    assert (gf.neg(a) == gf.neg_table).all()


def code_dtype(q):
    # the code dtype rule: int8 for q <= 128, int16 above (up to 4096)
    return np.int8 if q <= 128 else np.int16


def test_tables_keep_their_dtypes(gf):
    assert gf.dtype == code_dtype(gf.q)
    assert gf.mul_table.dtype == code_dtype(gf.q)
    assert gf.neg_table.dtype == code_dtype(gf.q)
    assert gf.trace_table.dtype == np.int64
    assert gf.mul_table.shape == (gf.q, gf.q)
    if gf.p == 2:
        assert gf.add_table is None  # add is the XOR of codes
    else:
        assert gf.add_table.dtype == code_dtype(gf.q)
        assert gf.add_table.shape == (gf.q, gf.q)


def test_a_binary_field_holds_no_add_table():
    # F_(2^12): the q x q int16 mul table is 32 MiB, and nothing else is large
    tracemalloc.start()
    try:
        gf = GFTable(2, 12)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert gf.add_table is None
    assert held <= 33 << 20


def test_field_above_the_table_cap_is_rejected():
    with pytest.raises(ValueError):
        GFTable(2, 13)


def tables_by_definition(p, k, modpoly):
    """The add, mul, neg and trace tables of F_p[X]/(f) on codes, from the
    definitions: add and neg digitwise mod p, a * b = sum_i a_i (X^i b)
    with X^i b by i multiplications by X, and Tr(a) = sum_i a^(p^i)."""
    q = p ** k
    d = digits(np.arange(q), [p] * k)  # most significant digit first
    w = p ** np.arange(k - 1, -1, -1)
    low = np.array(modpoly[-2::-1])  # f_{k-1}, ..., f_0, aligned with d
    # X^i b for i = k-1, ..., 0, aligned with the digits of a; X c moves the
    # digits of c up one place, with X^k = -(f_0 + ... + f_{k-1} X^{k-1})
    xb = [d]
    for _ in range(k - 1):
        c = xb[0]
        up = np.concatenate([c[:, 1:], np.zeros((q, 1), dtype=c.dtype)], axis=1)
        xb.insert(0, (up - c[:, :1] * low) % p)
    # small integers, so the float product is exact
    xb = np.stack(xb).reshape(k, q * k).astype(float)
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    rows = max(1, (1 << 20) // (q * k))
    for a in range(0, q, rows):
        da = d[a : a + rows]
        add[a : a + rows] = ((da[:, None, :] + d[None, :, :]) % p) @ w
        prod = (da @ xb).astype(np.int64).reshape(len(da), q, k)
        mul[a : a + rows] = (prod % p) @ w
    neg = ((p - d) % p) @ w
    trace, cur = np.zeros(q, dtype=np.int64), np.arange(q)
    for _ in range(k):
        trace = add[trace, cur]
        frob = np.ones(q, dtype=np.int64)
        for _ in range(p):
            frob = mul[frob, cur]
        cur = frob
    return add, mul, neg, trace


def prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]
    return [(p, k) for p in primes for k in range(1, limit.bit_length()) if p ** k <= limit]


@pytest.mark.parametrize(
    "pk", prime_powers(256) + [(2, 12), (3, 7)], ids=lambda pk: f"{pk[0]}^{pk[1]}"
)
def test_every_table_is_its_definition(pk):
    gf = GFTable(*pk)
    add, mul, neg, trace = tables_by_definition(gf.p, gf.k, gf.modpoly)
    if gf.p == 2:
        # the digitwise definition is the XOR of codes, which add computes
        assert gf.add_table is None
        assert np.array_equal(np.bitwise_xor.outer(np.arange(gf.q), np.arange(gf.q)), add)
    else:
        assert np.array_equal(gf.add_table, add)
    assert np.array_equal(gf.mul_table, mul)
    assert np.array_equal(gf.neg_table, neg)
    assert np.array_equal(gf.trace_table, trace)


@pytest.mark.parametrize(
    "pk", prime_powers(256) + [(2, 12), (3, 7)], ids=lambda pk: f"{pk[0]}^{pk[1]}"
)
def test_the_ring_operations_equal_the_tables(pk, monkeypatch):
    """add (the XOR of codes at p = 2) and the row product mul_rows, on
    operands that broadcast, against the digitwise sum (field_add) and
    lookups in the mul table; every result is in the code dtype, int8
    for q <= 128 and int16 above."""
    gf = GFTable(*pk)
    rng = np.random.default_rng(gf.q)

    def codes(*shape):
        return rng.integers(0, gf.q, size=shape)

    for a, b in [
        (codes(6, 1), codes(1, 5)),
        (codes(4, 1, 1), codes(3, 2).astype(np.int32)),
        (codes(2000), codes(2000)),
        (codes(7), 1 % gf.q),
    ]:
        got = gf.add(a, b)
        assert got.dtype == code_dtype(gf.q)
        assert np.array_equal(got, field_add(gf, a, b))
    # ten rows gathered in runs of four table rows, then in one run
    for chunk in (4 * gf.q, ringcount.CHUNK):
        monkeypatch.setattr(ringcount, "CHUNK", chunk)
        for rows, box in [(10, (3, 4)), (10, (1, 4)), (1, (5,)), (10, ())]:
            col = codes(rows, *[1] * len(box))
            h = codes(*box)
            got = gf.mul_rows(col, h)
            assert got.dtype == code_dtype(gf.q)
            assert np.array_equal(got, gf.mul_table[col, h])
