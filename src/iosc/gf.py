"""Finite field F_{p^k} arithmetic in the polynomial basis, table-driven.

Elements are encoded as integers 0..q-1: the element sum c_i * X^i (with
0 <= c_i < p) is encoded as sum c_i * p^i, where X is a root of the modulus
f, the first monic f of degree k (in np.ndindex order of its lower
coefficients) in which X has multiplicative order q-1.

One walk over X^0, X^1, ... finds f: each step shifts the digits up one
place and replaces the overflow X^k by X^k - f, and a candidate fails as
soon as the walk returns to 1 early.  Order q-1 makes all q-1 nonzero
residues units, so the quotient ring is a field and f is irreducible: the
walk is the proof, and its output is the antilog table exp[i] = X^i, with
log its inverse.  The q x q tables follow in whole-array passes: mul[a,
b] = exp[log a + log b], one outer sum per run of rows of at most CHUNK
entries (so no index temporary is q x q), with row and column 0 zero.
Addition is digitwise mod p: a XOR b for p = 2, which needs no table,
and for odd p the q x q table of the outer sum a + b less p * p^j
wherever digit j carries.  The length-q negation table is digitwise
too, each digit d becoming (p - d) mod p.

The table is a ring of ringcount's grid kernel (const, mul, mul_rows,
add, reduce and neg), with an integer c as the code c mod p.  mul and
neg are lookups, and add is one for odd p; for p = 2 add is the XOR of
codes.  mul_rows, a column of prefix values times a suffix box, takes
the table's row of each prefix value and gathers it at the box's codes:
one 1-D take per row, where mul would gather the q x q table at every
pair.  The mul, add and neg tables hold codes in the field's code dtype
(code_dtype: int8 up to q = 128, else int16), and so does every result,
the XOR too: a lookup does no arithmetic, so gathers, adds and the zero
test move 1-2 bytes a code, and a caller that does arithmetic on codes
(ringcount._codes) widens them to int64 first.  So F_q^n is scanned by
the same Grid and GridPolys as (Z/q)^n, and a zero test compares codes
with the negated codes of the suffix-only terms (ringcount.ZeroScan),
with no add of those terms.

The absolute trace to F_p is precomputed per element, which is all a
canonical additive character of F_q needs: psi(a) = exp(2*pi*i*Tr(a)/p).
"""

from __future__ import annotations

import numpy as np

from .poly import Poly

MAX_TABLE_Q = 4096


def code_dtype(q: int) -> type:
    """The smallest signed integer dtype that holds the codes 0..q-1."""
    return np.int8 if q <= 1 << 7 else np.int16 if q <= 1 << 15 else np.int32


class GFTable:
    """F_{p^k} with add/mul/trace lookup tables for vectorized evaluation."""

    def __init__(self, p: int, k: int):
        # imported here because ringcount imports this module
        from .ringcount import CHUNK, check_prime_power, digits, power

        # the walk below ends only if X is a unit, which f(0) != 0 ensures
        # for prime p
        check_prime_power(p, k, "k")
        q = p ** k
        if q > MAX_TABLE_Q:
            raise ValueError(f"extension field of size {q} exceeds table limit")
        self.p = p
        self.k = k
        self.q = q
        self.dtype = code_dtype(q)
        # base-p digits of every code, most significant first
        elems = digits(np.arange(q, dtype=np.int64), [p] * k).astype(np.int32)
        weights = p ** np.arange(k - 1, -1, -1, dtype=np.int32)
        lead = elems[:, :1]
        # X * c with the X^k term dropped: the digits move up one place
        shifted = np.concatenate([elems[:, 1:], np.zeros_like(lead)], axis=1)
        # a primitive modulus exists for every prime p, so the loop breaks
        for lower in np.ndindex(*([p] * k)):
            if lower[0] == 0:  # X divides f, so X is no unit
                continue
            # X * c for every code c: X^k = -(f_0 + ... + f_{k-1} X^{k-1})
            times_x = (((shifted - lead * np.array(lower[::-1])) % p) @ weights).tolist()
            powers = [1]
            while (c := times_x[powers[-1]]) != 1:
                powers.append(c)
            if len(powers) == q - 1:
                break
        self.modpoly = list(lower) + [1]

        # exp doubled so that log a + log b indexes it without a reduction
        exp = np.array(powers * 2, dtype=self.dtype)
        log = np.zeros(q, dtype=np.intp)
        log[exp[: q - 1]] = np.arange(q - 1)
        # over F_(2^k) add is the XOR of codes, so only odd p keep a table
        self.add_table = None
        if p > 2:
            # a + b, less p * p^j wherever digit j carries; a sum of two
            # codes below 4096 fits int16
            codes = np.arange(q, dtype=np.int16)
            add = np.add.outer(codes, codes)
            for d, w in zip(elems.T, weights):
                carry = np.greater_equal.outer(d, p - d)
                np.subtract(add, p * int(w), out=add, where=carry)
            self.add_table = add.astype(self.dtype, copy=False)
        mul = np.empty((q, q), dtype=self.dtype)
        # runs of rows of at most CHUNK entries keep the index sums small
        rows = max(1, CHUNK // q)
        for a in range(0, q, rows):
            np.take(exp, np.add.outer(log[a : a + rows], log), out=mul[a : a + rows])
        mul[0] = mul[:, 0] = 0
        self.mul_table = mul
        # -a digitwise: each digit d becomes (p - d) mod p
        self.neg_table = (((p - elems) % p) @ weights).astype(self.dtype)

        # absolute trace: Tr(a) = a + a^p + ... + a^(p^(k-1)), lands in F_p,
        # whose elements are encoded by their constant digit
        trace = np.zeros(q, dtype=np.int64)
        cur = np.arange(q, dtype=np.int64)
        for _ in range(k):
            trace = self.add(trace, cur)
            cur = power(self, cur, p)
        self.trace_table = trace.astype(np.int64)

    # -- vectorized element ops ------------------------------------------

    def const(self, c: int) -> int:
        # an integer lands in the prime field, whose codes are 0..p-1
        return c % self.p

    def mul(self, a, b):
        return self.mul_table[a, b]

    def mul_rows(self, col: np.ndarray, h: np.ndarray) -> np.ndarray:
        """mul(col, h) for a column col of shape (rows, 1, ..., 1) and a
        box h that broadcasts against it without its first axis: row i is
        mul_table[col[i]] taken at h, in the code dtype.  The rows x q
        block of table rows is gathered in runs of at most CHUNK entries
        (read at call time)."""
        from .ringcount import CHUNK

        col = col.reshape(-1)
        run = max(1, CHUNK // self.q)
        parts = [np.take(self.mul_table[col[i : i + run]], h, axis=1)
                 for i in range(0, len(col), run)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def add(self, a, b):
        if self.p == 2:
            # digitwise mod 2; in the code dtype like the lookups, so no
            # int64 array
            return np.bitwise_xor(a, b, dtype=self.dtype)
        return self.add_table[a, b]

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a

    def neg(self, a: np.ndarray) -> np.ndarray:
        return self.neg_table[a]

    def eval_poly(self, f: Poly, pts: np.ndarray) -> np.ndarray:
        """Evaluate an integer polynomial on rows of F_q elements."""
        from .ringcount import eval_rows

        return eval_rows(f, pts, self)

    def trace(self, a: np.ndarray) -> np.ndarray:
        return self.trace_table[a]
