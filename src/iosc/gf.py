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
log its inverse.  The q x q tables follow row by row: mul[a, b] =
exp[(log a + log b) mod (q-1)], add is digitwise mod p, and bulk evaluation
is a chain of numpy lookups.

The absolute trace to F_p is precomputed per element, which is all a
canonical additive character of F_q needs: psi(a) = exp(2*pi*i*Tr(a)/p).
"""

from __future__ import annotations

import numpy as np

from .poly import Poly

_MAX_TABLE_Q = 4096


class GFTable:
    """F_{p^k} with add/mul/trace lookup tables for vectorized evaluation."""

    def __init__(self, p: int, k: int):
        # imported here because ringcount imports this module
        from .ringcount import check_prime_power, digits

        # the walk below ends only if X is a unit, which f(0) != 0 ensures
        # for prime p
        check_prime_power(p, k)
        q = p ** k
        if q > _MAX_TABLE_Q:
            raise ValueError(f"extension field of size {q} exceeds table limit")
        self.p = p
        self.k = k
        self.q = q
        # base-p digits of every code, most significant first; int32 makes
        # the row loop below twice as fast as int64
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
        exp = np.array(powers * 2, dtype=np.int32)
        log = np.zeros(q, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        add = np.empty((q, q), dtype=np.int32)
        mul = np.zeros((q, q), dtype=np.int32)
        for a in range(q):
            add[a] = ((elems[a] + elems) % p) @ weights
            if a:
                mul[a, 1:] = exp[log[a] + log[1:]]
        self.add_table = add
        self.mul_table = mul

        # absolute trace: Tr(a) = a + a^p + ... + a^(p^(k-1)), lands in F_p,
        # whose elements are encoded by their constant digit
        trace = np.zeros(q, dtype=np.int64)
        cur = np.arange(q, dtype=np.int64)
        for _ in range(k):
            trace = add[trace, cur]
            cur = self.pow(cur, p)
        self.trace_table = trace.astype(np.int64)

    # -- vectorized element ops ------------------------------------------

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e for e >= 1, by squaring; the result starts as the base at
        the lowest set bit, and the base is squared only up to the top bit."""
        assert e >= 1
        base, result = a, None
        while True:
            if e & 1:
                result = base if result is None else self.mul_table[result, base]
            e >>= 1
            if not e:
                return result
            base = self.mul_table[base, base]

    def eval_poly(self, f: Poly, pts: np.ndarray) -> np.ndarray:
        """Evaluate an integer polynomial on arrays of F_q elements.

        x^e is tabulated once per exponent on the q field elements, so a
        coordinate's power is one gather, shared by every term using it.
        """
        elems = np.arange(self.q, dtype=np.int32)
        exponents = {e for expo in f.terms for e in expo if e}
        tables = {e: self.pow(elems, e) for e in exponents}
        powers: dict[tuple[int, int], np.ndarray] = {}
        acc = np.zeros(len(pts), dtype=np.int32)
        for expo, coeff in f.terms.items():
            # an integer coefficient lands in the prime field
            c = coeff % self.p
            if not c:
                continue
            t = None
            for j, e in enumerate(expo):
                if e:
                    if (j, e) not in powers:
                        powers[j, e] = tables[e][pts[:, j]]
                    t = powers[j, e] if t is None else self.mul_table[t, powers[j, e]]
            if t is None:
                t = np.full(len(pts), c, dtype=np.int32)
            elif c != 1:
                t = self.mul_table[c, t]
            acc = self.add_table[acc, t]
        return acc

    def trace(self, a: np.ndarray) -> np.ndarray:
        return self.trace_table[a]
