"""Finite field F_{p^k} arithmetic in the polynomial basis, table-driven.

Elements are encoded as integers 0..q-1: the element sum c_i * X^i (with
0 <= c_i < p) is encoded as sum c_i * p^i, where X is a root of a fixed
monic irreducible of degree k found by search.  Multiplication uses a
precomputed q x q table so that bulk evaluation over numpy arrays is a
chain of table lookups; addition is digitwise and also tabulated.

The absolute trace to F_p is precomputed per element, which is all a
canonical additive character of F_q needs: psi(a) = exp(2*pi*i*Tr(a)/p).
"""

from __future__ import annotations

import numpy as np

from .poly import Poly

_MAX_TABLE_Q = 4096


def _polmul_mod(a: list[int], b: list[int], modpoly: list[int], p: int) -> list[int]:
    # product of dense coefficient lists, reduced mod (modpoly, p)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    k = len(modpoly) - 1
    # modpoly is monic: X^k = -(lower part)
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * modpoly[j]) % p
    out = out[:k]
    return out + [0] * (k - len(out))


def _is_irreducible(f: list[int], p: int) -> bool:
    # f monic, dense low-to-high; check no monic factor of degree <= deg/2
    k = len(f) - 1

    def divides(d: list[int]) -> bool:
        rem = list(f)
        dd = len(d) - 1
        while len(rem) - 1 >= dd:
            lead = rem[-1]
            if lead:
                shift = len(rem) - 1 - dd
                for i, c in enumerate(d):
                    rem[shift + i] = (rem[shift + i] - lead * c) % p
            rem.pop()
        return all(c == 0 for c in rem)

    def monic_polys(deg: int):
        for lower in np.ndindex(*([p] * deg)):
            yield list(lower) + [1]

    for deg in range(1, k // 2 + 1):
        for d in monic_polys(deg):
            if divides(d):
                return False
    return True


def find_irreducible(p: int, k: int) -> list[int]:
    """A monic irreducible of degree k over F_p (dense, low-to-high)."""
    if k == 1:
        return [0, 1]
    for lower in np.ndindex(*([p] * k)):
        f = list(lower) + [1]
        if _is_irreducible(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class GFTable:
    """F_{p^k} with add/mul/trace lookup tables for vectorized evaluation."""

    def __init__(self, p: int, k: int):
        q = p ** k
        if q > _MAX_TABLE_Q:
            raise ValueError(f"extension field of size {q} exceeds table limit")
        self.p = p
        self.k = k
        self.q = q
        self.modpoly = find_irreducible(p, k)
        # imported here because ringcount imports this module
        from .ringcount import digits

        def encode(coeffs: list[int]) -> int:
            v = 0
            for d in reversed(coeffs):
                v = v * p + d
            return v

        # coefficient lists, low to high: the base-p digits of each code
        elems = digits(np.arange(q, dtype=np.int64), [p] * k)[:, ::-1].tolist()
        add = np.empty((q, q), dtype=np.int32)
        mul = np.empty((q, q), dtype=np.int32)
        for a in range(q):
            for b in range(a, q):
                s = encode([(x + y) % p for x, y in zip(elems[a], elems[b])])
                m = encode(_polmul_mod(elems[a], elems[b], self.modpoly, p))
                add[a, b] = add[b, a] = s
                mul[a, b] = mul[b, a] = m
        self.add_table = add
        self.mul_table = mul

        # absolute trace: Tr(a) = a + a^p + ... + a^(p^(k-1)), lands in F_p,
        # whose elements are encoded by their constant digit
        trace = np.zeros(q, dtype=np.int64)
        for a in range(q):
            acc = 0
            cur = a
            for _ in range(k):
                acc = int(add[acc, cur])
                cur = self._pow_scalar(cur, p)
            trace[a] = acc % p
        self.trace_table = trace

    def _pow_scalar(self, a: int, e: int) -> int:
        result = 1 if self.q > 1 else 0
        base = a
        mul = self.mul_table
        while e:
            if e & 1:
                result = int(mul[result, base])
            e >>= 1
            if e:
                base = int(mul[base, base])
        return result

    # -- vectorized element ops ------------------------------------------

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        result = np.ones_like(a)
        base = a
        while e:
            if e & 1:
                result = self.mul_table[result, base]
            e >>= 1
            if e:
                base = self.mul_table[base, base]
        return result

    def eval_poly(self, f: Poly, pts: np.ndarray) -> np.ndarray:
        """Evaluate an integer polynomial on arrays of F_q elements."""
        acc = np.zeros(len(pts), dtype=np.int32)
        for expo, coeff in f.terms.items():
            # an integer coefficient lands in the prime field
            t = np.full(len(pts), coeff % self.p, dtype=np.int32)
            for j, e in enumerate(expo):
                if e:
                    t = self.mul_table[t, self.pow(pts[:, j], e)]
            acc = self.add_table[acc, t]
        return acc

    def trace(self, a: np.ndarray) -> np.ndarray:
        return self.trace_table[a]
