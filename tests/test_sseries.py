import random
from fractions import Fraction

import pytest

from iosc.poly import IdealSpec, Poly, parse_poly
from iosc.sseries import (
    E_composite,
    factorize,
    irreducibility_probe,
    p_adic_density,
    singular_series_partial,
    verify_multiplicativity,
)


def P(text, n):
    return parse_poly(text, n)


def S(*texts, n):
    return IdealSpec.from_gens([P(t, n) for t in texts])


F = Fraction


def test_factorize():
    assert factorize(1) == []
    assert factorize(36) == [(2, 2), (3, 2)]
    assert factorize(97) == [(97, 1)]


# -- composite sums -----------------------------------------------------------


def test_E_composite_unit_modulus():
    assert E_composite(S("x1*x2", n=2), 1, 1) == 1


def test_E_composite_xy_six():
    spec = S("x1*x2", n=2)
    assert E_composite(spec, 1, 2) == F(1, 4)
    assert E_composite(spec, 1, 3) == F(2, 9)
    assert E_composite(spec, 1, 6) == F(1, 18)


def test_E_composite_linear_vanishes():
    spec = S("x1", n=1)
    for q in (2, 3, 4, 6, 12):
        assert E_composite(spec, 1, q) == 0


def test_multiplicativity_examples():
    assert verify_multiplicativity(S("x1*x2", n=2), 1, 2, 3)
    assert verify_multiplicativity(S("x1^2", n=1), 1, 3, 5)
    assert verify_multiplicativity(S("x1", n=1), 1, 2, 5)


def test_multiplicativity_random():
    rng = random.Random(616)
    done = 0
    while done < 6:
        n = rng.randint(1, 2)
        f = Poly(
            n,
            {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3)
                for _ in range(2)
            },
        )
        if f.is_zero() or f.is_constant():
            continue
        spec = IdealSpec.from_gens([f])
        q1, q2 = rng.choice([(2, 3), (2, 9), (4, 3), (3, 5), (4, 9)])
        assert verify_multiplicativity(spec, 1, q1, q2), (f, q1, q2)
        done += 1


def test_multiplicativity_rejects_non_coprime():
    with pytest.raises(ValueError):
        verify_multiplicativity(S("x1", n=1), 1, 2, 4)


# -- singular series -------------------------------------------------------------


def test_series_linear_only_unit_term():
    rep = singular_series_partial(S("x1", n=1), 1, 20)
    assert rep.value == 1
    assert all(e == 0 for q, e, _ in rep.terms if q > 1)


def test_series_xy_terms():
    rep = singular_series_partial(S("x1*x2", n=2), 1, 6)
    d = {q: e for q, e, _ in rep.terms}
    assert d[2] == F(1, 4)
    assert d[3] == F(2, 9)
    assert d[6] == F(1, 18)
    expected = (
        1
        + 2 * F(1, 4)
        + 3 * F(2, 9)
        + 4 * d[4]
        + 5 * d[5]
        + 6 * F(1, 18)
    )
    assert rep.value == expected


@pytest.mark.parametrize("Qmax", [0, -5])
def test_series_needs_a_nonempty_range(Qmax):
    # the sum over q <= Qmax is empty, so there is no partial sum to report
    with pytest.raises(ValueError, match="Qmax"):
        singular_series_partial(S("x1^2", n=1), 1, Qmax)


def test_series_tail_bound_requires_large_sigma():
    rep = singular_series_partial(S("x1*x2", n=2), 1, 6, sigma=1.5)
    assert rep.tail_bound is None
    assert any("unavailable" in f for f in rep.flags)
    rep2 = singular_series_partial(S("x1^2 + x2^2 + x3^2", n=3), 1, 8, sigma=2.5)
    assert rep2.tail_bound is not None and rep2.tail_bound >= 0


def test_series_terms_match_theta_terms():
    # prime-power terms coincide with the local factor terms
    from iosc.zeta import theta_probe

    spec = S("x1^2 + x2^2 + x3^2", n=3)
    rep = singular_series_partial(spec, 1, 9)
    th = theta_probe(spec, 1, 3, 3)
    d = {q: t for q, _, t in rep.terms}
    assert d[3] == th.terms[0]
    assert d[9] == th.terms[1]


# -- densities ----------------------------------------------------------------------


def test_density_linear_constant():
    rep = p_adic_density(S("x1", n=1), 1, 3, 4)
    assert rep.values == [F(1)] * 4
    assert rep.stabilized


def test_density_quadric_cone():
    rep = p_adic_density(S("x1^2 + x2^2 + x3^2", n=3), 1, 5, 3)
    assert len(rep.values) == 3
    deltas = [abs(d) for d in rep.deltas]
    assert deltas == sorted(deltas, reverse=True)


def test_density_non_reduced_negative_control():
    rep = p_adic_density(S("x1^2", n=1), 1, 3, 5)
    assert not rep.stabilized


def test_density_smooth_hypersurface_hensel():
    # smooth mod p: stabilizes from m = 1
    rep = p_adic_density(S("x1^2 + x2^2 - 1", n=2), 1, 7, 3)
    assert rep.stabilized
    assert rep.values[0] == rep.values[-1]


# -- irreducibility probe --------------------------------------------------------------


def test_probe_xy_reducible():
    rep = irreducibility_probe(S("x1*x2", n=2), 1, [5, 7, 11, 13])
    assert rep.verdict == "reducible-or-wrong-dimension"
    d = dict(rep.values)
    assert d[5] == F(4, 5)


def test_probe_three_squares_consistent():
    rep = irreducibility_probe(S("x1^2 + x2^2 + x3^2", n=3), 1, [3, 5, 7])
    assert rep.verdict == "consistent-with-geometric-irreducibility"
    assert all(v == 0 for _, v in rep.values)


def test_probe_linear_consistent():
    rep = irreducibility_probe(S("x1", n=1), 1, [3, 5, 7])
    assert rep.verdict == "consistent-with-geometric-irreducibility"
