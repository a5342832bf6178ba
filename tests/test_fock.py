"""Operator formalism: ladder operators, the vertex operator, twisted counts."""

import itertools
import random
from fractions import Fraction

import pytest

from twisted_hurwitz import fock
from twisted_hurwitz.factorizations import count_twisted
from twisted_hurwitz.fock import (
    FockVector,
    ParityViolation,
    ZPoly,
    apply_alpha,
    apply_m,
    aut_count,
    b,
    check_partition,
    elliptic_disconnected,
    elliptic_from_doubles,
    inner_product,
    matrix_element,
    partitions,
    parts_product,
    twisted_double_disconnected,
)

BASIS = [mu for n in range(7) for mu in partitions(n)]
MODES = [n for n in range(-5, 6) if n]


def test_partition_utilities():
    assert list(partitions(0)) == [()]
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [len(list(partitions(n))) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert aut_count((3, 2, 2, 1, 1, 1)) == 12
    assert parts_product((3, 2, 2)) == 12
    with pytest.raises(ValueError):
        check_partition((0,))
    with pytest.raises(ValueError):
        check_partition((1, 2))
    for parts in ((1.5,), (2, 1.0), (True,)):
        with pytest.raises(TypeError):
            check_partition(parts)
    with pytest.raises(TypeError):
        b((1.5,))
    with pytest.raises(TypeError):
        matrix_element((1.5, 1.5), (3,), 1)


def test_ladder_operator_actions():
    assert apply_alpha(-3, b(())) == b((3,))
    assert apply_alpha(-1, b((2, 1))) == b((2, 1, 1))
    assert apply_alpha(1, b((2, 1, 1))) == b((2, 1)).scale(2)
    assert apply_alpha(2, b((2, 2))) == b((2,)).scale(4)
    assert apply_alpha(3, b((2, 1))) == FockVector.zero()
    with pytest.raises(ValueError):
        apply_alpha(0, b(()))
    for n, v in ((-1.5, b(())), (2.0, b((2,))), (True, b((1,)))):
        with pytest.raises(TypeError):
            apply_alpha(n, v)


def test_commutation_relations():
    # [alpha_n, alpha_m] = n delta_{n,-m} on the whole desk-scale basis
    for n, m in itertools.product(MODES, repeat=2):
        for mu in BASIS:
            v = b(mu)
            lhs = apply_alpha(n, apply_alpha(m, v)) + apply_alpha(
                m, apply_alpha(n, v)
            ).scale(-1)
            expected = v.scale(n) if n == -m else FockVector.zero()
            assert lhs == expected, (n, m, mu)


def test_ladder_adjointness():
    for n in MODES:
        for mu in BASIS:
            for nu in BASIS:
                lhs = inner_product(apply_alpha(n, b(mu)), b(nu))
                rhs = inner_product(b(mu), apply_alpha(-n, b(nu)))
                assert lhs == rhs, (n, mu, nu)


def test_basis_norms():
    for mu in BASIS:
        for nu in BASIS:
            ip = inner_product(b(mu), b(nu))
            if mu == nu:
                assert ip == parts_product(mu) * aut_count(mu)
            else:
                assert not ip


def _naive_inner_product(u, v):
    # term by term over every pair of basis vectors, norms recomputed
    out = {}
    for mu, pu in u.terms.items():
        for nu, pv in v.terms.items():
            if mu == nu:
                norm = parts_product(mu) * aut_count(mu)
                for e1, c1 in pu.items():
                    for e2, c2 in pv.items():
                        out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2 * norm
    return ZPoly(out)


def test_inner_product_matches_naive_reference():
    rng = random.Random(0)

    def vector():
        terms = {}
        for mu in rng.sample(BASIS, 6):
            terms[mu] = {e: rng.randint(-3, 3) for e in range(rng.randint(1, 3))}
        return FockVector(terms)

    for _ in range(300):
        u, v = vector(), vector()
        got = inner_product(u, v)
        assert got == _naive_inner_product(u, v), (u, v)
        assert 0 not in got.coeffs.values()


def test_inner_product_drops_cancelled_coefficients():
    # <b_21|b_21> = 2 and <b_3|b_3> = 3, so 3 * 2 - 2 * 3 cancels
    v = FockVector({(2, 1): {0: 1}, (3,): {0: -2}})
    u = FockVector({(2, 1): {0: 3}, (3,): {0: 1}})
    cancelled = inner_product(u, v)
    assert cancelled == ZPoly() == _naive_inner_product(u, v)
    assert not cancelled
    # the constant term cancels, the z term survives alone
    u = FockVector({(2, 1): {0: 3, 1: 1}, (3,): {0: 1}})
    assert inner_product(u, v).coeffs == {1: 2}
    assert inner_product(u, v) == _naive_inner_product(u, v)


def test_vertex_operator_small_values():
    # oracle: normal-ordered expansion by hand
    assert apply_m(b((2,)), 2) == FockVector({(2,): {1: 4}, (1, 1): {0: 2}})
    assert apply_m(b((1, 1)), 2) == b((2,)).scale(2)
    assert apply_m(b((2, 1)), 3) == FockVector(
        {
            (2, 1): {1: 4},
            (1, 1, 1): {0: 2},
            (3,): {0: 4},
        }
    )
    assert apply_m(b(()), 0) == FockVector.zero()
    with pytest.raises(ValueError):
        apply_m(b((3,)), 2)


def test_vertex_operator_drops_cancelled_terms():
    # M b_11 = 2 b_2 and M b_2 = 4z b_2 + 2 b_11, so the two 4z b_2 terms of
    # M (2z b_11 - b_2) cancel and b_2 must leave the vector
    v = FockVector({(1, 1): {1: 2}, (2,): {0: -1}})
    assert apply_m(v, 2) == FockVector({(1, 1): {0: -2}})


def _m_from_ladders(v, n):
    # the module docstring's M, term by term from apply_alpha (energy n)
    out = FockVector.zero()
    for k in range(2, n + 1):
        diagonal = apply_alpha(-k, apply_alpha(k, v))
        out = out + FockVector(
            {
                mu: {e + 1: 2 * (k - 1) * c for e, c in p.items()}
                for mu, p in diagonal.terms.items()
            }
        )
    for i in range(1, n):
        for j in range(1, n - i + 1):
            out = out + apply_alpha(-j, apply_alpha(-i, apply_alpha(i + j, v)))
            out = out + apply_alpha(-(i + j), apply_alpha(i, apply_alpha(j, v)))
    return out


def test_vertex_operator_matches_ladder_assembly():
    for mu in BASIS:
        assert apply_m(b(mu), sum(mu)) == _m_from_ladders(b(mu), sum(mu)), mu


def test_matrix_element_values():
    assert matrix_element((2,), (2,), 0) == 2
    assert matrix_element((2,), (1, 1), 1) == 4
    # oracle: hand-expanded M^2 b_2 = 16 z^2 b_2 + 8 z b_11 + 4 b_2
    assert matrix_element((2,), (2,), 2) == ZPoly({2: Fraction(32), 0: Fraction(8)})
    assert matrix_element((1, 1), (1, 1), 2) == 8
    assert matrix_element((2, 1), (3,), 1) == 12


def test_matrix_element_rejects_negative_power():
    with pytest.raises(ValueError, match="power"):
        matrix_element((2,), (2,), -1)


def test_matrix_element_matches_plain_chain():
    # the self-adjoint split against p applications of M to b_nu
    for n in range(6):
        for mu, nu in itertools.product(partitions(n), repeat=2):
            vec = b(nu)
            for power in range(6):
                assert matrix_element(mu, nu, power) == inner_product(b(mu), vec), (
                    mu, nu, power)
                vec = apply_m(vec, n)


def test_matrix_elements_have_int_coefficients():
    for n in range(6):
        for mu in partitions(n):
            for power in range(4):
                coeffs = matrix_element(mu, mu, power).coeffs.values()
                assert all(type(c) is int for c in coeffs), (mu, power)


def test_energy_conservation():
    for mu in BASIS:
        for nu in BASIS:
            if sum(mu) != sum(nu) and sum(mu) <= 4 and sum(nu) <= 4:
                for power in (0, 1, 2):
                    assert not matrix_element(mu, nu, power)


def test_z_degree_and_parity():
    # after g-1 energy-preserving applications the z-degree is at most g-1,
    # and nonzero z^c coefficients keep c = g-1 (mod 2)
    for d in (1, 2, 3):
        for g in (1, 2, 3, 4, 5):
            for mu in partitions(d):
                poly = matrix_element(mu, mu, g - 1)
                assert max(poly.coeffs, default=0) <= g - 1
                for c, coef in poly.coeffs.items():
                    assert coef != 0
                    assert (g - 1 - c) % 2 == 0


def test_double_numbers():
    assert twisted_double_disconnected((1,), (1,), 1) == 1
    assert twisted_double_disconnected((2,), (2,), 1) == Fraction(1, 2)
    # self-adjointness of the vertex operator makes the numbers symmetric
    for mu, nu in [((3, 1), (2, 2)), ((2,), (1, 1)), ((4,), (2, 2))]:
        g = 3 if len(mu) == len(nu) else 2
        try:
            left = twisted_double_disconnected(mu, nu, g)
            right = twisted_double_disconnected(nu, mu, g)
        except ParityViolation:
            continue
        assert left == right


def test_double_number_parity_halt():
    # an odd total length change leaves no consistent vertex count
    with pytest.raises(ParityViolation):
        twisted_double_disconnected((2,), (1, 1), 2)


def test_double_number_size_mismatch_warns():
    with pytest.warns(RuntimeWarning, match="sizes differ"):
        assert twisted_double_disconnected((2,), (1,), 3) == 0


def test_double_number_guards():
    with pytest.raises(ValueError):
        twisted_double_disconnected((2,), (2,), 0)
    with pytest.raises(ValueError):
        elliptic_disconnected(0, 1)
    with pytest.raises(ValueError):
        elliptic_from_doubles(0, 1)


def test_elliptic_assemblies_agree():
    for d in range(1, 7):
        for g in range(1, 7):
            assert elliptic_from_doubles(d, g) == elliptic_disconnected(d, g), (d, g)


def test_elliptic_count_calls_apply_m_through_the_module(monkeypatch):
    # the benchmark's Fock probe wraps fock.apply_m, so the count must reach
    # it through the module global
    calls = []
    real = fock.apply_m

    def counted(v, energy_cap):
        calls.append(energy_cap)
        return real(v, energy_cap)

    monkeypatch.setattr(fock, "apply_m", counted)
    assert elliptic_disconnected(3, 5) == 22048
    assert calls


def test_elliptic_count_raises_on_a_broken_norm(monkeypatch):
    # each partition's pairing must divide exactly by its norm; a wrong norm
    # leaves a remainder, which must raise rather than be floored away
    norm = fock._norm
    monkeypatch.setattr(fock, "_norm", lambda mu: norm(mu) + 1)
    with pytest.raises(ArithmeticError, match="not a multiple"):
        elliptic_disconnected(3, 5)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_elliptic_matches_symmetric_group_pipeline(d, g):
    assert elliptic_disconnected(d, g) == count_twisted(d, g, connected=False).value


def _content_sum(d, g):
    # b = 1 (zonal) case of the b-Hurwitz numbers: the elliptic count is the
    # trace of the (g-1)-th power of M rescaled as the prefactor sum reads it,
    # and that operator is diagonal on the zonal polynomials with eigenvalue
    # 2 * c2(lambda), c2 the 2-content sum (Stanley, Adv. Math. 1989)
    total = 0
    for lam in partitions(d):
        c2 = sum(2 * j - i for i, row in enumerate(lam) for j in range(row))
        total += (2 * c2) ** (g - 1)
    return total


def test_elliptic_matches_content_sum():
    for d in range(1, 9):
        for g in range(1, 7):
            assert elliptic_disconnected(d, g) == _content_sum(d, g), (d, g)
    assert elliptic_disconnected(14, 6) == _content_sum(14, 6) == 14626914197376
    assert elliptic_disconnected(12, 9) == _content_sum(12, 9) == 31448870469726234624


def test_frozen_disconnected_values():
    # oracle: symmetric-group pipeline (full grid cross-check in acceptance)
    assert elliptic_disconnected(2, 3) == 20
    assert elliptic_disconnected(3, 3) == 184
    assert elliptic_disconnected(1, 2) == 0
