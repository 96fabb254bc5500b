import random

import pytest

import naive
from conjucyclic import (
    CyclicCode,
    LengthMismatchError,
    NotADivisorError,
    build_tower,
    cyclic_shift,
    enumerate_divisors,
    euclidean_inner,
    factor_x2n_minus_1,
    symplectic_inner,
    symplectic_swap,
    tower_for_q,
)
from conjucyclic import linalg
from conjucyclic.refdata import QUATERNARY_N11, TERNARY_N11, decode_vector

SEED = 0x5EED


def small_codes(pairs):
    for q, n in pairs:
        tower = tower_for_q(q)
        for _, g in enumerate_divisors(factor_x2n_minus_1(tower, n)):
            yield CyclicCode(tower, n, g)


def test_cyclic_shift_basics():
    assert cyclic_shift((1, 0, 0, 0)) == (0, 1, 0, 0)
    v = (1, 2, 0, 2, 1, 0)
    out = v
    for _ in range(len(v)):
        out = cyclic_shift(out)
    assert out == v
    assert cyclic_shift(v, 2) == cyclic_shift(cyclic_shift(v))


def test_symplectic_swap_properties(f9, f16):
    rng = random.Random(SEED)
    for tower in (f9, f16):
        for _ in range(200):
            n = rng.randrange(1, 6)
            v = tuple(rng.choice(tower.subfield) for _ in range(2 * n))
            twice = symplectic_swap(tower, symplectic_swap(tower, v))
            assert twice == tuple(tower.neg(x) for x in v)
    # characteristic 2: plain half swap
    v = (1, 0, 1, 1, 0, 0)
    assert symplectic_swap(f16, v) == (1, 0, 0, 1, 0, 1)
    with pytest.raises(LengthMismatchError):
        symplectic_swap(f9, (1, 2, 0))


def test_symplectic_swap_reference_vector(f9):
    code = CyclicCode(f9, 11, decode_vector(f9, TERNARY_N11["g"]))
    h_star_vec = code.coefficient_vector(code.h_star)
    assert symplectic_swap(f9, h_star_vec) == decode_vector(
        f9, TERNARY_N11["tau_h_star"]
    )


def test_generator_matrix_single_parity(f9):
    code = CyclicCode(f9, 1, (1, 1))
    assert code.generator_matrix() == [(1, 1)]


@pytest.mark.parametrize(
    "data", [TERNARY_N11, QUATERNARY_N11], ids=["ternary", "quaternary"]
)
def test_generator_matrix_first_row(data):
    tower = tower_for_q(data["q"])
    code = CyclicCode(tower, data["n"], decode_vector(tower, data["g"]))
    matrix = code.generator_matrix()
    assert len(matrix) == data["dim"]
    assert matrix[0] == code.coefficient_vector(code.g)
    for first, second in zip(matrix, matrix[1:]):
        assert second == cyclic_shift(first)
    assert naive.rank(tower, matrix) == data["dim"]


def test_degenerate_codes(f9):
    zero = CyclicCode(f9, 2, (2, 0, 0, 0, 1))  # x^4 - 1
    assert zero.generator_matrix() == []
    assert zero.dim == 0
    assert len(zero.symplectic_dual_matrix()) == 4
    full = CyclicCode(f9, 2, (1,))
    assert full.symplectic_dual_matrix() == []
    assert naive.rank(f9, full.generator_matrix()) == 4
    with pytest.raises(NotADivisorError):
        CyclicCode(f9, 2, (1, 1, 1))


def test_symplectic_dual_of_zero_code_spans_everything(f9):
    code = CyclicCode(f9, 1, (2, 0, 1))  # x^2 - 1: the zero code
    assert code.symplectic_dual_matrix() == [(0, 1), (2, 0)]


def test_symplectic_dual_reference_rows(f9):
    code = CyclicCode(f9, 11, decode_vector(f9, TERNARY_N11["g"]))
    rows = code.symplectic_dual_matrix()
    assert rows[0] == decode_vector(f9, TERNARY_N11["tau_h_star"])
    assert rows[9] == decode_vector(f9, TERNARY_N11["tau_shift9_h_star"])
    assert len(rows) == code.k == 10
    assert naive.rank(f9, rows) == 10


def test_generator_and_symplectic_dual_are_orthogonal():
    for code in small_codes([(2, 3), (3, 2), (4, 2), (5, 2)]):
        gen = code.generator_matrix()
        dual = code.symplectic_dual_matrix()
        for u in gen:
            for v in dual:
                assert symplectic_inner(code.tower, u, v) == 0
        assert naive.rank(code.tower, dual) == code.k
        assert code.dim + len(dual) == 2 * code.n


def test_reference_orthogonality(f9):
    code = CyclicCode(f9, 11, decode_vector(f9, TERNARY_N11["g"]))
    for u in code.generator_matrix():
        for v in code.symplectic_dual_matrix():
            assert symplectic_inner(f9, u, v) == 0


def test_symplectic_dual_is_gram_kernel():
    """The dual row space equals the kernel of v -> (<g_i, v>_s)_i."""
    for code in small_codes([(2, 2), (3, 2), (4, 1), (5, 1)]):
        tower = code.tower
        gen = code.generator_matrix()
        gram_rows = [symplectic_swap(tower, row) for row in gen]
        kernel = linalg.right_kernel(tower, gram_rows, 2 * code.n)
        dual = code.symplectic_dual_matrix()
        if not dual:
            assert not kernel or code.dim == 0
        assert naive.same_span(tower, kernel, dual)


def test_row_space_is_shift_closed():
    for code in small_codes([(2, 3), (3, 2), (5, 2)]):
        gen = code.generator_matrix()
        basis, pivots = linalg.rref(code.tower, gen)
        for row in gen:
            assert linalg.in_span(code.tower, basis, pivots, cyclic_shift(row))


def test_inner_products():
    t = build_tower(3, 1)
    rng = random.Random(SEED)
    for _ in range(300):
        n = rng.randrange(1, 5)
        v = tuple(rng.choice(t.subfield) for _ in range(2 * n))
        assert symplectic_inner(t, v, v) == 0
    assert symplectic_inner(t, (1, 0), (0, 1)) == 1
    assert symplectic_inner(t, (0, 1), (1, 0)) == 2
    assert euclidean_inner(t, (1, 2), (2, 2)) == t.add(2, 4 % 3)
    with pytest.raises(LengthMismatchError):
        symplectic_inner(t, (1, 0), (1, 0, 0, 0))
    with pytest.raises(LengthMismatchError):
        symplectic_inner(t, (1, 0, 0), (1, 0, 0))
    with pytest.raises(LengthMismatchError):
        euclidean_inner(t, (1,), (1, 0))


def test_weights():
    assert naive.symplectic_weight((0, 0, 0, 0, 0, 0)) == 0
    assert naive.symplectic_weight((1, 0, 0, 0, 1, 0)) == 2
    assert naive.hamming_weight((0, 1, 0, 2)) == 2


def test_listed_mirror_words_have_min_symplectic_weight_2(f9):
    from conjucyclic.refdata import F9_N3_EXPANDED, decode_vector

    words = [decode_vector(f9, line) for line in F9_N3_EXPANDED]
    weights = [naive.symplectic_weight(w) for w in words if any(w)]
    assert min(weights) == 2
    assert all(w >= 2 for w in weights)


def test_membership_by_division(f9):
    code = CyclicCode(f9, 2, (1, 1))
    words = naive.span(f9, code.generator_matrix(), 4)
    for v in words:
        assert code.contains(v)
    assert not code.contains((1, 0, 0, 0))


def test_membership_refuses_words_outside_the_subfield():
    # beta * (6, 1, 0, 0, 0, 0) is a GF(q^2) multiple of the generator
    # vector, but no word of the q-ary code: its entries leave GF(4)
    tower = tower_for_q(4)
    code = CyclicCode(tower, 3, (6, 1))
    word = tuple(tower.mul(tower.beta, c) for c in code.coefficient_vector(code.g))
    assert word == (12, 2, 0, 0, 0, 0)
    assert not code.contains(word)
    assert code.contains(code.coefficient_vector(code.g))


def test_membership_refuses_codes_outside_the_field():
    code = CyclicCode(tower_for_q(3), 2, (2, 1))
    for word in ((9, 1, 1, 1), (-8, 1, 1, 1)):
        with pytest.raises(ValueError, match="element codes"):
            code.contains(word)
