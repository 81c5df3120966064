import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from hyposhift import shifts
from hyposhift.errors import InvalidDimension
from hyposhift.shifts import (
    exact_commutator_diagonal,
    rational_family,
    symbol_curve,
    tabulated,
    unilateral,
)

from conftest import basis_vector
from oracles import materialize, self_commutator


def test_materialize_unilateral():
    m = materialize(unilateral(), 3)
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    np.testing.assert_array_equal(m, expected)


def test_materialize_rational():
    m = materialize(rational_family(2.0), 3)
    assert m[1, 0] == pytest.approx(0.5)
    assert m[2, 1] == pytest.approx(2.0 / 3.0)
    assert np.count_nonzero(m) == 2


def test_materialize_strict_subdiagonal():
    m = materialize(tabulated([0.5], limit=0.5), 2)
    assert m[0, 0] == 0


def test_materialize_rejects_small_dimension():
    with pytest.raises(InvalidDimension):
        materialize(unilateral(), 1)


def test_materialize_nilpotent():
    m = materialize(rational_family(1.5), 6)
    np.testing.assert_allclose(np.linalg.matrix_power(m, 6), 0.0, atol=1e-15)


def test_rational_family_requires_lam_above_one():
    with pytest.raises(ValueError):
        rational_family(0.5)
    with pytest.raises(ValueError):
        rational_family(1.0)


def test_exact_diagonal_unilateral():
    diag = exact_commutator_diagonal(unilateral(), 5)
    np.testing.assert_array_equal(diag, [1, 0, 0, 0, 0])


def test_exact_diagonal_rational():
    diag = exact_commutator_diagonal(rational_family(2.0), 3)
    np.testing.assert_allclose(diag, [0.25, 7.0 / 36.0, 17.0 / 144.0], atol=1e-15)


@pytest.mark.parametrize(
    "model",
    [unilateral(), rational_family(1.5), rational_family(7.3), tabulated([0.5, 2.0], limit=0.9)],
    ids=["unilateral", "rational-1.5", "rational-7.3", "tabulated"],
)
def test_exact_diagonal_bit_equal_to_scalar_weights(model):
    # the kernel squares and differences in place on the fresh weight array
    for n in (1, 2, 3, 1000):
        w2 = np.array([oracles.weight(model, k) for k in range(n)]) ** 2
        expected = np.concatenate((w2[:1], w2[1:] - w2[:-1]))
        assert np.array_equal(exact_commutator_diagonal(model, n), expected)
    assert np.array_equal(model.weights(3), [oracles.weight(model, k) for k in range(3)])


@pytest.mark.parametrize(
    "model",
    [rational_family(3.7), tabulated(np.linspace(0.5, 2.0, shifts._DIAGONAL_BLOCK + 5), limit=0.9)],
    ids=["rational", "tabulated"],
)
def test_blocked_diagonal_bit_equal_to_unblocked(model):
    block = shifts._DIAGONAL_BLOCK
    for n in (1, 2, block - 1, block, block + 1, 3 * block + 7, 10**6):
        want = oracles.exact_commutator_diagonal(model, n)
        assert np.array_equal(exact_commutator_diagonal(model, n), want)


@pytest.mark.parametrize(
    "model",
    [rational_family(3.7), tabulated(np.linspace(0.5, 2.0, shifts._DIAGONAL_BLOCK + 5), limit=0.9)],
    ids=["rational", "tabulated"],
)
def test_diagonal_from_start_bit_equal_to_slice(model):
    block = shifts._DIAGONAL_BLOCK
    n = 3 * block + 7
    whole = exact_commutator_diagonal(model, n)
    for start in (0, 1, 2, block - 1, block, block + 1, 2 * block + 3, n - 1):
        assert np.array_equal(exact_commutator_diagonal(model, n, start), whole[start:])


@pytest.mark.parametrize("n, start", [(0, 0), (5, 5), (5, -1)])
def test_diagonal_refuses_an_empty_or_negative_range(n, start):
    with pytest.raises(InvalidDimension):
        exact_commutator_diagonal(unilateral(), n, start)


def test_exact_diagonal_telescopes():
    for lam in (1.5, 2.0, 5.0):
        model = rational_family(lam)
        for n in (1, 7, 1000):
            diag = exact_commutator_diagonal(model, n)
            w_last = oracles.weight(model, n - 1)
            assert np.sum(diag) == pytest.approx(w_last**2, abs=1e-14)


def test_exact_diagonal_partial_sum_example():
    diag = exact_commutator_diagonal(rational_family(2.0), 1000)
    assert np.sum(diag) == pytest.approx((1000.0 / 1001.0) ** 2, abs=1e-12)
    assert np.sum(diag) == pytest.approx(0.998003, abs=1e-6)


def test_exact_diagonal_positive_for_increasing_weights():
    for lam in (1.1, 2.0, 10.0):
        diag = exact_commutator_diagonal(rational_family(lam), 200)
        assert np.all(diag > 0)


# weights from a coarse grid: no two distinct ones share a rounded square
_GRID_WEIGHTS = st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])


@given(st.lists(_GRID_WEIGHTS, min_size=1, max_size=6), _GRID_WEIGHTS)
@settings(max_examples=100, deadline=None)
def test_hyponormal_matches_commutator_diagonal(table, limit):
    # [T*, T] is diagonal, so T is hyponormal exactly when every entry is >= 0;
    # the entry past the table is limit^2 - last^2, and every later one is 0
    model = tabulated(table, limit)
    n = len(table) + 2
    assert model.hyponormal == bool(np.all(exact_commutator_diagonal(model, n) >= 0))


@given(
    st.one_of(
        st.lists(_GRID_WEIGHTS, min_size=1, max_size=6),
        # equal entries, which the draw above seldom makes
        st.tuples(_GRID_WEIGHTS, st.integers(1, 6)).map(lambda wk: [wk[0]] * wk[1]),
    ),
    _GRID_WEIGHTS,
)
@settings(max_examples=100, deadline=None)
def test_rank_one_matches_commutator_diagonal(table, limit):
    # [T*, T] is diagonal with first entry w_0^2 > 0, so it is rank one exactly
    # when every later entry is 0; those past the table are 0 from two on
    model = tabulated(table, limit)
    n = len(table) + 2
    assert model.rank_one == bool(np.all(exact_commutator_diagonal(model, n)[1:] == 0))


def test_hyponormal_families():
    assert unilateral().hyponormal
    assert rational_family(1.5).hyponormal
    assert not tabulated([2.0, 1.0], limit=1.0).hyponormal
    # a nondecreasing table whose limit drops below its last entry
    assert not tabulated([1.0, 2.0], limit=1.5).hyponormal


def test_leading_corner_consistency(rng):
    # (materialize(model, n))^k e_j equals the infinite model applied k times
    model = rational_family(2.0)
    n = 12
    t = materialize(model, n)
    for _ in range(10):
        j = int(rng.integers(0, n - 1))
        k = int(rng.integers(0, n - j))
        v = np.linalg.matrix_power(t, k) @ basis_vector(n, j)
        coeff = np.prod([oracles.weight(model, j + i) for i in range(k)])
        expected = coeff * basis_vector(n, j + k) if j + k < n else np.zeros(n)
        np.testing.assert_allclose(v, expected, atol=1e-14)


def test_truncation_commutator_matches_exact_diagonal_except_corner():
    model = rational_family(2.0)
    n = 9
    finite = np.real(np.diagonal(self_commutator(materialize(model, n))))
    exact = exact_commutator_diagonal(model, n)
    np.testing.assert_allclose(finite[: n - 1], exact[: n - 1], atol=1e-14)
    assert abs(finite[n - 1] - exact[n - 1]) > 0.1


def test_symbol_curve_unilateral_four_points():
    pts = symbol_curve(unilateral(), 4)
    np.testing.assert_allclose(pts, [1, 1j, -1, -1j], atol=1e-14)


def test_symbol_curve_rational_is_unit_circle():
    pts = symbol_curve(rational_family(3.0), 64)
    np.testing.assert_allclose(np.abs(pts), 1.0, atol=1e-14)


def test_symbol_curve_tabulated_radius():
    pts = symbol_curve(tabulated([0.5, 0.5], limit=0.5), 32)
    np.testing.assert_allclose(np.abs(pts), 0.5, atol=1e-14)


def test_symbol_curve_needs_limit():
    # the curve's radius is the limit, not a table entry, and every table declares one
    with pytest.raises(TypeError):
        tabulated([0.5, 0.6])
    pts = symbol_curve(tabulated([0.5, 0.6], limit=0.7), 32)
    np.testing.assert_allclose(np.abs(pts), 0.7, atol=1e-14)


def test_tabulated_extension_needs_limit():
    # the table extends by its limit, so a model without one is refused when built
    with pytest.raises(ValueError, match="limit"):
        shifts.WeightSequence(shifts.KIND_TABULATED, table=(0.5, 0.6))
    m = materialize(tabulated([0.5, 0.6], limit=0.8), 5)
    np.testing.assert_array_equal(np.diagonal(m, -1), [0.5, 0.6, 0.8, 0.8])


@pytest.mark.parametrize(
    "build, args",
    [
        (shifts.WeightSequence, (shifts.KIND_TABULATED, None, (1.0,))),
        (tabulated, ([1.0], 0.0)),
        (tabulated, ([1.0], -1.0)),
        (tabulated, ([1.0], math.nan)),
        (tabulated, ([1.0], math.inf)),
        (tabulated, ([math.nan], 1.0)),
        (tabulated, ([math.inf], 1.0)),
        (tabulated, ([1.0, 0.0], 1.0)),
        (rational_family, (math.nan,)),
        (rational_family, (math.inf,)),
        (rational_family, (1.0,)),
    ],
    ids=["limit-missing", "limit-zero", "limit-negative", "limit-nan", "limit-inf", "weight-nan", "weight-inf",
         "weight-zero", "lambda-nan", "lambda-inf", "lambda-one"],
)
def test_refuses_a_model_that_is_not_finite_and_positive(build, args):
    with pytest.raises(ValueError):
        build(*args)


# any float, with positive finite ones drawn often enough to pair with a bad one
_ANY_FLOAT = st.floats(0.01, 10.0) | st.floats()


@given(st.lists(_ANY_FLOAT, min_size=1, max_size=4), _ANY_FLOAT, _ANY_FLOAT)
@example([1.0], math.inf, math.inf)
@example([1.0, math.nan], math.nan, math.nan)
@settings(max_examples=200, deadline=None)
def test_every_model_that_builds_defines_the_infinite_operator(table, limit, lam):
    # a model builds exactly when its weights and limit are positive and finite
    admissible = all(0.0 < w < math.inf for w in table) and 0.0 < limit < math.inf
    try:
        model = tabulated(table, limit)
    except ValueError:
        assert not admissible
    else:
        assert admissible and model.limit == limit and model.sup < math.inf
    try:
        model = rational_family(lam)
    except ValueError:
        assert not 1.0 < lam < math.inf
    else:
        assert 1.0 < lam < math.inf and model.limit == 1.0
