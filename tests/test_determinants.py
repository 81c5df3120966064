import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyposhift.principal import determining_det
from hyposhift.errors import NotRankOne, SpectrumHit
from hyposhift.shifts import rational_family, tabulated, unilateral

from conftest import basis_vector, random_complex_matrix
from oracles import (
    CartesianPair, NotPSD, SeriesDivergent, SingularResolvent, adjoint, cartesian_parts,
    det_eigenproduct, det_logseries, determining_function_E, determining_function_det,
    materialize, multiplicative_commutator_pitfall, rank_one, trace, trace_norm,
)


def scaled_random(rng, n, target_trace_norm):
    m = random_complex_matrix(rng, n)
    return m * (target_trace_norm / trace_norm(m))


class TestDetEigenproduct:
    def test_zero_matrix(self):
        assert det_eigenproduct(np.zeros((4, 4))) == pytest.approx(1.0)

    def test_rank_one(self, rng):
        # det(I + x (x) x) = 1 + ||x||^2
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert det_eigenproduct(rank_one(x)) == pytest.approx(
            1.0 + np.linalg.norm(x) ** 2
        )

    def test_matches_numpy_det(self, rng):
        for _ in range(10):
            k = random_complex_matrix(rng, 6)
            oracle = np.linalg.det(np.eye(6) + k)
            assert det_eigenproduct(k) == pytest.approx(oracle, rel=1e-9)


class TestDetLogseries:
    def test_agrees_with_eigenproduct(self, rng):
        for _ in range(25):
            k = scaled_random(rng, 6, 0.9 * rng.uniform(0.1, 1.0))
            assert det_logseries(k) == pytest.approx(det_eigenproduct(k), abs=1e-10)

    def test_diverges_outside_unit_ball(self):
        with pytest.raises(SeriesDivergent):
            det_logseries(np.eye(3))

    def test_rank_one_closed_form(self, rng):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        k = -0.5 * rank_one(x) / np.linalg.norm(x) ** 2
        # det(I - K) = 1 - tr K for rank-one K
        assert det_logseries(k) == pytest.approx(1.0 + trace(k), abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_property_small_norm(self, seed, tn):
        rng = np.random.default_rng(seed)
        k = scaled_random(rng, 5, tn)
        assert det_logseries(k) == pytest.approx(det_eigenproduct(k), abs=1e-10)


class TestDeterminingDet:
    def test_real_points(self):
        model = unilateral()
        x = basis_vector(256, 0)
        val = determining_det(model, x, 2.0, 3.0)
        assert val == pytest.approx(1.0 - 1.0 / 6.0, abs=1e-12)

    def test_imaginary_point(self):
        model = unilateral()
        x = basis_vector(64, 0)
        val = determining_det(model, x, 2j, 2j)
        assert val == pytest.approx(0.75, abs=1e-12)

    def test_truncation_invariant(self):
        # the adjoint resolvent acts on e_0 identically at every truncation size
        model = unilateral()
        vals = [
            determining_det(model, basis_vector(n, 0), 2.0 - 1j, 3.0 + 0.5j)
            for n in (8, 32, 256)
        ]
        assert vals[0] == pytest.approx(vals[1], abs=1e-14)
        assert vals[1] == pytest.approx(vals[2], abs=1e-14)

    def test_closed_form_all_points(self):
        model = unilateral()
        x = basis_vector(32, 0)
        for z in (2.0, 3.0 - 1j, 2j, -1.5 + 1.5j):
            for w in (2.0, 2j, 4.0 + 1j):
                val = determining_det(model, x, z, w)
                assert val == pytest.approx(1.0 - 1.0 / (z * np.conj(w)), abs=1e-12)

    def test_rejects_points_in_disc(self):
        # the message names the point that failed, its modulus and sup w_k
        model = unilateral()
        with pytest.raises(SpectrumHit, match=r"^\|z\| must exceed sup w_k = 1.0, got 0.5$"):
            determining_det(model, basis_vector(16, 0), 0.5, 2.0)
        with pytest.raises(SpectrumHit, match=r"^\|w\| must exceed sup w_k = 1.0, got 1.0$"):
            determining_det(model, basis_vector(16, 0), 2.0, 1j)

    def test_rejects_higher_rank_model(self):
        model = rational_family(2.0)
        with pytest.raises(NotRankOne):
            determining_det(model, basis_vector(16, 0), 2.0, 3.0)


class TestCheckRankOne:
    """WeightSequence.rank_one, decided from the model's table, whatever the truncation."""

    @pytest.mark.parametrize(
        "model",
        [
            unilateral(),
            tabulated([0.7] * 80, limit=0.7),
            tabulated([2.0] * 3, limit=2.0),
        ],
        ids=["shift", "long-table", "short-table"],
    )
    def test_accepts_constant_weights(self, model):
        assert model.rank_one

    @pytest.mark.parametrize(
        "model",
        [
            # the 2 sits past every truncation the config asks for
            tabulated([1.0] * 80 + [2.0], limit=2.0),
            # the one entry past the table: limit^2 - 1
            tabulated([1.0] * 80, limit=2.0),
            tabulated([1.0, 1.0 + 1e-14], limit=1.0 + 1e-14),
            rational_family(2.0),
            # w_1^2 - w_0^2 is about 3e-16 here: the family is refused by kind
            rational_family(1e8),
        ],
        ids=["late-step", "limit-step", "tiny-step", "rational", "rational-flat"],
    )
    def test_refuses_other_models(self, model):
        assert not model.rank_one

    def test_threshold_is_gone(self):
        # [T*, T] has the second nonzero entry (1 + 4e-15)^2 - 1, about 8e-15:
        # no tolerance lets it pass as rank one
        model = tabulated([1.0, 1.0 + 4e-15], limit=1.0 + 4e-15)
        assert not model.rank_one
        with pytest.raises(NotRankOne):
            determining_det(model, basis_vector(16, 0), 2.0, 3.0)


class TestCartesianPair:
    def test_splits_shift(self):
        t = materialize(unilateral(), 8)
        d = np.zeros((8, 8))
        d[0, 0] = 1.0
        pair = cartesian_parts(t, d)
        np.testing.assert_allclose(pair.a + 1j * pair.b, t, atol=1e-14)
        np.testing.assert_allclose(pair.a, adjoint(pair.a), atol=1e-14)
        np.testing.assert_allclose(pair.b, adjoint(pair.b), atol=1e-14)

    def test_rejects_non_hermitian_model(self):
        t = materialize(unilateral(), 4)
        with pytest.raises(NotPSD):
            cartesian_parts(t, t)

    def test_rejects_indefinite_model(self):
        t = materialize(unilateral(), 4)
        with pytest.raises(NotPSD):
            cartesian_parts(t, np.diag([1.0, -1.0, 0.0, 0.0]))


class TestDeterminingFunction:
    def pair(self, n=6):
        t = materialize(unilateral(), n)
        d = np.zeros((n, n))
        d[0, 0] = 1.0
        return cartesian_parts(t, d)

    def test_zero_model_gives_identity(self):
        t = materialize(unilateral(), 5)
        pair = cartesian_parts(t, np.zeros((5, 5)))
        e = determining_function_E(pair, 2.0, 3.0)
        np.testing.assert_allclose(e, np.eye(5), atol=1e-14)
        assert determining_function_det(pair, 2.0, 3.0) == pytest.approx(1.0)

    def test_sylvester_oracle(self):
        # det E(z, w) = det(I - 2i (A-z)^{-1} (B-w)^{-1} D) by Sylvester's identity
        pair = self.pair()
        n = pair.a.shape[0]
        eye = np.eye(n)
        for z, w in ((2.0, 3.0), (2.0 - 1j, -3.0), (1.5j, 2.5)):
            direct = np.linalg.det(
                eye
                - 2j
                * np.linalg.solve(pair.a - z * eye, np.linalg.solve(pair.b - w * eye, pair.d))
            )
            assert determining_function_det(pair, z, w) == pytest.approx(direct, abs=1e-10)

    def test_rejects_spectrum_point(self):
        # at odd dimension 0 is an eigenvalue of B for the truncated shift split
        pair = self.pair(5)
        with pytest.raises(SpectrumHit):
            determining_function_E(pair, 2.0, 0.0)

    def test_absolute_floor_near_zero_spectrum(self):
        # A = 0: every singular value of A - z equals |z| = 1e-14, so only the
        # guard's absolute floor (1e-13 below unit scale) can reject the point
        n = 3
        pair = CartesianPair(a=np.zeros((n, n)), b=np.diag([1.0, 2.0, 4.0]), d=np.eye(n))
        with pytest.raises(SpectrumHit, match="spectrum of A"):
            determining_function_E(pair, 1e-14, 3.0)


class TestMultiplicativePitfall:
    def test_always_one_on_shift(self):
        t = materialize(unilateral(), 24)
        for z, w in ((2.0, 3.0), (2j, 2j), (-1.7, 2.2 + 1j)):
            assert multiplicative_commutator_pitfall(t, z, w) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_always_one_on_random(self, rng):
        for _ in range(10):
            m = random_complex_matrix(rng, 7)
            assert multiplicative_commutator_pitfall(m, 10.0, 11.0) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_differs_from_determining_det(self):
        # the tripwire: the finite product collapses to 1 while the true value does not
        model = unilateral()
        val = determining_det(model, basis_vector(32, 0), 2.0, 2.0)
        assert abs(val - 1.0) > 0.2

    def test_singular_factor_raises(self):
        t = materialize(unilateral(), 4)
        with pytest.raises(SingularResolvent):
            multiplicative_commutator_pitfall(t, 0.0, 2.0)
