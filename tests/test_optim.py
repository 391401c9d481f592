import numpy as np
import pytest

from cet import AdamState, GradientSet, NumericError, adam_step, build_vocab, init_params
from cet.scoring import ParameterSet


@pytest.fixture
def vocab():
    return build_vocab(
        [("a", "r", "b"), ("b", "s", "c")], [("a", "t1"), ("b", "t2")]
    )


class TestInitParams:
    def test_range_matches_dimension(self, vocab):
        params = init_params(vocab, 100, seed=0)
        for arr in (params.entity_emb, params.relation_emb, params.type_emb, params.W):
            assert arr.shape[1] == 100
            assert np.abs(arr).max() <= 0.1
        np.testing.assert_array_equal(params.b, 0.0)

    def test_same_seed_bitwise_identical(self, vocab):
        a = init_params(vocab, 16, seed=42)
        b = init_params(vocab, 16, seed=42)
        assert a.entity_emb.tobytes() == b.entity_emb.tobytes()
        assert a.W.tobytes() == b.W.tobytes()
        c = init_params(vocab, 16, seed=43)
        assert a.entity_emb.tobytes() != c.entity_emb.tobytes()

    def test_uniform_law_statistics(self):
        # k=10 gives bound 1; a large sample should center on 0 within 3 sigma.
        big = build_vocab(
            [(f"e{i}", "r", f"e{i+1}") for i in range(10000)], [("e0", "t")]
        )
        params = init_params(big, 10, seed=7, dtype=np.float64)
        sample = params.entity_emb.ravel()
        assert sample.size >= 100000
        assert np.abs(sample).max() <= 1.0
        sigma_mean = (2.0 / np.sqrt(12.0)) / np.sqrt(sample.size)
        assert abs(sample.mean()) < 3 * sigma_mean

    def test_separate_heads_allocated(self, vocab):
        params = init_params(vocab, 8, seed=0, separate_heads=True)
        assert params.agg_W.shape == params.W.shape
        np.testing.assert_array_equal(params.agg_b, 0.0)
        assert not np.array_equal(params.agg_W, params.W)

    def test_bad_dimension(self, vocab):
        with pytest.raises(ValueError):
            init_params(vocab, 0, seed=0)


def scalar_problem(x0=1.0, lr=0.01):
    """Wrap a single scalar into the (params, state, grads) machinery."""
    params = ParameterSet(
        entity_emb=np.zeros((1, 1)),
        relation_emb=np.zeros((1, 1)),
        type_emb=np.zeros((1, 1)),
        W=np.array([[x0]]),
        b=np.zeros(1),
    )
    return params, AdamState(params, lr=lr)


class TestAdamStep:
    def test_first_step_moves_by_lr_signed(self):
        params, state = scalar_problem(x0=0.0, lr=0.01)
        grads = GradientSet.zeros_like(params)
        grads.W[0, 0] = 3.7
        adam_step(params, state, grads)
        assert params.W[0, 0] == pytest.approx(-0.01, abs=1e-3 * 0.01)
        assert state.t == 1

    def test_untouched_rows_bitwise_unchanged(self):
        vocab = build_vocab([("a", "r", "b")], [("a", "t")])
        params = init_params(vocab, 4, seed=1)
        before = params.entity_emb.copy()
        state = AdamState(params, lr=0.1)
        grads = GradientSet.zeros_like(params)
        grads.entity_rows[0] = np.ones(4, dtype=params.dtype)
        adam_step(params, state, grads)
        assert params.entity_emb[1].tobytes() == before[1].tobytes()
        assert state.m["entity_emb"][1].tobytes() == np.zeros(4, params.dtype).tobytes()
        assert params.entity_emb[0].tobytes() != before[0].tobytes()

    def test_quadratic_convergence(self):
        params, state = scalar_problem(x0=1.0, lr=0.01)
        for _ in range(2000):
            grads = GradientSet.zeros_like(params)
            grads.W[0, 0] = 2.0 * params.W[0, 0]
            adam_step(params, state, grads)
        assert abs(params.W[0, 0]) < 1e-3

    def test_sparse_matches_dense_reference(self):
        # Rows touched on every step must follow the dense Adam recursion.
        vocab = build_vocab([("a", "r", "b")], [("a", "t")])
        params = init_params(vocab, 3, seed=5, dtype=np.float64)
        state = AdamState(params, lr=0.05)
        reference = params.entity_emb.copy()
        m = np.zeros_like(reference)
        v = np.zeros_like(reference)
        b1, b2 = 0.9, 0.999
        rng = np.random.default_rng(0)
        for t in range(1, 11):
            grad = rng.normal(size=reference.shape)
            grads = GradientSet.zeros_like(params)
            for row in range(reference.shape[0]):
                grads.entity_rows[row] = grad[row]
            adam_step(params, state, grads)
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            reference -= 0.05 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + 1e-8)
        np.testing.assert_array_equal(params.entity_emb, reference)

    def test_nonfinite_gradient_aborts_with_tensor_name(self):
        params, state = scalar_problem()
        grads = GradientSet.zeros_like(params)
        grads.W[0, 0] = np.nan
        with pytest.raises(NumericError, match="W"):
            adam_step(params, state, grads)
        grads = GradientSet.zeros_like(params)
        grads.entity_rows[0] = np.array([np.inf])
        with pytest.raises(NumericError, match="entity_emb"):
            adam_step(params, state, grads)

    def test_update_deterministic(self):
        runs = []
        for _ in range(2):
            params, state = scalar_problem(x0=0.3, lr=0.02)
            grads = GradientSet.zeros_like(params)
            grads.W[0, 0] = -1.25
            adam_step(params, state, grads)
            runs.append(params.W.tobytes())
        assert runs[0] == runs[1]

    def test_dense_update_bitwise_matches_formula(self):
        # The in-place dense update must reproduce the textbook expression
        # bit for bit, in float32, over several steps and with a separate head.
        vocab = build_vocab(
            [(f"e{i}", "r", f"e{i+1}") for i in range(6)], [(f"e{i}", f"t{i}") for i in range(5)]
        )
        params = init_params(vocab, 7, seed=3, separate_heads=True)
        state = AdamState(params, lr=0.01)
        names = ("W", "b", "agg_W", "agg_b")
        expected = {n: getattr(params, n).copy() for n in names}
        m = {n: np.zeros_like(a) for n, a in expected.items()}
        v = {n: np.zeros_like(a) for n, a in expected.items()}
        b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
        rng = np.random.default_rng(1)
        for t in range(1, 6):
            grads = GradientSet.zeros_like(params)
            for n in names:
                getattr(grads, n)[...] = rng.normal(size=expected[n].shape)
            adam_step(params, state, grads)
            for n in names:
                g = getattr(grads, n)
                m[n] = b1 * m[n] + (1.0 - b1) * g
                v[n] = b2 * v[n] + (1.0 - b2) * g * g
                expected[n] -= lr * (m[n] / (1.0 - b1**t)) / (np.sqrt(v[n] / (1.0 - b2**t)) + eps)
                assert getattr(params, n).dtype == np.float32
                assert getattr(params, n).tobytes() == expected[n].tobytes()
                assert state.m[n].tobytes() == m[n].tobytes()
                assert state.v[n].tobytes() == v[n].tobytes()
