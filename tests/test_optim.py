import numpy as np
import pytest

import cet.optim
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

    @pytest.mark.parametrize("separate_heads", [False, True])
    def test_named_tensors_and_moments_follow_the_fields(self, vocab, separate_heads):
        params = init_params(vocab, 4, seed=0, separate_heads=separate_heads)
        names = ["entity_emb", "relation_emb", "type_emb", "W", "b"]
        names += ["agg_W", "agg_b"] if separate_heads else []
        assert [name for name, _ in params.named()] == names
        assert all(tensor is getattr(params, name) for name, tensor in params.named())
        state = AdamState(params, lr=0.01)
        assert list(state.m) == names and list(state.v) == names

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


def stepped_problem():
    """A separate-head problem one Adam step from its start, so that the
    moments and ``t`` are away from theirs, with a fresh random gradient set
    per ``gradients()`` call and a bitwise ``snapshot()`` of the parameters,
    the moments and ``t``."""
    vocab = build_vocab(
        [(f"e{i}", "r", f"e{i+1}") for i in range(6)], [(f"e{i}", f"t{i}") for i in range(5)]
    )
    params = init_params(vocab, 4, seed=2, separate_heads=True)
    state = AdamState(params, lr=0.01)
    rng = np.random.default_rng(4)

    def gradients():
        grads = GradientSet.zeros_like(params)
        for _, tensor in grads.named_dense():
            tensor[...] = rng.normal(size=tensor.shape)
        for _, rows in grads.named_sparse():
            rows.update({i: rng.normal(size=4).astype(np.float32) for i in (0, 1)})
        return grads

    def snapshot():
        return (
            state.t, [t.tobytes() for _, t in params.named()],
            [state.m[n].tobytes() for n in state.m], [state.v[n].tobytes() for n in state.v],
        )

    adam_step(params, state, gradients())
    return params, state, gradients, snapshot


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
        # A NaN or inf anywhere, in a dense tensor or in one sparse row, is
        # found before any parameter, moment or the step count moves.
        params, state, gradients, snapshot = stepped_problem()
        before = snapshot()
        for field, name, value in (
            ("W", "W", np.nan), ("b", "b", np.nan), ("agg_b", "agg_b", np.inf),
            ("entity_rows", "entity_emb", np.nan), ("relation_rows", "relation_emb", np.inf),
            ("type_rows", "type_emb", np.nan),
        ):
            grads = gradients()
            target = getattr(grads, field)
            if isinstance(target, dict):
                target[1][2] = value
            else:
                target.reshape(-1)[-1] = value
            with pytest.raises(NumericError, match=repr(name)):
                adam_step(params, state, grads)
            assert snapshot() == before, field

    def test_wrong_shape_aborts_with_tensor_name(self):
        # A sparse row of the wrong length, among rows of the right one or in
        # every row, and a dense gradient of the wrong shape, even one that
        # would broadcast, are found before any parameter, moment or the step
        # count moves.
        params, state, gradients, snapshot = stepped_problem()
        types, k = params.W.shape
        before = snapshot()
        for field, name, value in (
            ("entity_rows", "entity_emb", {1: np.ones(k + 1)}),
            ("relation_rows", "relation_emb", {0: np.ones(k + 1), 1: np.ones(k + 1)}),
            ("type_rows", "type_emb", {0: np.ones((1, k)), 1: np.ones((1, k))}),
            ("W", "W", np.ones((types, k + 1))),
            ("W", "W", np.ones(k)),
            ("b", "b", np.ones(types + 1)),
            ("agg_W", "agg_W", np.ones((1, k))),
        ):
            grads = gradients()
            if isinstance(value, dict):
                getattr(grads, field).update(value)
            else:
                setattr(grads, field, value)
            with pytest.raises(ValueError, match=repr(name)):
                adam_step(params, state, grads)
            assert snapshot() == before, field

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_map_order_and_layout_give_the_same_bits(self, dtype):
        # A row map's insertion order (sorted, reversed, shuffled) and its
        # rows' layout (views of one array, strided views of one array,
        # separate arrays) leave the parameters and moments bit for bit the
        # same, over several steps.
        vocab = build_vocab(
            [(f"e{i}", f"r{i % 4}", f"e{i+1}") for i in range(11)],
            [(f"e{i}", f"t{i % 6}") for i in range(10)],
        )
        k = 5
        start = init_params(vocab, k, seed=4, dtype=dtype)
        tables = (start.entity_emb, start.relation_emb, start.type_emb)
        rng = np.random.default_rng(6)
        steps = []
        for _ in range(3):
            dense = [rng.normal(size=start.W.shape), rng.normal(size=start.b.shape)]
            sparse = []
            for table in tables:
                ids = np.sort(rng.choice(len(table), size=len(table) - 1, replace=False))
                sparse.append((ids, rng.normal(size=(len(ids), k)).astype(dtype)))
            steps.append((dense, sparse))
        orders = {"sorted": np.arange, "reversed": lambda n: np.arange(n)[::-1], "shuffled": rng.permutation}
        layouts = {
            "views": lambda block: block,
            "strided views": np.asfortranarray,
            "separate arrays": lambda block: [row.copy() for row in block],
        }
        results = {}
        for order_name, order in orders.items():
            for layout_name, layout in layouts.items():
                params = start.copy()
                state = AdamState(params, lr=0.01)
                for dense, sparse in steps:
                    grads = GradientSet.zeros_like(params)
                    grads.W[...], grads.b[...] = dense
                    for (_, rows), (ids, block) in zip(grads.named_sparse(), sparse):
                        laid = layout(block)
                        rows.update((int(ids[i]), laid[i]) for i in order(len(ids)))
                    adam_step(params, state, grads)
                results[order_name, layout_name] = (
                    [t.tobytes() for _, t in params.named()],
                    [m.tobytes() for m in state.m.values()], [v.tobytes() for v in state.v.values()],
                )
        first = results["sorted", "separate arrays"]
        assert all(result == first for result in results.values()), [
            key for key, result in results.items() if result != first
        ]

    def test_update_deterministic(self):
        runs = []
        for _ in range(2):
            params, state = scalar_problem(x0=0.3, lr=0.02)
            grads = GradientSet.zeros_like(params)
            grads.W[0, 0] = -1.25
            adam_step(params, state, grads)
            runs.append(params.W.tobytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_slice_width_gives_the_same_bits(self, monkeypatch, dtype):
        # Slices narrower than one row, a few rows wide, and one slice per
        # tensor give the same parameters and moments, dense and sparse.
        vocab = build_vocab(
            [(f"e{i}", "r", f"e{i+1}") for i in range(9)], [(f"e{i}", f"t{i}") for i in range(7)]
        )
        start = init_params(vocab, 6, seed=3, dtype=dtype, separate_heads=True)
        rng = np.random.default_rng(8)
        steps = []
        for _ in range(3):
            grads = GradientSet.zeros_like(start)
            for _, tensor in grads.named_dense():
                tensor[...] = rng.normal(size=tensor.shape)
            for (_, rows), table in zip(grads.named_sparse(), (
                start.entity_emb, start.relation_emb, start.type_emb,
            )):
                for row in rng.choice(len(table), size=min(3, len(table)), replace=False):
                    rows[int(row)] = rng.normal(size=6).astype(dtype)
            steps.append(grads)
        results = []
        for cells in (5, 13, cet.optim._SLICE_CELLS, 1 << 30):
            monkeypatch.setattr(cet.optim, "_SLICE_CELLS", cells)
            params = start.copy()
            state = AdamState(params, lr=0.01)
            for grads in steps:
                adam_step(params, state, grads)
            results.append((
                [t.tobytes() for _, t in params.named()],
                [m.tobytes() for m in state.m.values()], [v.tobytes() for v in state.v.values()],
            ))
        assert all(result == results[0] for result in results[1:])

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
