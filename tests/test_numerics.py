"""Tensor engine: forward oracles, finite-difference checks, Adam."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraudformer import verify
from fraudformer.numerics import ops
from fraudformer.numerics.gradcheck import grad_check
from fraudformer.numerics.optim import Adam, NonFiniteGradientError
from fraudformer.numerics.tensor import DimensionError, GradTape, Tensor


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def sum_of(x):
    """The sum of x's entries, as a scalar tensor: its weighted sum under ones."""
    return verify.weighted_sum(x, Tensor(np.ones_like(x.data)))


# --- forward oracles ---------------------------------------------------------

def test_matmul_identity():
    a = t64(np.eye(2))
    b = t64([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(ops.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_hand_scalar():
    out = ops.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
    np.testing.assert_allclose(out.data, [[11.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"2.*3"):
        ops.matmul(t64(np.zeros((1, 2))), t64(np.zeros((3, 1))))


def test_matmul_batched_matches_per_matrix_loop():
    """Stacks of blocks are written as a loop of 2-D products: matmul and
    matmul_t refuse them, since attention is one op of its own."""
    rng = np.random.default_rng(4)
    a, b, c = rand64(rng, 2, 3, 4, 5), rand64(rng, 2, 3, 5, 6), rand64(rng, 2, 3, 6, 5)
    for i in range(2):
        for j in range(3):
            ai = Tensor(a.data[i, j])
            np.testing.assert_array_equal(ops.matmul(ai, Tensor(b.data[i, j])).data,
                                          a.data[i, j] @ b.data[i, j])
            np.testing.assert_array_equal(ops.matmul_t(ai, Tensor(c.data[i, j])).data,
                                          a.data[i, j] @ c.data[i, j].T)
    with pytest.raises(DimensionError, match="matmul"):
        ops.matmul(a, b)
    with pytest.raises(DimensionError, match="matmul_t"):
        ops.matmul_t(a, c)
    with pytest.raises(DimensionError, match="matmul"):
        ops.matmul(a, rand64(rng, 5, 6))


def test_matmul_stack_of_rows_is_each_row_alone():
    """A stack of single rows times one weight: each row is the bits of its
    lone 2-D product, whatever the stack's size; a stack of longer blocks
    against one weight is still refused."""
    rng = np.random.default_rng(6)
    w = Tensor(rng.standard_normal((64, 256)).astype(np.float32))
    rows = rng.standard_normal((16, 1, 64)).astype(np.float32)
    for size in (1, 2, 5, 16):
        out = ops.matmul(Tensor(rows[:size]), w).data
        assert out.shape == (size, 1, 256)
        for i in range(size):
            np.testing.assert_array_equal(out[i], rows[i] @ w.data)
    with pytest.raises(DimensionError, match="matmul"):
        ops.matmul(Tensor(rows.reshape(8, 2, 64)), w)


def _attention_chain(q, k, v, g, heads, r, query_rows):
    """Attention as a chain of single ops, in plain numpy: split heads (each
    a contiguous copy, as a tensor makes it), q @ k^T, scale, add the causal
    mask, softmax, @ v, merge heads; then the chain's backward from the
    output gradient g. Returns the output and the q, k, v gradients."""
    n, d = k.shape
    b, dh = n // r, d // heads
    c = 1.0 / math.sqrt(dh)

    def split(t):
        return np.ascontiguousarray(t.reshape(b, r, heads, dh).transpose(0, 2, 1, 3))

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(n, d)

    mask = np.triu(np.full((r, r), -np.inf, dtype=q.dtype), k=1)
    k4, v4 = split(k), split(v)
    if query_rows is None:
        q4, g4, merge_q = split(q), split(g), merge
    else:  # one query row per sequence: the head split and merge are reshapes
        q4, g4 = q.reshape(b, heads, 1, dh), g.reshape(b, heads, 1, dh)
        merge_q = lambda t: t.reshape(b, 1, d)  # noqa: E731
        mask = mask[query_rows].reshape(b, 1, 1, r)
    masked = (q4 @ k4.swapaxes(-1, -2)) * c + mask
    e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gp = g4 @ v4.swapaxes(-1, -2)
    gs = p * (gp - (p * gp).sum(axis=-1, keepdims=True)) * c
    return (merge_q(p @ v4), merge_q(gs @ k4), merge(gs.swapaxes(-1, -2) @ q4),
            merge(p.swapaxes(-1, -2) @ g4))


@pytest.mark.parametrize("rows", [False, True], ids=["full", "last_row"])
def test_attention_is_bitwise_the_chain_of_single_ops(rows):
    """At the pretrain shape (32 sequences of 33 rows, 2 heads, d 64) in
    float32, the output and the three input gradients are the chain's bits."""
    rng = np.random.default_rng(11)
    b, r, d, heads = 32, 33, 64, 2
    query_rows = rng.integers(0, r, size=b) if rows else None
    q_shape = (b, 1, d) if rows else (b * r, d)
    q, k, v = (rng.standard_normal(s).astype(np.float32) for s in (q_shape, (b * r, d), (b * r, d)))
    g = rng.standard_normal(q_shape).astype(np.float32)
    tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
    with GradTape() as tape:
        out = ops.attention(tq, tk, tv, heads, r, query_rows)
        tape.backward(verify.weighted_sum(out, Tensor(g)))
    want = _attention_chain(q, k, v, g, heads, r, query_rows)
    for got, w in zip((out.data, tq.grad, tk.grad, tv.grad), want):
        assert got.dtype == np.float32 and got.shape == w.shape
        np.testing.assert_array_equal(got, w)


def test_attention_shape_errors():
    x = Tensor(np.zeros((6, 8)))
    with pytest.raises(DimensionError, match="sequences"):
        ops.attention(x, x, x, 2, 4)
    with pytest.raises(DimensionError, match="queries"):
        ops.attention(Tensor(np.zeros((2, 1, 8))), x, x, 2, 3)
    with pytest.raises(DimensionError, match="query_rows"):
        ops.attention(Tensor(np.zeros((2, 1, 8))), x, x, 2, 3, np.array([0, 3]))


def test_softmax_ce_uniform_logits():
    logits = t64(np.zeros((4, 3)))
    loss = ops.softmax_ce(logits, np.array([0, 1, 2, 0]))
    assert abs(loss.item() - math.log(3)) < 1e-12


def test_softmax_ce_peaked_logit():
    loss = ops.softmax_ce(t64([[10.0, 0.0, 0.0]]), np.array([0]))
    expect = -math.log(math.exp(10) / (math.exp(10) + 2))
    assert abs(loss.item() - expect) < 1e-12
    assert loss.item() < 1e-4


def test_softmax_ce_target_out_of_range():
    with pytest.raises(IndexError):
        ops.softmax_ce(t64(np.zeros((1, 3))), np.array([3]))


def test_layer_norm_constant_vector_is_zero_before_affine():
    x = t64(np.full((2, 6), 3.7))
    g = t64(np.ones(6))
    b = t64(np.zeros(6))
    np.testing.assert_allclose(ops.layer_norm(x, g, b).data, 0.0, atol=1e-6)


def test_relu_forward():
    x = t64([[-1.0, 0.0, 2.0]])
    np.testing.assert_allclose(ops.relu(x).data, [[0.0, 0.0, 2.0]])


def test_dropout_identity_cases():
    x = t64(np.arange(12.0).reshape(3, 4))
    assert ops.dropout(x, 0.0, np.random.default_rng(0)) is x
    assert ops.dropout(x, 0.5, None) is x


def test_dropout_mask_seed_behaviour():
    x = t64(np.ones((8, 8)))
    a = ops.dropout(x, 0.5, np.random.default_rng(3)).data
    b = ops.dropout(x, 0.5, np.random.default_rng(3)).data
    c = ops.dropout(x, 0.5, np.random.default_rng(4)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    survivors = a[a != 0]
    np.testing.assert_allclose(survivors, 2.0)  # rescaled by 1/(1-p)


def test_dropout_rejects_p_one():
    with pytest.raises(ValueError):
        ops.dropout(t64(np.ones(3)), 1.0, np.random.default_rng(0))


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(0)
    x = rand64(rng, 6, 3)
    kernels = t64(np.eye(3)[None, :, :])  # K=1, C=F=3
    np.testing.assert_allclose(ops.conv1d(x, kernels).data, x.data, atol=1e-12)


def test_conv1d_difference_kernel_matches_row_diff():
    rng = np.random.default_rng(1)
    x = rand64(rng, 9, 1)
    kernels = t64(np.array([[[-1.0]], [[1.0]]]))  # [1,-1] over time: x[t+1]-x[t]
    got = ops.conv1d(x, kernels).data
    np.testing.assert_allclose(got, ops.row_diff(x).data, atol=1e-6)


def test_conv1d_too_short():
    with pytest.raises(DimensionError):
        ops.conv1d(t64(np.zeros((2, 1))), t64(np.zeros((3, 1, 1))))


def test_conv1d_translation_covariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 2))
    k = rand64(rng, 3, 2, 4)
    base = ops.conv1d(t64(x), k).data
    shifted = ops.conv1d(t64(np.roll(x, 2, axis=0)), k).data
    np.testing.assert_allclose(shifted[2:], base[:-2], atol=1e-10)


def test_max_over_time_forward():
    x = t64([[1.0, -5.0], [3.0, -1.0], [2.0, -9.0]])
    np.testing.assert_allclose(ops.max_over_time(x).data, [3.0, -1.0])


def test_conv1d_batched_matches_tap_sum_oracle():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 9, 2))
    k, b = rng.standard_normal((3, 2, 4)), rng.standard_normal(4)
    got = ops.conv1d(t64(x), t64(k), t64(b)).data
    assert got.shape == (3, 7, 4)
    want = np.array([[sum(x[n, t + j] @ k[j] for j in range(3)) + b for t in range(7)]
                     for n in range(3)])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    for n in range(3):  # each sequence alone, through the 2-D form
        np.testing.assert_allclose(got[n], ops.conv1d(t64(x[n]), t64(k), t64(b)).data,
                                   rtol=0, atol=1e-12)


def test_max_over_time_batched_forward_ties_to_earliest():
    x = t64([[[1.0, 2.0], [3.0, 2.0], [3.0, 0.0]],
             [[0.0, -1.0], [0.0, -2.0], [-1.0, -3.0]]])
    with GradTape() as tape:
        out = ops.max_over_time(x)
        tape.backward(sum_of(out))
    np.testing.assert_array_equal(out.data, [[3.0, 2.0], [0.0, -1.0]])
    np.testing.assert_array_equal(x.grad, [[[0, 1], [1, 0], [0, 0]],
                                           [[1, 1], [0, 0], [0, 0]]])


def test_row_diff_batched_forward():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 5, 3))
    np.testing.assert_array_equal(ops.row_diff(t64(x)).data, x[:, 1:] - x[:, :-1])
    with pytest.raises(DimensionError, match="at least 2 rows"):
        ops.row_diff(t64(np.ones((3, 1, 4))))


def test_take_rows_index_matrix_gives_a_block():
    x = t64(np.arange(12.0).reshape(6, 2))
    out = ops.take_rows(x, np.array([[1, 2], [4, 5]])).data
    np.testing.assert_array_equal(out, [[[2, 3], [4, 5]], [[8, 9], [10, 11]]])


@pytest.mark.parametrize("table_shape,idx", [
    ((33, 64), np.tile(np.arange(33), 32)),           # 1-D, repeats: the pos table
    ((6, 3), np.array([[1, 2, 3], [3, 4, 5]])),        # 2-D index: a [2, 3] block
    ((9, 4), np.array([[8], [0], [8], [3], [8]])),     # [B, 1] over [N, d] rows
    ((7,), np.array([1, 1, 3, 6, 1])),                 # a 1-D table
], ids=["1d_repeats", "2d", "b_by_1", "1d_table"])
def test_flat_scatter_is_bitwise_np_add_at(table_shape, idx):
    rng = np.random.default_rng(12)
    table = Tensor(rng.standard_normal(table_shape).astype(np.float32), requires_grad=True)
    values = rng.standard_normal(idx.shape + table_shape[1:]).astype(np.float32)
    with GradTape() as tape:
        tape.backward(verify.weighted_sum(ops.take_rows(table, idx), Tensor(values)))
    want = np.zeros_like(table.data)
    np.add.at(want, idx, values)
    assert table.grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(32, 33, 64), (1, 5, 3), (17, 9, 2), (40, 3, 1)],
                         ids=["pretrain", "one_sequence", "narrow", "one_column"])
def test_sequence_rows_gradients_are_a_loop_over_the_batch(shape):
    """The bos and pos gradients are the bits of adding each sequence's
    gradient rows to zeros in batch order, as the gather of one bos row and
    of a tiled pos table summed them; the events get their rows' gradient."""
    rng = np.random.default_rng(13)
    b, r, d = shape
    events, bos, pos = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                        for s in ((b, r - 1, d), (d,), (r, d)))
    g = rng.standard_normal((b * r, d)).astype(np.float32)
    with GradTape() as tape:
        out = ops.sequence_rows(events, bos, pos)
        tape.backward(verify.weighted_sum(out, Tensor(g)))
    g = g.reshape(b, r, d)
    want_bos, want_pos = np.zeros(d, np.float32), np.zeros((r, d), np.float32)
    for i in range(b):
        want_bos += g[i, 0]
        want_pos += g[i]
    assert bos.grad.tobytes() == want_bos.tobytes()
    assert pos.grad.tobytes() == want_pos.tobytes()
    assert events.grad.tobytes() == np.ascontiguousarray(g[:, 1:]).tobytes()


def test_sequence_rows_refuses_bos_and_pos_of_the_wrong_shape():
    events = t64(np.zeros((2, 3, 4)))
    bos, pos = t64(np.zeros(4)), t64(np.zeros((4, 4)))
    assert ops.sequence_rows(events, bos, pos).shape == (8, 4)
    # A pos of one row per column would broadcast over every position.
    for bad in ((events, bos, t64(np.zeros(4))), (events, bos, t64(np.zeros((3, 4)))),
                (events, t64(np.zeros((1, 4))), pos), (t64(np.zeros((6, 4))), bos, pos)):
        with pytest.raises(DimensionError, match="sequence_rows"):
            ops.sequence_rows(*bad)


def test_softmax_rows_sums_to_one():
    rng = np.random.default_rng(3)
    p = ops.softmax_rows(rand64(rng, 5, 7)).data
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()


def test_normalize_rows_unit_norm():
    rng = np.random.default_rng(4)
    out = ops.normalize_rows(rand64(rng, 6, 5)).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


# --- gradients ---------------------------------------------------------------

def test_fanout_accumulates_both_paths():
    x = t64([2.0, -1.0, 3.0])
    with GradTape() as tape:
        y = ops.add(x, x)  # y = 2x; dy/dx = 2 per use
        loss = sum_of(y)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0)
    # Backward frees each record and each op output's gradient as it goes.
    assert len(tape) == 0
    assert y.grad is None and loss.grad is None


@pytest.mark.parametrize("total", [
    lambda a, b, c: ops.add(ops.add(a, b), a),
    lambda a, b, c: ops.add_n([ops.add_n([a, b, c]), a]),
], ids=["add", "add_n"])
def test_fanout_inputs_get_gradients_of_their_own(total):
    # add and add_n hand one g to every input; a, fed twice, gets a second
    # contribution added in place, which must not reach b or c.
    a, b, c = (t64(np.zeros(3)) for _ in range(3))
    with GradTape() as tape:
        tape.backward(sum_of(total(a, b, c)))
    np.testing.assert_array_equal(a.grad, 2.0)
    np.testing.assert_array_equal(b.grad, 1.0)
    grads = [t.grad for t in (a, b, c) if t.grad is not None]
    assert not any(np.shares_memory(x, y) for i, x in enumerate(grads) for y in grads[i + 1:])


def test_second_backward_on_a_consumed_tape_raises():
    x = t64([2.0, -1.0, 3.0])
    with GradTape() as tape:
        loss = sum_of(ops.add(x, x))
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="tape already consumed"):
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0)


@pytest.mark.parametrize("shapes", [((6, 4), (4, 5))], ids=["2d"])
def test_matmul_bias_is_bitwise_matmul_then_add(shapes):
    rng = np.random.default_rng(8)
    a_shape, w_shape = shapes
    arrays = [rng.standard_normal(s).astype(np.float32)
              for s in (a_shape, w_shape, w_shape[-1:], a_shape[:-1] + w_shape[-1:])]

    a, w, bias = (Tensor(arr, requires_grad=True) for arr in arrays[:3])
    with GradTape() as tape:
        out = ops.matmul(a, w, bias)
        tape.backward(verify.weighted_sum(out, Tensor(arrays[3])))
    # The unfused reference: the matmul, then the bias add and its gradients.
    g = arrays[3]
    want = (arrays[0] @ arrays[1] + arrays[2], g @ arrays[1].swapaxes(-1, -2),
            arrays[0].swapaxes(-1, -2) @ g, g.reshape(-1, g.shape[-1]).sum(axis=0))
    assert out.data.dtype == np.float32
    for got_arr, want_arr in zip((out.data, a.grad, w.grad, bias.grad), want):
        np.testing.assert_array_equal(got_arr, want_arr)
    with pytest.raises(DimensionError, match="bias"):
        ops.matmul(t64(np.ones((2, 3))), t64(np.ones((3, 4))), t64(np.ones(3)))
    with pytest.raises(DimensionError, match="add"):  # a bias goes to matmul, not add
        ops.add(t64(np.ones((2, 4))), t64(np.ones(4)))


def test_backward_rejects_non_scalar():
    x = t64(np.ones(3))
    with GradTape() as tape:
        y = ops.relu(x)
        with pytest.raises(DimensionError):
            tape.backward(y)


def test_nested_tapes_rejected():
    with GradTape():
        with pytest.raises(RuntimeError):
            with GradTape():
                pass


@pytest.fixture(scope="module")
def suite_errors():
    """verify.CHECKS's max relative errors at seed 0, as gradcheck prints them."""
    return dict(verify.gradient_suite(0))


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_gradients_match_finite_differences(suite_errors, name):
    assert suite_errors[name] < verify.TOLERANCE, f"{name}: max rel err {suite_errors[name]:.3e}"


def checked_op(name):
    """The op a check ``op`` or ``op_<form>`` checks: the longest such op
    name, so that ``add_n`` checks add_n and not add."""
    ops_named = [op for op in ops.__all__ if name == op or name.startswith(op + "_")]
    return max(ops_named, key=len, default=None)


def test_every_op_has_a_finite_difference_check():
    checked = {checked_op(name) for name in verify.CHECKS}
    missing = [op for op in ops.__all__ if op not in checked]
    assert not missing, f"ops without a verify.CHECKS entry: {missing}"


def test_numerics_exports_every_op():
    from fraudformer import numerics
    assert set(ops.__all__) <= set(numerics.__all__)
    assert all(getattr(numerics, name) is getattr(ops, name) for name in ops.__all__)


def test_backward_skips_constants_and_scatters_onto_a_held_gradient():
    rng = np.random.default_rng(4)
    table = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
    h, w_rows, w_tied = (Tensor(rng.standard_normal(s).astype(np.float32))
                         for s in ((4, 3), (6, 3), (4, 5)))
    idx = np.array([1, 3, 1, 0, 3, 1])  # repeated rows
    with GradTape() as tape:
        rows = ops.take_rows(table, idx)  # recorded first, so its scatter runs last
        tied = ops.matmul_t(h, table)     # the tied decoder's part lands first
        tape.backward(ops.add(verify.weighted_sum(rows, w_rows),
                              verify.weighted_sum(tied, w_tied)))
    # Constant inputs get no gradient.
    assert all(t.grad is None for t in (h, w_rows, w_tied))
    # The tied part is adopted; the rows, scattered into zeros, are added to it.
    scattered = np.zeros_like(table.data)
    np.add.at(scattered, idx, w_rows.data)
    np.testing.assert_array_equal(table.grad, w_tied.data.T @ h.data + scattered)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_matmul_gradient_property(seed):
    rng = np.random.default_rng(seed)
    a, b = rand64(rng, 2, 3), rand64(rng, 3, 2)
    err = grad_check(lambda: sum_of(ops.matmul(a, b)), [a, b],
                     np.random.default_rng(seed), n_probes=6)
    assert err < 1e-4


# --- optimizer ---------------------------------------------------------------

def _adam_with_grads(lr, **grads):
    """An Adam over one float64 parameter per keyword, each starting at 1 and
    holding the given gradient."""
    params = {name: Tensor(np.ones(np.shape(g)), requires_grad=True) for name, g in grads.items()}
    for name, g in grads.items():
        params[name].grad = np.array(g, dtype=np.float64)
    return Adam(params, lr=lr), params


def test_adam_zero_gradient_leaves_param():
    opt, params = _adam_with_grads(1e-3, w=np.zeros(2))
    opt.step()
    np.testing.assert_array_equal(params["w"].data, [1.0, 1.0])


def test_adam_first_step_magnitude():
    # g=1: mhat=1, vhat=1 after bias correction, so the step is ~lr.
    opt, params = _adam_with_grads(1e-3, w=np.ones(1))
    opt.step()
    assert abs(params["w"].data[0] - (1.0 - 1e-3)) < 1e-8


def test_adam_non_finite_gradient_names_param():
    opt, _ = _adam_with_grads(1e-3, w1=np.array([np.nan, 0.0]))
    with pytest.raises(NonFiniteGradientError, match="w1"):
        opt.step()


def test_adam_steps_all_parameters_or_none():
    # "a" sorts before "b": its update must not run when b's gradient is bad.
    opt, params = _adam_with_grads(0.1, a=np.ones(1), b=np.array([np.nan, 0.0]))
    with pytest.raises(NonFiniteGradientError, match="'b'"):
        opt.step()
    for p in params.values():
        np.testing.assert_array_equal(p.data, np.ones_like(p.data))
    assert opt.t == 0
    for moments in (opt.m, opt.v):
        assert all(not m.any() for m in moments.values())


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(11)
        params = {"w": Tensor(rng.standard_normal(4), requires_grad=True)}
        opt = Adam(params, lr=0.01)
        for _ in range(5):
            params["w"].grad = rng.standard_normal(4)
            opt.step()
            opt.zero_grad()
        return params["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


def test_train_steps_builds_a_fresh_tape_each_step():
    from fraudformer.parallel import train_steps
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"w": w}, lr=0.1)
    # Both factors are w, so the gradient is 2w.
    squares = lambda step, shard, leaves: (verify.weighted_sum(leaves["w"], leaves["w"]), 0)
    assert train_steps(opt, 1, squares, shards=1) == [(5.0, 0)]
    assert opt.t == 1 and w.grad is None
    # A first Adam step moves each entry by about lr against its gradient.
    np.testing.assert_allclose(w.data, [0.9, -1.9], atol=1e-6)
    before = w.data.copy()
    with pytest.raises(RuntimeError, match="non-finite loss at step 1"):
        train_steps(opt, 1, lambda step, shard, leaves: (ops.scale(sum_of(leaves["w"]), np.inf), 0),
                    shards=1)
    np.testing.assert_array_equal(w.data, before)
    assert opt.t == 1


def test_adam_lr_mult_zero_freezes_named_param():
    rng = np.random.default_rng(12)
    params = {"backbone.w": Tensor(rng.standard_normal(3), requires_grad=True),
              "head.w": Tensor(rng.standard_normal(3), requires_grad=True)}
    before = params["backbone.w"].data.copy()
    # Names match exactly: the "head" entry is no prefix of "head.w".
    opt = Adam(params, lr=0.1, lr_mult={"backbone.w": 0.0, "head": 0.0})
    for p in params.values():
        p.grad = np.ones_like(p.data)
    opt.step()
    np.testing.assert_array_equal(params["backbone.w"].data, before)
    assert not np.array_equal(params["head.w"].data, before)


def test_gradcheck_command_lists_the_batched_attention_ops(capsys):
    from fraudformer.cli import run_subcommand
    assert run_subcommand(["gradcheck"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    # one line per check, the attention and anomaly-head forms among them
    assert listed == list(verify.CHECKS)
