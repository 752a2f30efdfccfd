import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dhtfed import model
from dhtfed.model import (PENALTIES, LocalDataset, ModelParams, deserialize_params,
                          draw_minibatches, forward_batch, forward_heads,
                          local_finetune, param_nbytes, pfl_grad, pfl_loss, serialize_params)
from dhtfed.harness import TopicSpec, _write_points

from conftest import draw_rows, finetune_datasets
from oracles import (central_difference, finetune_reference, floyd_reference,
                     loss_reference, points_reference)

H = 5


def rand_params(rng, h=H):
    return ModelParams(rng.normal(size=(2, h)), rng.normal(size=2))


def rand_data(rng, n=12, h=H):
    return LocalDataset(rng.normal(size=(n, h)), rng.integers(0, 2, size=n))


# -- forward ---------------------------------------------------------------------

def test_zero_weights_give_uniform_probabilities():
    p = ModelParams.zeros(H)
    rng = np.random.default_rng(0)
    out = forward_batch(rng.normal(size=(20, H)), p)
    assert np.array_equal(out, np.full((20, 2), 0.5))


def test_probabilities_form_a_simplex_point():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10_000, H)) * 10
    params = rand_params(rng)
    probs = forward_batch(x, params)
    assert np.all(probs >= 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12


def test_forward_matches_closed_form_logits():
    p = ModelParams(np.array([[2.0] + [0.0] * (H - 1), [0.0] * H]), np.zeros(2))
    x = np.zeros(H)
    x[0] = 1.0
    out = forward_batch(x[None], p)[0]
    e2 = np.exp(2.0)
    assert out == pytest.approx([e2 / (e2 + 1), 1 / (e2 + 1)], abs=1e-12)


def test_forward_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        forward_batch(np.zeros(H), ModelParams.zeros(H))  # one row, not a batch
    with pytest.raises(ValueError):
        forward_batch(np.zeros((3, H + 2)), ModelParams.zeros(H))


# -- loss --------------------------------------------------------------------------

def test_lambda_zero_reduces_to_cross_entropy_bitwise():
    rng = np.random.default_rng(2)
    data = rand_data(rng)
    w = rand_params(rng)
    probs = forward_batch(data.x, w)
    ce = -float(np.mean(np.log(probs[np.arange(len(data)), data.y])))
    assert pfl_loss(data, w, rand_params(rng), 0.0) == ce


def test_equal_personal_and_global_weights_zero_the_penalty():
    rng = np.random.default_rng(3)
    data = rand_data(rng)
    w = rand_params(rng)
    w_per = ModelParams(w.w.copy(), w.b.copy())
    assert pfl_loss(data, w, w_per, 7.3) == pfl_loss(data, w, w_per, 0.0)


def test_zero_weights_balanced_data_loss_is_ln2():
    rng = np.random.default_rng(4)
    data = LocalDataset(rng.normal(size=(40, H)), np.array([0, 1] * 20))
    loss = pfl_loss(data, ModelParams.zeros(H), ModelParams.zeros(H), 0.5)
    assert loss == pytest.approx(np.log(2), abs=1e-15)


def test_loss_is_shuffle_invariant():
    rng = np.random.default_rng(5)
    data = rand_data(rng, n=50)
    w = rand_params(rng)
    w_per = rand_params(rng)
    base = pfl_loss(data, w, w_per, 0.4)
    for _ in range(5):
        perm = rng.permutation(len(data))
        shuffled = LocalDataset(data.x[perm], data.y[perm])
        assert pfl_loss(shuffled, w, w_per, 0.4) == pytest.approx(base, abs=1e-12)


def test_empty_dataset_rejected():
    w = ModelParams.zeros(H)
    empty = LocalDataset(np.zeros((0, H)), np.zeros(0, dtype=int))  # accepted
    assert len(empty) == 0
    with pytest.raises(ValueError):
        pfl_loss(empty, w, ModelParams.zeros(H), 0.5)
    with pytest.raises(ValueError):
        pfl_grad(empty, w, ModelParams.zeros(H), 0.5)


def test_loss_rejects_an_unknown_penalty():
    rng = np.random.default_rng(24)
    with pytest.raises(ValueError, match="unknown penalty 'cubic'"):
        pfl_loss(rand_data(rng), rand_params(rng), rand_params(rng), 0.5, "cubic")


@settings(deadline=None)  # examples from the active profile; CI runs "model-2000"
@given(n=st.one_of(st.sampled_from([1, 2, 7]), st.integers(1, 60)),
       seed=st.integers(0, 2**32 - 1),
       x_scale=st.sampled_from([1.0, 1e-3, 1e50, 1e150]), tied=st.booleans(),
       zero_pull=st.booleans(),
       lam=st.one_of(st.just(0.0), st.floats(0.0, 2.0)), penalty=st.sampled_from(PENALTIES))
def test_round_loss_matches_the_per_leaf_formula(n, seed, x_scale, tied, zero_pull, lam,
                                                 penalty):
    """pfl_loss, which the round loss averages over the leaves, equals
    loss_reference bit for bit: n=1, tied logits (equal rows of w_cla), a
    personal head equal to w_cla (the norm's kink) and |x| up to 1e150,
    where a label's probability underflows to 0 and the loss is inf."""
    rng = np.random.default_rng(seed)
    w = rand_params(rng)
    if tied:
        w = ModelParams(w.w[[0, 0]], w.b[[0, 0]])
    data = LocalDataset(rng.normal(size=(n, H)) * x_scale, rng.integers(0, 2, size=n))
    head = w + rand_params(rng) * rng.uniform(0.0, 3.0)
    if zero_pull:
        head = ModelParams(w.w.copy(), w.b.copy())
    with np.errstate(divide="ignore"):  # log(0) where a probability underflows
        got = pfl_loss(data, w, head, lam, penalty)
        want = loss_reference(data, w, head, lam, penalty)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("labels", [[0, 2], [-1, 1]])
def test_non_binary_labels_rejected(labels):
    with pytest.raises(ValueError, match="binary"):
        LocalDataset(np.zeros((2, H)), np.array(labels))


def test_nonfinite_parameters_rejected():
    with pytest.raises(ValueError):
        ModelParams(np.full((2, H), np.nan), np.zeros(2))
    with pytest.raises(ValueError):
        LocalDataset(np.full((3, H), np.inf), np.zeros(3, dtype=int))


# -- gradients ----------------------------------------------------------------------

def _fd_check(penalty, lam, seed, trials=20, tol=1e-5):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        data = rand_data(rng)
        w = rand_params(rng)
        w_per = rand_params(rng)
        g_cla, g_per = pfl_grad(data, w, w_per, lam, penalty)
        fd = central_difference(
            lambda: pfl_loss(data, w, w_per, lam, penalty),
            [w.w, w.b, w_per.w, w_per.b])
        analytic = np.concatenate([g_cla.w.ravel(), g_cla.b,
                                   g_per.w.ravel(), g_per.b])
        numeric = np.concatenate([fd[0].ravel(), fd[1], fd[2].ravel(), fd[3]])
        rel = (np.linalg.norm(analytic - numeric)
               / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12))
        worst = max(worst, rel)
    assert worst <= tol, worst


def test_gradients_match_central_differences():
    _fd_check("squared", lam=0.7, seed=6)


def test_unsquared_penalty_gradients_match_central_differences():
    _fd_check("norm", lam=0.9, seed=7)


def test_unsquared_penalty_subgradient_zero_at_kink():
    rng = np.random.default_rng(8)
    data = rand_data(rng)
    w = rand_params(rng)
    w_per = ModelParams(w.w.copy(), w.b.copy())
    g_cla, g_per = pfl_grad(data, w, w_per, 2.0, penalty="norm")
    assert np.array_equal(g_per.w, np.zeros((2, H)))
    assert np.array_equal(g_per.b, np.zeros(2))
    g_plain, _ = pfl_grad(data, w, w_per, 0.0)
    assert np.array_equal(g_cla.w, g_plain.w)


def test_lambda_zero_gives_zero_personal_gradient():
    rng = np.random.default_rng(9)
    data = rand_data(rng)
    _g_cla, g_per = pfl_grad(data, rand_params(rng), rand_params(rng), 0.0)
    assert np.array_equal(g_per.w, np.zeros((2, H)))
    assert np.array_equal(g_per.b, np.zeros(2))


def test_bias_gradient_vanishes_at_symmetric_optimum():
    rng = np.random.default_rng(10)
    data = LocalDataset(rng.normal(size=(30, H)), np.array([0, 1] * 15))
    g_cla, _ = pfl_grad(data, ModelParams.zeros(H), ModelParams.zeros(H), 0.0)
    assert np.array_equal(g_cla.b, np.zeros(2))


# -- local fine-tuning -----------------------------------------------------------------

def test_zero_step_size_is_a_null_update():
    rng = np.random.default_rng(11)
    data = rand_data(rng)
    w = rand_params(rng)
    w_per = rand_params(rng)
    [(delta, new_per)] = finetune_datasets([data], w, [w_per], 0.5, 0.0, steps=5, batch=6,
                                        keys=[(0,)])
    assert np.array_equal(delta.w, np.zeros((2, H)))
    assert np.array_equal(delta.b, np.zeros(2))
    assert np.array_equal(new_per.w, w_per.w)


def test_single_full_batch_step_equals_analytic_gradient_exactly():
    rng = np.random.default_rng(12)
    data = rand_data(rng)
    w = rand_params(rng)
    w_per = rand_params(rng)
    g_cla, _ = pfl_grad(data, w, w_per, 0.3)
    [(delta, _)] = finetune_datasets([data], w, [w_per], 0.3, 0.05, steps=1,
                                  batch=len(data), keys=[(0,)])
    assert np.array_equal(delta.w, 0.05 * g_cla.w)
    assert np.array_equal(delta.b, 0.05 * g_cla.b)


def test_training_reduces_loss_on_separable_data():
    rng = np.random.default_rng(13)
    n = 200
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, H)) + np.where(y[:, None] == 1, 2.0, -2.0) * np.eye(H)[0]
    data = LocalDataset(x, y)
    w0 = ModelParams.zeros(H)
    before = pfl_loss(data, w0, ModelParams.zeros(H), 0.1)
    [(delta, w_per)] = finetune_datasets([data], w0, [ModelParams.zeros(H)], 0.1, 0.2,
                                      steps=200, batch=32, keys=[(1,)])
    after = pfl_loss(data, w0 - delta, w_per, 0.1)
    assert after < before


def test_proximal_pull_decays_geometrically():
    # Hold the shared head fixed and iterate only the personal update: the
    # gap must shrink by exactly (1 - eta * lambda) per step.
    rng = np.random.default_rng(14)
    w = rand_params(rng)
    lam, eta = 0.5, 0.2
    w_per = rand_params(rng)
    data = rand_data(rng)
    gaps = []
    for _ in range(10):
        diff = w_per - w
        gaps.append(np.sqrt(np.sum(diff.w * diff.w) + np.sum(diff.b * diff.b)))
        _g_cla, g_per = pfl_grad(data, w, w_per, lam)
        w_per = w_per - eta * g_per
    ratio = 1.0 - eta * lam
    for before, after in zip(gaps, gaps[1:]):
        assert after == pytest.approx(ratio * before, rel=1e-12)


def test_finetune_is_deterministic_per_seed():
    rng = np.random.default_rng(15)
    data = rand_data(rng, n=64)
    w = rand_params(rng)
    w_per = rand_params(rng)

    def run(seed):
        [result] = finetune_datasets([data], w, [w_per], 0.4, 0.1, steps=20, batch=16,
                                  keys=[(seed,)])
        return result

    d1, p1 = run(77)
    d2, p2 = run(77)
    d3, _ = run(78)
    assert np.array_equal(d1.w, d2.w) and np.array_equal(d1.b, d2.b)
    assert np.array_equal(p1.w, p2.w)
    assert not np.array_equal(d1.w, d3.w)


def test_finetune_validates_arguments():
    rng = np.random.default_rng(16)
    x, y = rng.normal(size=(2, 4, H)), rng.integers(0, 2, size=(2, 4))
    w = rand_params(rng)
    w_per, b_per = rng.normal(size=(2, 2, H)), rng.normal(size=(2, 2))
    before = [a.copy() for a in (x, y, w_per, b_per)]

    def call(rows=(0, 1), heads=(w_per, b_per), steps=1, batch=2, seeds=None, **kw):
        rows = np.array(rows, dtype=np.intp)
        if seeds is None:
            seeds = model._fold_keys([(i,) for i in range(len(rows))])
        return local_finetune(x, y, rows, w, *heads, 0.5, 0.1, steps, batch, seeds, **kw)

    with pytest.raises(ValueError, match="steps"):
        call(steps=0)
    with pytest.raises(ValueError, match="batch"):
        call(batch=5)
    with pytest.raises(ValueError, match="batch"):
        call(batch=0)
    with pytest.raises(ValueError, match="penalty"):
        call(penalty="cubic")
    with pytest.raises(ValueError, match="one seed per leaf"):
        call(seeds=model._fold_keys([(0,)]))
    with pytest.raises(ValueError, match="rows"):  # a row past the last node's
        call(rows=(0, 2))
    with pytest.raises(ValueError, match="rows"):
        call(rows=(-1, 0))
    with pytest.raises(ValueError, match="one personal head"):
        call(heads=(w_per[:1], b_per[:1]))
    d_w, d_b, p_w, p_b = call(rows=())
    assert d_w.shape == p_w.shape == (0, 2, H) and d_b.shape == p_b.shape == (0, 2)
    call(steps=3)
    for a, b in zip((x, y, w_per, b_per), before):  # the inputs are left as they are
        assert np.array_equal(a, b)


def _leaf_round(rng, sizes):
    """Datasets of the given sizes with a personal head each."""
    return [rand_data(rng, n=n) for n in sizes], [rand_params(rng) for _ in sizes]


def rows_of(data, batch, steps, key):
    """The minibatch rows local_finetune draws for one leaf, drawn alone."""
    return draw_rows(len(data), batch, steps, key)


@pytest.mark.parametrize("penalty", ["squared", "norm"])
def test_finetune_matches_the_params_level_step_rule_bit_for_bit(penalty):
    # Leaves above, at and below the batch size of 8 share one call, as in
    # a round: the session caps each leaf's batch at its dataset size. A
    # zero proximal weight is a case of its own.
    rng = np.random.default_rng(19)
    sizes = [40, 8, 5, 23, 8, 40, 1, 9]
    datas, heads = _leaf_round(rng, sizes)
    w_start = rand_params(rng)
    batches = [min(8, n) for n in sizes]
    starts = [ModelParams(p.w.copy(), p.b.copy()) for p in heads]
    for lam, eta in [(1.3, 0.07), (0.0, 0.2)]:
        got = finetune_datasets(datas, w_start, heads, lam, eta, 12, batches,
                             [(5, i) for i in range(len(sizes))], penalty)
        for i, (data, head) in enumerate(zip(datas, heads)):
            want_delta, want_per = finetune_reference(
                data, w_start, head, lam, eta, 12, rows_of(data, batches[i], 12, (5, i)),
                penalty)
            delta, w_per = got[i]
            assert np.array_equal(delta.w, want_delta.w), (lam, i)
            assert np.array_equal(delta.b, want_delta.b), (lam, i)
            assert np.array_equal(w_per.w, want_per.w), (lam, i)
            assert np.array_equal(w_per.b, want_per.b), (lam, i)
            # the caller's head is untouched
            assert np.array_equal(head.w, starts[i].w)
            assert np.array_equal(head.b, starts[i].b)


@settings(deadline=None)  # examples from the active profile; CI runs "model-2000"
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(32, 64),
       big=st.integers(4, 8), small=st.integers(0, 3), steps=st.integers(5, 8),
       penalty=st.sampled_from(PENALTIES))
def test_finetune_across_gather_blocks_matches_the_reference(seed, batch, big, small,
                                                           steps, penalty):
    """A stack whose minibatch rows span two or more gather blocks steps
    like one leaf at a time. Leaf 0's batch is its whole dataset, so it
    draws nothing; leaves smaller than the batch make stacks of their own."""
    hidden = 256
    rng = np.random.default_rng(seed)
    sizes = ([batch] + rng.integers(batch, 3 * batch, size=big - 1).tolist()
             + rng.integers(1, batch, size=small).tolist())
    batches = [min(batch, n) for n in sizes]
    assert steps * 8 * big * batch * hidden > model.GATHER_BYTES  # two blocks or more
    datas = [rand_data(rng, n=n, h=hidden) for n in sizes]
    heads = [rand_params(rng, hidden) for _ in sizes]
    lam, eta = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.01, 0.3))
    w_start = rand_params(rng, hidden)
    keys = [(seed, i) for i in range(len(sizes))]
    got = finetune_datasets(datas, w_start, heads, lam, eta, steps, batches, keys, penalty)
    for i, (delta, w_per) in enumerate(got):
        want_delta, want_per = finetune_reference(
            datas[i], w_start, heads[i], lam, eta, steps,
            rows_of(datas[i], batches[i], steps, keys[i]), penalty)
        assert np.array_equal(delta.w, want_delta.w), i
        assert np.array_equal(delta.b, want_delta.b), i
        assert np.array_equal(w_per.w, want_per.w), i
        assert np.array_equal(w_per.b, want_per.b), i


def test_norm_penalty_at_the_kink_stacked_with_other_leaves():
    # A leaf whose personal head equals the shared head has a zero pull
    # (the subgradient at the kink) while its neighbours in the stack pull.
    rng = np.random.default_rng(20)
    datas, heads = _leaf_round(rng, [12, 12, 12])
    w_start = rand_params(rng)
    heads[1] = ModelParams(w_start.w.copy(), w_start.b.copy())
    got = finetune_datasets(datas, w_start, heads, 3.0, 0.1, 1, 12, [(i,) for i in range(3)],
                         "norm")
    for i in range(3):
        want_delta, want_per = finetune_reference(
            datas[i], w_start, heads[i], 3.0, 0.1, 1, None, "norm")
        assert np.array_equal(got[i][0].w, want_delta.w)
        assert np.array_equal(got[i][1].w, want_per.w)


def test_diverging_finetune_raises():
    # Two batch sizes, so two stacked groups run; the diverging leaf, whose
    # features are of order 1e200, sits in the first group or in the second.
    def run(datas, heads):
        return finetune_datasets(datas, ModelParams.zeros(H), heads, 0.5, 0.1, steps=4,
                              batch=[12, 6, 12, 6], keys=[(i,) for i in range(4)])

    datas, heads = _leaf_round(np.random.default_rng(3), [12, 12, 12, 12])
    run(datas, heads)
    for diverging in range(4):
        scaled = list(datas)
        scaled[diverging] = LocalDataset(datas[diverging].x * 1e200, datas[diverging].y)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            run(scaled, heads)


# -- minibatch draws ---------------------------------------------------------------

def splitmix64(seed, count):
    """The first `count` outputs of SplitMix64 from `seed`, in Python ints."""
    out, mask = [], (1 << 64) - 1
    for _ in range(count):
        seed = (seed + 0x9E3779B97F4A7C15) & mask
        z = ((seed ^ (seed >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_words_are_splitmix64_outputs():
    # The empty key folds to seed 0, whose first outputs are the published
    # SplitMix64 values; step s starts at output s * 2^32 + 1. By hand, key
    # ()'s first step on n = 10, size 3 takes the words' high halves times
    # 8, 9 and 10: 7, 3 and 0, the first golden row below.
    words = model._words(model._fold_keys([()]), 2, 3)
    assert words[0, 0].tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                    0x06C45D188009454F]
    for key in [(), (7,), (7, 0), (5, 3, 2**127 + 11), (2**64, 1)]:
        seeds = model._fold_keys([key])
        seed, words = int(seeds[0]), model._words(seeds, 2, 4)
        assert words[0, 0].tolist() == splitmix64(seed, 4), key
        step_1 = (seed + 2**32 * 0x9E3779B97F4A7C15) % 2**64
        assert words[0, 1].tolist() == splitmix64(step_1, 4), key


def test_key_folding_matches_a_python_fold():
    # Each int gives its 64-bit limbs from the lowest up to its highest
    # nonzero one, at least one; each limb folds as mix((seed ^ limb) + gamma).
    def fold(key):
        seed = 0
        for x in key:
            for k in range(max(1, -(-x.bit_length() // 64))):
                seed = splitmix64(seed ^ (x >> (64 * k) & (2**64 - 1)), 1)[0]
        return seed

    keys = [(), (0,), (0, 0), (7, 3, 2**127 + 5), (2**64,), (1, 2**200 + 9), (5,) * 7]
    assert model._fold_keys(keys).tolist() == [fold(key) for key in keys]
    assert len(set(model._fold_keys(keys).tolist())) == len(keys)


def test_negative_entropy_raises_as_seed_sequence_does():
    # Keys are refused where default_rng refuses the same entropy, a
    # negative part wider than 64 bits included.
    for entropy in ([-1], [3, 0, -(2**70)]):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError, match="non-negative"):
            model._fold_keys([(1, 2), entropy])
        with pytest.raises(ValueError, match="non-negative"):  # as a session's ids
            model.int_limbs(entropy)


# Rows of draw_minibatches for a few keys, as pinned when the draw was
# written: (n, size, steps, key) -> rows.
GOLDEN_ROWS = {
    (10, 3, 2, ()): [[0, 3, 7], [2, 6, 8]],
    (10, 3, 2, (7, 0, 2**127 + 5)): [[3, 4, 6], [0, 3, 9]],
    (7, 6, 1, (1,)): [[0, 1, 2, 3, 4, 5]],
    (20000, 4, 1, (3, 1, 2**128 - 1)): [[7227, 9544, 14973, 18743]],
}


def test_golden_rows():
    for (n, size, steps, key), want in GOLDEN_ROWS.items():
        [rows] = draw_minibatches(n, size, steps, model._fold_keys([key]))
        assert rows.dtype == np.int64 and rows.tolist() == want, key


def assert_valid_rows(rows, n, size, steps):
    assert rows.shape == (steps, size) and rows.dtype == np.int64
    assert (rows[:, 1:] > rows[:, :-1]).all()  # sorted and distinct
    assert rows.min() >= 0 and rows.max() < n


_leaf = st.one_of(st.integers(2, 64), st.integers(2, 12000)).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, min(n - 1, 300))))
_key = st.one_of(st.tuples(st.integers(0, 2**64), st.integers(0, 50),
                           st.integers(0, 2**128 - 1)),
                 st.lists(st.integers(0, 2**130), max_size=4).map(tuple))


@settings(deadline=None)  # examples from the active profile; CI runs "model-2000"
@given(leaf=_leaf, keys=st.lists(_key, min_size=1, max_size=8),
       steps=st.integers(1, 6), data=st.data())
def test_a_leafs_rows_do_not_depend_on_the_other_leaves(leaf, keys, steps, data):
    """Rows drawn in one call, as a round draws its leaves' rows, equal each
    leaf drawn alone, in any order and with any other leaves beside it;
    every row is sorted, distinct and in range."""
    n, size = leaf
    together = draw_minibatches(n, size, steps, model._fold_keys(keys))
    order = data.draw(st.permutations(range(len(keys))))
    shuffled = draw_minibatches(n, size, steps, model._fold_keys([keys[i] for i in order]))
    for i, rows in enumerate(together):
        assert_valid_rows(rows, n, size, steps)
        assert np.array_equal(rows, draw_rows(n, size, steps, keys[i])), i
        assert np.array_equal(rows, shuffled[order.index(i)]), i


@settings(deadline=None)
@given(leaf=_leaf, key=_key, steps=st.integers(1, 4))
def test_rows_are_floyds_sample_of_the_words(leaf, key, steps):
    n, size = leaf
    rows = draw_rows(n, size, steps, key)
    words = model._words(model._fold_keys([key]), steps, size)[0] >> np.uint64(32)
    assert rows.tolist() == [floyd_reference(n, size, step.tolist()) for step in words]


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 10_000, 10_001, 25_000])
def test_rows_are_sorted_distinct_and_in_range(n):
    for size in sorted({1, n // 2, n - 1, n} - {0}):
        [rows] = draw_minibatches(n, size, 3, model._fold_keys([(n, size)]))
        if size == n:  # the whole dataset: no draw
            assert rows.tolist() == [list(range(n))] * 3
        else:
            assert_valid_rows(rows, n, size, 3)


def test_floyd_sample_frequencies():
    # Floyd's algorithm picks each of the C(6, 2) = 15 pairs with probability
    # 1/15. Over 60,000 steps of one fixed key, every pair's count lies
    # within 5 standard deviations of its binomial mean (4000 +- 5 * 61.1),
    # and so does every value's (20,000 +- 5 * 115.5).
    steps = 60_000
    rows = draw_rows(6, 2, steps, (2024,))
    pairs = np.bincount(rows[:, 0] * 6 + rows[:, 1], minlength=36).reshape(6, 6)
    counts = pairs[np.triu_indices(6, 1)]
    assert abs(counts - steps / 15).max() <= 5 * np.sqrt(steps / 15 * 14 / 15)
    values = np.bincount(rows.ravel(), minlength=6)
    assert abs(values - steps / 3).max() <= 5 * np.sqrt(steps / 3 * 2 / 3)


def test_forward_heads_slices_equal_forward_batch_bit_for_bit():
    rng = np.random.default_rng(21)
    heads = [rand_params(rng) for _ in range(7)]
    x = rng.normal(size=(50, H))
    stacked = forward_heads(x, np.stack([h.w for h in heads]),
                            np.stack([h.b for h in heads]))
    assert stacked.shape == (7, 50, 2)
    for head, probs in zip(heads, stacked):
        assert np.array_equal(probs, forward_batch(x, head))


def test_softmax_matches_the_row_sum_formula_bit_for_bit():
    """forward_heads against exp(l - max) / sum, with extreme, equal and
    underflowing logits; with w = c * I on H=2 the logits are c * x + b."""
    rng = np.random.default_rng(25)
    x = np.concatenate([
        rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1)),
        [[1e3, -1e3], [-1e3, 1e3], [1e3, 1e3], [0.0, 0.0], [2.5, 2.5],
         [0.0, -800.0], [-750.0, 0.0], [1e3, 999.0]],
    ])
    scales = np.array([1.0, -1.0, 0.5, 3.0])
    w = scales[:, None, None] * np.eye(2)
    b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [-0.25, 0.75]])
    probs = forward_heads(x, w, b)
    logits = x @ w.transpose(0, 2, 1) + b[:, None, :]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    assert np.array_equal(probs, e / e.sum(axis=-1, keepdims=True))
    assert (probs == 0.0).any() and (probs[..., 0] == probs[..., 1]).any()
    # the vote rule of ensemble_infer is argmax, first maximum on ties
    assert np.array_equal(probs[..., 1] > probs[..., 0], probs.argmax(axis=-1) == 1)


# -- data generation ---------------------------------------------------------------

_mean_part = st.sampled_from([-0.0, 0.0, -1.5, 2.0, 1e-300])


@settings(deadline=None)  # examples from the active profile; CI runs "model-2000"
@given(n=st.integers(0, 40), mean0=st.lists(_mean_part, min_size=2, max_size=6),
       mean1=st.lists(_mean_part, min_size=2, max_size=6),
       cov_scale=st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1e3)),
       seed=st.integers(0, 2**32 - 1))
def test_points_match_the_former_formula(n, mean0, mean1, cov_scale, seed):
    """`_write_points` gives the bits of mean + cov_scale * normal from the
    same stream, with -0.0 mean components and cov_scale 0 among the cases."""
    dim = min(len(mean0), len(mean1))
    mean0, mean1 = np.array(mean0[:dim]), np.array(mean1[:dim])
    assume(not np.array_equal(mean0, mean1))
    spec = TopicSpec(0, mean0, mean1, cov_scale, n)
    x, y = _write_points([(spec, n)], 1, [np.random.default_rng(seed)])
    want_x, want_y = points_reference(spec, n, np.random.default_rng(seed))
    assert x[0].tobytes() == want_x.tobytes()
    assert y[0].tobytes() == want_y.tobytes()


class _FixedDraws:
    """A generator stand-in with set labels and standard normal draws, whose
    `normal` computes numpy's 0.0 + 1.0 * z."""

    def __init__(self, y, z):
        self.y, self.z = np.array(y), np.array(z)

    def integers(self, low, high, size):
        return self.y.copy()

    def standard_normal(self, out):
        out[...] = self.z
        return out

    def normal(self, size):
        return 0.0 + 1.0 * self.z


@pytest.mark.parametrize("cov_scale", [0.0, 5e-324, 1.0, 3.0])
def test_points_match_the_former_formula_on_zero_draws(cov_scale):
    """-0.0 draws, which `normal` turns into +0.0, negative draws that a
    zero scale takes to -0.0, and tiny ones that a tiny scale does, each
    beside -0.0 and +0.0 mean components."""
    spec = TopicSpec(0, np.array([-0.0, 0.0, 1.0]), np.array([0.0, -0.0, -1.0]),
                     cov_scale, 6)
    y = [0, 0, 0, 1, 1, 1]
    z = [[-0.0, -0.0, -0.0], [0.0, -1e-300, 0.0], [-0.25, 0.5, -2.0],
         [-0.0, 0.5, -2.0], [-1e-300, -0.0, 0.0], [0.0, -0.5, 0.0]]
    x, _y = _write_points([(spec, 6)], 1, [_FixedDraws(y, z)])
    want_x, _ = points_reference(spec, 6, _FixedDraws(y, z))
    assert x[0].tobytes() == want_x.tobytes()


# -- serialization -----------------------------------------------------------------------

def test_params_roundtrip_and_layout():
    rng = np.random.default_rng(17)
    p = rand_params(rng)
    blob = serialize_params(p)
    assert len(blob) == param_nbytes(H)
    q = deserialize_params(blob)
    assert np.array_equal(p.w, q.w) and np.array_equal(p.b, q.b)
    # explicit little-endian layout: dims then row-major weights then bias
    import struct
    l, h = struct.unpack_from("<II", blob)
    assert (l, h) == (2, H)
    first = struct.unpack_from("<d", blob, 8)[0]
    assert first == p.w[0, 0]
    last = struct.unpack_from("<d", blob, len(blob) - 8)[0]
    assert last == p.b[1]


def test_dataset_rejects_nonbinary_labels():
    with pytest.raises(ValueError):
        LocalDataset(np.zeros((2, H)), np.array([0, 2]))
