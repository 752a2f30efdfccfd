import gc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dhtfed import model
from dhtfed.model import (FLOYD_MAX_N, LocalDataset, ModelParams, PersonalState,
                          deserialize_params, draw_minibatches, forward,
                          forward_batch, forward_heads, local_finetune,
                          param_nbytes, pfl_grad, pfl_loss, pfl_losses,
                          serialize_params)
from dhtfed.fedagg import INFER_CHUNK

from oracles import (central_difference, draw_reference, finetune_reference,
                     loss_reference)

H = 5


def rand_params(rng, h=H):
    return ModelParams(rng.normal(size=(2, h)), rng.normal(size=2))


def rand_data(rng, n=12, h=H):
    return LocalDataset(rng.normal(size=(n, h)), rng.integers(0, 2, size=n))


# -- forward ---------------------------------------------------------------------

def test_zero_weights_give_uniform_probabilities():
    p = ModelParams.zeros(H)
    rng = np.random.default_rng(0)
    for _ in range(20):
        out = forward(rng.normal(size=H), p)
        assert np.array_equal(out, [0.5, 0.5])


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
    out = forward(x, p)
    e2 = np.exp(2.0)
    assert out == pytest.approx([e2 / (e2 + 1), 1 / (e2 + 1)], abs=1e-12)


def test_forward_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        forward(np.zeros(H + 1), ModelParams.zeros(H))
    with pytest.raises(ValueError):
        forward_batch(np.zeros((3, H + 2)), ModelParams.zeros(H))


# -- loss --------------------------------------------------------------------------

def test_lambda_zero_reduces_to_cross_entropy_bitwise():
    rng = np.random.default_rng(2)
    data = rand_data(rng)
    w = rand_params(rng)
    personal = PersonalState(rand_params(rng), lam=0.0)
    probs = forward_batch(data.x, w)
    ce = -float(np.mean(np.log(probs[np.arange(len(data)), data.y])))
    assert pfl_loss(data, w, personal) == ce


def test_equal_personal_and_global_weights_zero_the_penalty():
    rng = np.random.default_rng(3)
    data = rand_data(rng)
    w = rand_params(rng)
    same = PersonalState(w.copy(), lam=7.3)
    none = PersonalState(w.copy(), lam=0.0)
    assert pfl_loss(data, w, same) == pfl_loss(data, w, none)


def test_zero_weights_balanced_data_loss_is_ln2():
    rng = np.random.default_rng(4)
    data = LocalDataset(rng.normal(size=(40, H)), np.array([0, 1] * 20))
    loss = pfl_loss(data, ModelParams.zeros(H), PersonalState(ModelParams.zeros(H)))
    assert loss == pytest.approx(np.log(2), abs=1e-15)


def test_loss_is_shuffle_invariant():
    rng = np.random.default_rng(5)
    data = rand_data(rng, n=50)
    w = rand_params(rng)
    personal = PersonalState(rand_params(rng), lam=0.4)
    base = pfl_loss(data, w, personal)
    for _ in range(5):
        perm = rng.permutation(len(data))
        shuffled = LocalDataset(data.x[perm], data.y[perm])
        assert pfl_loss(shuffled, w, personal) == pytest.approx(base, abs=1e-12)


def test_empty_dataset_rejected():
    w = ModelParams.zeros(H)
    empty = LocalDataset(np.zeros((0, H)), np.zeros(0, dtype=int))  # accepted
    assert len(empty) == 0
    with pytest.raises(ValueError):
        pfl_loss(empty, w, PersonalState(ModelParams.zeros(H)))
    with pytest.raises(ValueError):
        pfl_grad(empty, w, PersonalState(ModelParams.zeros(H)))


@pytest.mark.parametrize("penalty", ["squared", "norm"])
def test_stacked_loss_equals_the_per_leaf_formula_bit_for_bit(penalty):
    rng = np.random.default_rng(23)
    w = rand_params(rng)
    sizes = [7, 40, 1, 13] * 9  # interleaved, so each size is a stack of its own
    assert len(sizes) > 2 * INFER_CHUNK
    datas = [rand_data(rng, n=n) for n in sizes]
    personals = [PersonalState(w + rand_params(rng) * rng.uniform(0.1, 3.0),
                               lam=rng.uniform(0.0, 2.0)) for _ in sizes]
    personals[5] = PersonalState(w.copy(), lam=1.5)  # zero offset, norm kink
    losses = pfl_losses(datas, w, personals, penalty)
    want = [loss_reference(d, w, p, penalty) for d, p in zip(datas, personals)]
    assert losses.tolist() == want
    for d, p, expected in zip(datas, personals, want):
        assert pfl_loss(d, w, p, penalty) == expected


def test_stacked_loss_rejects_an_empty_dataset_and_unknown_penalty():
    rng = np.random.default_rng(24)
    w = rand_params(rng)
    datas = [rand_data(rng), LocalDataset(np.zeros((0, H)), np.zeros(0, dtype=int))]
    personals = [PersonalState(rand_params(rng)) for _ in datas]
    with pytest.raises(ValueError, match="empty"):
        pfl_losses(datas, w, personals)
    with pytest.raises(ValueError, match="penalty"):
        pfl_losses(datas[:1], w, personals[:1], "cubic")
    with pytest.raises(ValueError, match="one personal state"):
        pfl_losses(datas, w, personals[:1])


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
        personal = PersonalState(rand_params(rng), lam=lam)
        g_cla, g_per = pfl_grad(data, w, personal, penalty)
        fd = central_difference(
            lambda: pfl_loss(data, w, personal, penalty),
            [w.w, w.b, personal.w_per.w, personal.w_per.b])
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
    personal = PersonalState(w.copy(), lam=2.0)
    g_cla, g_per = pfl_grad(data, w, personal, penalty="norm")
    assert np.array_equal(g_per.w, np.zeros((2, H)))
    assert np.array_equal(g_per.b, np.zeros(2))
    lam0 = PersonalState(w.copy(), lam=0.0)
    g_plain, _ = pfl_grad(data, w, lam0)
    assert np.array_equal(g_cla.w, g_plain.w)


def test_lambda_zero_gives_zero_personal_gradient():
    rng = np.random.default_rng(9)
    data = rand_data(rng)
    _g_cla, g_per = pfl_grad(data, rand_params(rng),
                             PersonalState(rand_params(rng), lam=0.0))
    assert np.array_equal(g_per.w, np.zeros((2, H)))
    assert np.array_equal(g_per.b, np.zeros(2))


def test_bias_gradient_vanishes_at_symmetric_optimum():
    rng = np.random.default_rng(10)
    data = LocalDataset(rng.normal(size=(30, H)), np.array([0, 1] * 15))
    g_cla, _ = pfl_grad(data, ModelParams.zeros(H),
                        PersonalState(ModelParams.zeros(H), lam=0.0))
    assert np.array_equal(g_cla.b, np.zeros(2))


# -- local fine-tuning -----------------------------------------------------------------

def test_zero_step_size_is_a_null_update():
    rng = np.random.default_rng(11)
    data = rand_data(rng)
    w = rand_params(rng)
    personal = PersonalState(rand_params(rng), lam=0.5, eta_local=0.0)
    [(delta, state)] = local_finetune([data], w, [personal], steps=5, batch=6,
                                      rngs=[np.random.default_rng(0)])
    assert np.array_equal(delta.w, np.zeros((2, H)))
    assert np.array_equal(delta.b, np.zeros(2))
    assert np.array_equal(state.w_per.w, personal.w_per.w)


def test_single_full_batch_step_equals_analytic_gradient_exactly():
    rng = np.random.default_rng(12)
    data = rand_data(rng)
    w = rand_params(rng)
    personal = PersonalState(rand_params(rng), lam=0.3, eta_local=0.05)
    g_cla, _ = pfl_grad(data, w, personal)
    [(delta, _)] = local_finetune([data], w, [personal], steps=1, batch=len(data),
                                  rngs=[np.random.default_rng(0)])
    assert np.array_equal(delta.w, 0.05 * g_cla.w)
    assert np.array_equal(delta.b, 0.05 * g_cla.b)


def test_training_reduces_loss_on_separable_data():
    rng = np.random.default_rng(13)
    n = 200
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, H)) + np.where(y[:, None] == 1, 2.0, -2.0) * np.eye(H)[0]
    data = LocalDataset(x, y)
    w0 = ModelParams.zeros(H)
    personal = PersonalState(ModelParams.zeros(H), lam=0.1, eta_local=0.2)
    before = pfl_loss(data, w0, personal)
    [(delta, state)] = local_finetune([data], w0, [personal], steps=200, batch=32,
                                      rngs=[np.random.default_rng(1)])
    after = pfl_loss(data, w0 - delta, state)
    assert after < before


def test_proximal_pull_decays_geometrically():
    # Hold the shared head fixed and iterate only the personal update: the
    # gap must shrink by exactly (1 - eta * lambda) per step.
    rng = np.random.default_rng(14)
    w = rand_params(rng)
    lam, eta = 0.5, 0.2
    personal = PersonalState(rand_params(rng), lam=lam, eta_local=eta)
    data = rand_data(rng)
    gaps = []
    for _ in range(10):
        diff = personal.w_per - w
        gaps.append(np.sqrt(diff.sq_norm()))
        _g_cla, g_per = pfl_grad(data, w, personal)
        personal.w_per = personal.w_per - eta * g_per
    ratio = 1.0 - eta * lam
    for before, after in zip(gaps, gaps[1:]):
        assert after == pytest.approx(ratio * before, rel=1e-12)


def test_finetune_is_deterministic_per_seed():
    rng = np.random.default_rng(15)
    data = rand_data(rng, n=64)
    w = rand_params(rng)
    personal = PersonalState(rand_params(rng), lam=0.4, eta_local=0.1)

    def run(seed):
        [result] = local_finetune([data], w, [personal], steps=20, batch=16,
                                  rngs=[np.random.default_rng(seed)])
        return result

    d1, s1 = run(77)
    d2, s2 = run(77)
    d3, _ = run(78)
    assert np.array_equal(d1.w, d2.w) and np.array_equal(d1.b, d2.b)
    assert np.array_equal(s1.w_per.w, s2.w_per.w)
    assert not np.array_equal(d1.w, d3.w)


def test_finetune_validates_arguments():
    rng = np.random.default_rng(16)
    data = rand_data(rng, n=4)
    w = rand_params(rng)
    personal = PersonalState(rand_params(rng))

    def call(datas=(data,), personals=(personal,), steps=1, batch=2, n_rngs=1,
             **kw):
        return local_finetune(list(datas), w, list(personals), steps, batch,
                              [np.random.default_rng(0)] * n_rngs, **kw)

    with pytest.raises(ValueError):
        call(steps=0)
    with pytest.raises(ValueError):
        call(batch=9)
    with pytest.raises(ValueError, match="penalty"):
        call(penalty="cubic")
    with pytest.raises(ValueError, match="one personal state"):
        call(datas=(data, data))
    with pytest.raises(ValueError, match="shorter"):  # one generator per leaf
        call(datas=(data, data), personals=(personal, personal))
    with pytest.raises(ValueError, match="batch"):  # one leaf's batch too large
        call(datas=(data, rand_data(rng, n=2)), personals=(personal, personal),
             n_rngs=2, batch=3)
    with pytest.raises(ValueError, match="batch"):
        call(datas=(data, data), personals=(personal, personal), n_rngs=2,
             batch=[2, 0])
    assert call(datas=(), personals=(), n_rngs=0) == []


def _leaf_round(rng, sizes):
    """Datasets of the given sizes with a personal state each, every leaf
    with its own lambda and local step size."""
    datas = [rand_data(rng, n=n) for n in sizes]
    personals = [PersonalState(rand_params(rng), lam=float(rng.uniform(0.1, 2.0)),
                               eta_local=float(rng.uniform(0.01, 0.3)))
                 for _ in sizes]
    return datas, personals


@pytest.mark.parametrize("penalty", ["squared", "norm"])
def test_finetune_matches_the_params_level_step_rule_bit_for_bit(penalty):
    # Leaves above, at and below the batch size of 8 share one call, as in
    # a round: the session caps each leaf's batch at its dataset size.
    rng = np.random.default_rng(19)
    sizes = [40, 8, 5, 23, 8, 40, 1, 9]
    datas, personals = _leaf_round(rng, sizes)
    personals[4] = PersonalState(rand_params(rng), lam=0.0)
    w_start = rand_params(rng)
    batches = [min(8, n) for n in sizes]
    starts = [p.w_per.copy() for p in personals]
    got = local_finetune(datas, w_start, personals, 12, batches,
                         [np.random.default_rng([5, i]) for i in range(len(sizes))],
                         penalty)
    for i, (data, personal) in enumerate(zip(datas, personals)):
        want_delta, want_state = finetune_reference(
            data, w_start, personal, 12, batches[i], np.random.default_rng([5, i]),
            penalty)
        delta, state = got[i]
        assert np.array_equal(delta.w, want_delta.w), i
        assert np.array_equal(delta.b, want_delta.b), i
        assert np.array_equal(state.w_per.w, want_state.w_per.w), i
        assert np.array_equal(state.w_per.b, want_state.w_per.b), i
        assert (state.lam, state.eta_local) == (personal.lam, personal.eta_local)
        assert personal.w_per.allclose(starts[i])  # the caller's state is untouched


def test_norm_penalty_at_the_kink_stacked_with_other_leaves():
    # A leaf whose personal head equals the shared head has a zero pull
    # (the subgradient at the kink) while its neighbours in the stack pull.
    rng = np.random.default_rng(20)
    datas, personals = _leaf_round(rng, [12, 12, 12])
    w_start = rand_params(rng)
    personals[1] = PersonalState(w_start.copy(), lam=3.0, eta_local=0.1)
    got = local_finetune(datas, w_start, personals, 1, 12,
                         [np.random.default_rng(i) for i in range(3)], "norm")
    for i in range(3):
        want_delta, want_state = finetune_reference(
            datas[i], w_start, personals[i], 1, 12, np.random.default_rng(i), "norm")
        assert np.array_equal(got[i][0].w, want_delta.w)
        assert np.array_equal(got[i][1].w_per.w, want_state.w_per.w)


def test_diverging_finetune_raises():
    # Two batch sizes, so two stacked groups run; the diverging leaf sits in
    # the first group or in the second.
    for diverging in range(4):
        rng = np.random.default_rng(3)
        datas, personals = _leaf_round(rng, [12, 12, 12, 12])
        personals[diverging] = PersonalState(rand_params(rng), eta_local=1e306)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            local_finetune(datas, ModelParams.zeros(H), personals, steps=4,
                           batch=[12, 6, 12, 6],
                           rngs=[np.random.default_rng(i) for i in range(4)])


# -- minibatch draws ---------------------------------------------------------------

# Leaf 0, (n, size) = (10000, 300) over 11 steps from default_rng([1274, 0]),
# reads a word that Lemire's method rejects, so it must take the fallback.
REJECTED = dict(leaves=[(10000, 300), (200, 32), (12000, 300), (7, 6)], steps=11,
                seed=1274)


def next_words(rngs):
    return [rng.integers(1 << 32, size=8, dtype=np.uint32) for rng in rngs]


def assert_draws_match_choice(leaves, steps, make_rng):
    """draw_minibatches equals the choice loop on twin generators: the rows,
    and each generator's next eight 32-bit draws after the call."""
    ns, sizes = [n for n, _ in leaves], [s for _, s in leaves]
    fast = [make_rng(i) for i in range(len(leaves))]
    slow = [make_rng(i) for i in range(len(leaves))]
    got = draw_minibatches(ns, sizes, steps, iter(fast))
    want = draw_reference(ns, sizes, steps, slow)
    for i, (rows, want_rows) in enumerate(zip(got, want, strict=True)):
        if want_rows is None:
            assert rows is None, i
        else:
            assert rows.dtype == np.int64 and np.array_equal(rows, want_rows), i
    for i, (a, b) in enumerate(zip(next_words(fast), next_words(slow))):
        assert np.array_equal(a, b), i


def count_choice_draws(monkeypatch):
    """Record (n, size, steps) of every leaf that calls `choice`."""
    calls = []
    original = model._choice_rows

    def counted(n, size, steps, rng):
        calls.append((n, size, steps))
        return original(n, size, steps, rng)

    monkeypatch.setattr(model, "_choice_rows", counted)
    return calls


def test_the_probe_enables_the_raw_word_draw_on_this_numpy():
    assert model.fast_draw_enabled()


_leaf = st.one_of(st.integers(2, 64), st.integers(2, 12000)).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, min(n - 1, 300))))


@settings(max_examples=150, deadline=None)
@given(leaves=st.lists(_leaf, min_size=1, max_size=6), steps=st.integers(1, 11),
       seed=st.integers(0, 2**32 - 1))
@example(**REJECTED)
def test_draw_matches_a_choice_loop_on_twin_generators(leaves, steps, seed):
    assert_draws_match_choice(leaves, steps, lambda i: np.random.default_rng([seed, i]))


def test_a_rejected_word_takes_the_fallback(monkeypatch):
    calls = count_choice_draws(monkeypatch)
    leaves = REJECTED["leaves"]
    assert_draws_match_choice(leaves, REJECTED["steps"],
                              lambda i: np.random.default_rng([REJECTED["seed"], i]))
    # leaf 0 is rewound and redrawn; n = 12000 is above FLOYD_MAX_N
    assert sorted(calls) == [(10000, 300, 11), (12000, 300, 11)]


def test_draw_shares_a_generator_between_leaves_in_order(monkeypatch):
    # One generator for every leaf: each leaf's draws start where the last
    # leaf's ended, also across a chunk boundary and a rejected word.
    monkeypatch.setattr(model, "DRAW_CHUNK", 2)
    leaves = [(10000, 300), (200, 32), (32, 8), (32, 32), (9, 4)]
    for seed in (1274, 5):
        fast, slow = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0])
        ns, sizes = [n for n, _ in leaves], [s for _, s in leaves]
        got = draw_minibatches(ns, sizes, 11, [fast] * len(leaves))
        want = draw_reference(ns, sizes, 11, [slow] * len(leaves))
        for rows, want_rows in zip(got, want):
            assert (rows is None and want_rows is None) or np.array_equal(rows, want_rows)
        assert np.array_equal(*next_words([fast, slow]))


def test_draw_holds_at_most_a_chunk_of_generators(monkeypatch):
    monkeypatch.setattr(model, "DRAW_CHUNK", 3)

    def alive():
        gc.collect()
        return sum(type(o) is np.random.Generator for o in gc.get_objects())

    base, peak = alive(), 0

    def rngs():
        nonlocal peak
        for i in range(12):
            peak = max(peak, alive() - base)
            yield np.random.default_rng(i)

    draw_minibatches([40] * 12, [8] * 12, 3, rngs())
    assert peak == 3


def _fallback_case(rng, leaves, steps, make_rng):
    """local_finetune on datasets of the given (rows, batch) equals the
    per-step choice reference, and leaves each generator where it leaves
    its twin."""
    datas, personals = _leaf_round(rng, [n for n, _ in leaves])
    w_start = rand_params(rng)
    fast = [make_rng(i) for i in range(len(leaves))]
    slow = [make_rng(i) for i in range(len(leaves))]
    got = local_finetune(datas, w_start, personals, steps, [b for _, b in leaves], fast)
    for i, (data, personal) in enumerate(zip(datas, personals)):
        want_delta, want_state = finetune_reference(
            data, w_start, personal, steps, leaves[i][1], slow[i])
        assert np.array_equal(got[i][0].w, want_delta.w), i
        assert np.array_equal(got[i][1].w_per.b, want_state.w_per.b), i
    for i, (a, b) in enumerate(zip(next_words(fast), next_words(slow))):
        assert np.array_equal(a, b), i


def test_finetune_draws_with_choice_on_another_bit_generator(monkeypatch):
    calls = count_choice_draws(monkeypatch)
    _fallback_case(np.random.default_rng(30), [(40, 8), (9, 9), (40, 5)], 3,
                   lambda i: np.random.Generator(np.random.MT19937([30, i])))
    assert calls == [(40, 8, 3), (40, 5, 3)]


def test_finetune_draws_with_choice_after_a_buffered_half_word(monkeypatch):
    def buffered(i):
        rng = np.random.default_rng([31, i])
        if i != 1:  # leaf 1 stays fresh and takes the raw-word draw
            rng.integers(1 << 32, dtype=np.uint32)
        return rng

    calls = count_choice_draws(monkeypatch)
    _fallback_case(np.random.default_rng(31), [(40, 8), (40, 8), (23, 4)], 2, buffered)
    assert calls == [(40, 8, 2), (23, 4, 2)]


def test_finetune_draws_with_choice_above_floyd_max_n(monkeypatch):
    calls = count_choice_draws(monkeypatch)
    _fallback_case(np.random.default_rng(32), [(FLOYD_MAX_N + 1, 16), (FLOYD_MAX_N, 16)],
                   2, lambda i: np.random.default_rng([32, i]))
    assert calls == [(FLOYD_MAX_N + 1, 16, 2)]


def test_a_failed_probe_turns_the_raw_word_draw_off(monkeypatch):
    # A raw-word draw that is off by one in every pick must fail the probe.
    floyd_rows = model._floyd_rows
    monkeypatch.setattr(model, "_floyd_rows",
                        lambda *args: (lambda r, s: (r + 1, s))(*floyd_rows(*args)))
    monkeypatch.setattr(model, "_fast_draw", None)
    calls = count_choice_draws(monkeypatch)
    _fallback_case(np.random.default_rng(33), [(40, 8), (200, 32)], 3,
                   lambda i: np.random.default_rng([33, i]))
    assert not model.fast_draw_enabled()
    assert calls[-2:] == [(40, 8, 3), (200, 32, 3)]


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
