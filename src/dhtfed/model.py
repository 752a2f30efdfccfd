"""Linear classifier head with a personalized proximal objective.

Features are precomputed H-dimensional vectors standing in for a sequence
encoder's output; the trainable state is the 2xH weight matrix plus bias.
Each node additionally keeps a personalized copy pulled toward the shared
head by a proximal penalty, and local fine-tuning runs joint mini-batch
gradient descent on both.
"""

from __future__ import annotations

import itertools
import operator
import struct
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

N_LABELS = 2


@dataclass
class ModelParams:
    """Weights of the classification head: w is (L, H), bias is (L,).

    The constructor and the operators check shapes and finiteness. Inside a
    round, `_finetune_stack` checks its stacked results once and wraps each
    leaf's slices with `_trusted`, and `fedagg.branch_aggregate` sums raw
    arrays and checks only its result.
    """

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ValueError("w must be (L, H) and b must be (L,)")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("parameters must be finite")

    @classmethod
    def _trusted(cls, w: np.ndarray, b: np.ndarray) -> "ModelParams":
        """Wrap float64 arrays of shapes (L, H) and (L,) that the caller has
        already checked to be finite: no copy, no check."""
        params = object.__new__(cls)
        params.w, params.b = w, b
        return params

    @classmethod
    def zeros(cls, hidden_dim: int, n_labels: int = N_LABELS) -> "ModelParams":
        return cls(np.zeros((n_labels, hidden_dim)), np.zeros(n_labels))

    def copy(self) -> "ModelParams":
        return ModelParams(self.w.copy(), self.b.copy())

    def __add__(self, other: "ModelParams") -> "ModelParams":
        return ModelParams(self.w + other.w, self.b + other.b)

    def __sub__(self, other: "ModelParams") -> "ModelParams":
        return ModelParams(self.w - other.w, self.b - other.b)

    def __mul__(self, scalar: float) -> "ModelParams":
        return ModelParams(self.w * scalar, self.b * scalar)

    __rmul__ = __mul__


class LocalDataset:
    """One node's labelled feature vectors."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValueError("x must be (n, H) with matching labels")
        if not np.isfinite(self.x).all():
            raise ValueError("features must be finite")
        if not ((self.y == 0) | (self.y == 1)).all():
            raise ValueError("labels must be binary")

    @classmethod
    def _trusted(cls, x: np.ndarray, y: np.ndarray) -> "LocalDataset":
        """Wrap a float64 (n, H) array of finite features and an int64 (n,)
        array of 0/1 labels that the caller has already checked: no copy,
        no check."""
        data = object.__new__(cls)
        data.x, data.y = x, y
        return data

    def __len__(self) -> int:
        return self.x.shape[0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a logit array, overwriting it.

    The row maximum and the row sum are taken label column by label column:
    the same values as logits.max(axis=-1) and e.sum(axis=-1), without
    numpy's per-row reduction overhead. (numpy adds rows shorter than 8 in
    order, so the sums agree bit for bit for 2 to 7 labels.)
    """
    labels = range(logits.shape[-1])
    logits -= reduce(np.maximum, [logits[..., j] for j in labels])[..., None]
    e = np.exp(logits, out=logits)
    e /= reduce(np.add, [e[..., j] for j in labels])[..., None]
    return e


def forward_heads(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B, n, L) class probabilities of B heads, stacked as w (B, L, H) and
    b (B, L), on the same (n, H) feature rows.

    One stacked matmul; each head's slice equals its own 2-D product.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.shape[2]:
        raise ValueError("batch must be (n, H)")
    return _softmax(x @ w.transpose(0, 2, 1) + b[:, None, :])


def forward_batch(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """(n, L) class probabilities for a batch of feature rows."""
    return forward_heads(x, params.w[None], params.b[None])[0]


PENALTIES = ("squared", "norm")


def _check_penalty(penalty: str) -> None:
    if penalty not in PENALTIES:
        raise ValueError(f"unknown penalty {penalty!r}")


def pfl_losses(datas: list[LocalDataset], w_cla: ModelParams, w_pers: list[ModelParams],
               lam: float, penalty: str = "squared") -> np.ndarray:
    """pfl_loss of every leaf, with personal head w_pers[i], against the
    shared head w_cla, in leaf order.

    Leaves that share a dataset size are scored together. Each leaf's
    logits come from its own matmul into a stacked (B, n, L) array, which is
    copied once to label-major (L, B, n); the softmax, the pick of each
    point's label, the `log` and the row mean then run on contiguous rows.
    Per element that is the arithmetic of `_softmax` (maximum and sum label
    by label, in order), so every loss equals the one-leaf call bit for bit.
    """
    _check_penalty(penalty)
    if len(w_pers) != len(datas):
        raise ValueError("need one personal head per dataset")
    by_size: dict[int, list[int]] = {}
    for i, data in enumerate(datas):
        if len(data) == 0:
            raise ValueError("dataset is empty")
        by_size.setdefault(len(data), []).append(i)
    w_t = w_cla.w.T
    nll = np.empty(len(datas))
    for n, leaves in by_size.items():
        logits = np.empty((len(leaves), n, w_t.shape[1]))
        for j, i in enumerate(leaves):
            # the one-leaf product, as it is: BLAS may sum another layout's
            # product (w @ x.T, or into label-major rows) in another order
            np.matmul(datas[i].x, w_t, out=logits[j])
        z = logits.transpose(2, 0, 1).copy()
        z += w_cla.b[:, None, None]
        z -= reduce(np.maximum, z)
        e = np.exp(z, out=z)
        y = np.stack([datas[i].y for i in leaves])
        picked = np.where(y == 1, e[1], e[0])  # labels are 0 or 1
        picked /= reduce(np.add, e)
        nll[leaves] = -np.log(picked, out=picked).mean(axis=1)
    d_w = np.stack([p.w for p in w_pers]) - w_cla.w
    d_b = np.stack([p.b for p in w_pers]) - w_cla.b
    sq = np.sum(d_w * d_w, axis=(1, 2)) + np.sum(d_b * d_b, axis=1)
    return nll + 0.5 * lam * (sq if penalty == "squared" else np.sqrt(sq))


def pfl_loss(data: LocalDataset, w_cla: ModelParams, w_per: ModelParams, lam: float,
             penalty: str = "squared") -> float:
    """Mean negative log-likelihood plus the proximal pull on w_per.

    With penalty="squared" the pull is (lam/2) * ||w_per - w_cla||_F^2
    over all parameters; penalty="norm" uses the unsquared Frobenius norm.
    """
    return float(pfl_losses([data], w_cla, [w_per], lam, penalty)[0])


def _one_hot(y: np.ndarray, n_labels: int) -> np.ndarray:
    """Float one-hot rows of the int labels y, on a new last axis."""
    return (y[..., None] == np.arange(n_labels)).astype(np.float64)


def _grad(x: np.ndarray, onehot: np.ndarray, w: np.ndarray, b: np.ndarray,
          w_per: np.ndarray, b_per: np.ndarray, lam: float, penalty: str):
    """Gradients of pfl_loss for B leaves at once, on raw stacked arrays.

    x is (B, n, H) with labels as `_one_hot` rows (B, n, L); w and w_per are
    (B, L, H), b and b_per (B, L). Returns (grad_w, grad_b, grad_w_per,
    grad_b_per). Leaf i's slices equal the B=1 call on leaf i
    alone, bit for bit: every product is a per-leaf matmul and every sum
    runs in the same order as on a single leaf. Subtracting the one-hot
    takes 1 off each label's probability and leaves the others as they are,
    since v - 0.0 == v for every float v, -0.0 included.
    """
    n = x.shape[1]
    dlogits = _softmax(x @ w.transpose(0, 2, 1) + b[:, None, :])
    dlogits -= onehot
    dlogits /= n
    dw, db = w_per - w, b_per - b
    if penalty == "squared":
        pull_w, pull_b = lam * dw, lam * db
    else:
        norm = np.sqrt((dw * dw).sum(axis=(1, 2)) + (db * db).sum(axis=1))
        pull = np.where(norm > 0, 0.5 * lam / np.where(norm > 0, norm, 1.0), 0.0)
        pull_w, pull_b = pull[:, None, None] * dw, pull[:, None] * db
    return (dlogits.transpose(0, 2, 1) @ x - pull_w, dlogits.sum(axis=1) - pull_b,
            pull_w, pull_b)


def pfl_grad(data: LocalDataset, w_cla: ModelParams, w_per: ModelParams, lam: float,
             penalty: str = "squared") -> tuple[ModelParams, ModelParams]:
    """Exact analytic gradients of pfl_loss w.r.t. (w_cla, w_per)."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    _check_penalty(penalty)
    gw, gb, gw_per, gb_per = _grad(data.x[None], _one_hot(data.y[None], w_cla.w.shape[0]),
                                   w_cla.w[None], w_cla.b[None], w_per.w[None],
                                   w_per.b[None], lam, penalty)
    return ModelParams(gw[0], gb[0]), ModelParams(gw_per[0], gb_per[0])


def local_finetune(datas: list[LocalDataset], w_start: ModelParams,
                   w_pers: list[ModelParams], lam: float, eta_local: float, steps: int,
                   batch, entropies: Sequence[Sequence[int]], penalty: str = "squared",
                   ) -> list[tuple[ModelParams, ModelParams]]:
    """Fine-tune every leaf of a round from the shared head w_start.

    Leaf i runs `steps` joint mini-batch gradient steps of size eta_local
    on datas[i], its personal head starting at w_pers[i], every leaf with
    the proximal weight lam. `batch` is one size for every leaf or one per
    leaf, each in [1, len(data)]. `entropies` holds one seed per leaf, in
    leaf order, each a sequence of non-negative ints: leaf i's minibatches
    are those of one
    sorted `choice(len(data), batch, replace=False)` per step on
    `np.random.default_rng(entropies[i])` (no draw when the batch is the
    whole dataset). `draw_minibatches` computes them without building that
    generator for most leaves; its docstring says when it does. Returns one
    (delta, new personal head) per leaf: delta = w_start - w_final is the
    update the leaf uploads, and the personal head advances by the same step
    rule.

    Leaves that share a batch size step together on stacked (B, batch, H)
    arrays; each leaf's result equals a run on that leaf alone, bit for bit.
    The arguments are checked once per call, and the stacked results of each
    batch size once for finiteness, so a diverging leaf raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_penalty(penalty)
    if len(w_pers) != len(datas):
        raise ValueError("need one personal head per dataset")
    batches = np.broadcast_to(batch, (len(datas),))
    for data, size in zip(datas, batches):
        if not 1 <= size <= len(data):
            raise ValueError("batch must be in [1, len(data)]")
    draws = draw_minibatches([len(data) for data in datas], batches.tolist(), steps,
                             entropies)
    by_batch: dict[int, list[int]] = {}
    for i, size in enumerate(batches):
        by_batch.setdefault(int(size), []).append(i)
    out: list = [None] * len(datas)
    for size, leaves in by_batch.items():
        results = _finetune_stack([datas[i] for i in leaves], w_start,
                                  [w_pers[i] for i in leaves], lam, eta_local, steps,
                                  size, [draws[i] for i in leaves], penalty)
        for i, res in zip(leaves, results):
            out[i] = res
    return out


GATHER_BYTES = 1 << 20  # bound on the minibatch rows gathered for a block of steps


def _finetune_stack(datas, w_start, w_pers, lam, eta, steps, batch, draws, penalty):
    """local_finetune for leaves that share one batch size."""
    nb = len(datas)
    n_labels, dim = w_start.w.shape
    # The minibatch rows of every leaf for a block of steps: x[i, s] holds
    # leaf i's rows for step s of the block. A drawn leaf's rows for a block
    # come from one gather, written in place (mode="clip" takes no buffer;
    # the rows are in range); a leaf whose batch is its whole dataset is
    # written once.
    block = max(1, min(steps, GATHER_BYTES // (8 * nb * batch * dim)))
    x = np.empty((nb, block, batch, dim))
    y = np.empty((nb, steps, batch), dtype=np.int64)
    for i, (data, idx) in enumerate(zip(datas, draws)):
        if idx is None:
            x[i], y[i] = data.x, data.y
        else:
            y[i] = data.y[idx]
    onehot = _one_hot(y, n_labels)
    drawn = [i for i, idx in enumerate(draws) if idx is not None]
    d_w = np.zeros((nb,) + w_start.w.shape)
    d_b = np.zeros((nb,) + w_start.b.shape)
    p_w = np.stack([p.w for p in w_pers])
    p_b = np.stack([p.b for p in w_pers])
    for first in range(0, steps, block):
        last = min(steps, first + block)
        for i in drawn:
            np.take(datas[i].x, draws[i][first:last], axis=0, out=x[i, :last - first],
                    mode="clip")
        for step in range(first, last):
            gw, gb, gw_per, gb_per = _grad(x[:, step - first], onehot[:, step],
                                           w_start.w - d_w, w_start.b - d_b, p_w, p_b,
                                           lam, penalty)
            d_w, d_b = d_w + eta * gw, d_b + eta * gb
            p_w, p_b = p_w - eta * gw_per, p_b - eta * gb_per
    if not all(np.isfinite(a).all() for a in (d_w, d_b, p_w, p_b)):
        raise ValueError("parameters must be finite")
    return [(ModelParams._trusted(d_w[i], d_b[i]), ModelParams._trusted(p_w[i], p_b[i]))
            for i in range(nb)]


# -- seeded streams -------------------------------------------------------------
#
# np.random.default_rng(entropy) seeds PCG64 (O'Neill, 2014) through numpy's
# SeedSequence. The entropy's ints become 32-bit words, each int as its words
# from the lowest, at least one. The words are hashed into a pool of four
# (`_pool`), and the pool into four uint64 words v0..v3. PCG64 then takes
# initstate = v0 << 64 | v1 and inc = (v2 << 64 | v3) << 1 | 1, and starts at
# state = ((inc + initstate) * _PCG_MULT + inc) mod 2^128. `seed_pcg64` does
# this for many entropies at once in numpy, one pass per count of words: the
# hash in uint32 arithmetic, which wraps mod 2^32 as the C code does, and the
# 128-bit step on 32-bit limbs held in uint64.

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = (1 << 32) - 1
_PCG_LIMBS = np.array([_PCG_MULT >> s & _M32 for s in (0, 32, 64, 96)],
                      dtype=np.uint64)[:, None]


def seed_pcg64(entropies: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The PCG64 `state` and `inc` of `np.random.default_rng(e)` for each
    entropy e, a sequence of non-negative ints, in order. A negative int
    raises ValueError, as SeedSequence does."""
    words, bounds = _entropy_words(entropies)
    counts = np.diff(bounds)
    state = np.empty((4, counts.size), dtype=np.uint64)
    inc = np.empty_like(state)
    for count in set(counts.tolist()):
        group = np.flatnonzero(counts == count)
        pool = _pool(words[bounds[group, None] + np.arange(count)])
        # generate_state(4, np.uint64) gives v0..v3 as eight words, each v
        # little end first; below, 128-bit values are four 32-bit limbs,
        # low first, held in uint64.
        out = _hashmix(np.concatenate([pool, pool]),
                       _consts(_INIT_B, _MULT_B, 8)).astype(np.uint64)
        seq = out[[6, 7, 4, 5]]  # v2 << 64 | v3
        step = seq << 1 & _M32
        step[1:] |= seq[:-1] >> 31
        step[0] |= 1
        base = _carry(out[[2, 3, 0, 1]] + step)  # (v0 << 64 | v1) + inc
        acc = np.zeros_like(base)
        for i in range(4):  # base * _PCG_MULT mod 2^128, limb by limb
            prod = base[i] * _PCG_LIMBS[:4 - i]
            acc[i:] += prod & _M32
            acc[i + 1:] += prod[:3 - i] >> 32
        state[:, group], inc[:, group] = _carry(acc + step), step
    return _ints(state), _ints(inc)


def _entropy_words(entropies: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's 32-bit words of every entropy, one after the other, and
    the bounds of each entropy's words: each int gives its words from the
    lowest up to its highest nonzero one, at least one."""
    ints = list(map(operator.index, itertools.chain.from_iterable(entropies)))
    counts = (np.fromiter(map(int.bit_length, ints), dtype=np.int64, count=len(ints))
              + 31) // 32
    width = max(1, int(counts.max(initial=0)))
    try:
        blob = b"".join([x.to_bytes(4 * width, "little") for x in ints])
    except OverflowError:  # to_bytes of a negative int
        raise ValueError("expected non-negative integer entropy") from None
    words = np.frombuffer(blob, dtype="<u4").reshape(len(ints), width).astype(np.uint32)
    counts = np.maximum(counts, 1)
    lengths = np.fromiter(map(len, entropies), dtype=np.int64, count=len(entropies))
    ends = np.concatenate([[0], np.cumsum(counts)])
    return (words[np.arange(width) < counts[:, None]],
            ends[np.concatenate([[0], np.cumsum(lengths)])])


def _carry(limbs: np.ndarray) -> np.ndarray:
    """(4, G) limbs, each below 2^63, carried into 32-bit limbs mod 2^128."""
    for k in range(3):
        limbs[k + 1] += limbs[k] >> 32
    return limbs & _M32


def _ints(limbs: np.ndarray) -> list[int]:
    return [hi << 64 | lo for hi, lo in zip((limbs[3] << 32 | limbs[2]).tolist(),
                                             (limbs[1] << 32 | limbs[0]).tolist())]


def _consts(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32: init * mult^k mod 2^32 for k = 0..count, the
    hash constant before each of `count` successive hash calls and after
    the last."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of the result: row k hashes
    v (or v's row k) with consts[k] and consts[k + 1]."""
    v = (v ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence's pool of four for each row of (G, W) uint32 entropy
    words, as (4, G) uint32."""
    g, w = words.shape
    consts = _consts(_INIT_A, _MULT_A, 16 + 4 * max(0, w - 4))
    pool = np.zeros((4, g), dtype=np.uint32)
    pool[:min(w, 4)] = words[:, :4].T
    pool = _hashmix(pool, consts[:5])
    k = 4
    for src in range(4):
        hashed = _hashmix(pool[src], consts[k:k + 4])
        k += 3
        for dst, h in zip([d for d in range(4) if d != src], hashed):
            pool[dst] = _mix(pool[dst], h)
    for src in range(4, w):
        pool = _mix(pool, _hashmix(words[:, src], consts[k:k + 5]))
        k += 4
    return pool


def seeded_generators(entropies: Sequence[Sequence[int]]) -> Iterator[np.random.Generator]:
    """For each entropy, in order, a generator at the start of the stream of
    `np.random.default_rng(entropy)`. When the probe passes, all entropies
    are seeded in one pass and each step re-seeds one reused Generator, so
    finish with one before taking the next; otherwise each is a new
    `default_rng`."""
    if fast_streams_enabled():
        return _reseeded(entropies)
    return (np.random.default_rng(e) for e in entropies)


def _reseeded(entropies) -> Iterator[np.random.Generator]:
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for state, inc in zip(*seed_pcg64(entropies)):
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield rng


# -- minibatch draws ------------------------------------------------------------
#
# For n <= FLOYD_MAX_N, numpy 2.x computes Generator.choice(n, size,
# replace=False) with Floyd's algorithm (Bentley & Floyd, 1987): for each j in
# [n - size, n) it draws v uniform on [0, j] and takes v, or j when v is
# already taken. It then shuffles the picks with size - 1 more draws, on
# [0, i] for i = size - 1 down to 1. Each draw on [0, r] is Lemire's method
# (Lemire, 2019): (u * (r + 1)) >> 32 of a 32-bit word u from the bit
# generator's next_uint32, redrawn while the low 32 bits of the product fall
# below 2^32 mod (r + 1). PCG64's next_uint32 hands out the low half of a
# 64-bit output, then buffers the high half for the next call. So, barring a
# redraw, one step reads 2 * size - 1 words in a fixed layout, and the steps
# of a leaf are the first words of its stream, which one random_raw call
# reads (its uint32 view gives that order on a little-endian host; the probe
# turns the draw off anywhere it does not match).

FLOYD_MAX_N = 10_000
DRAW_WORDS = 1 << 15  # words held before a stacked Floyd pass runs
_SEEN_BYTES = 1 << 20  # bound on the bitmap of values taken in Floyd's repeats


def draw_minibatches(ns: list[int], sizes, steps: int,
                     entropies: Sequence[Sequence[int]]) -> list:
    """Each leaf's `steps` sorted minibatches, leaf i drawing from the stream
    of `np.random.default_rng(entropies[i])`: a (steps, sizes[i]) int64 array
    of row indices into range(ns[i]), or None when sizes[i] == ns[i] (no
    draw).

    The rows are exactly those of `steps` calls `rng.choice(n, size,
    replace=False)` on that generator, each sorted. The streams of all leaves
    with size < n <= FLOYD_MAX_N are seeded in one pass, and each leaf reads
    the words those calls would consume with one `random_raw`. The words of
    leaves that share a size go through Floyd's algorithm together
    (`_floyd_rows`), once DRAW_WORDS words are held and at the end. A leaf
    where some word may have been a Lemire rejection builds its
    `default_rng` and calls `choice`. So does every leaf with n > FLOYD_MAX_N,
    and every leaf on a numpy where the one-time probe
    (`fast_streams_enabled`) finds that the seeding or the draw differs.
    """
    return _draw(ns, sizes, steps, entropies, fast_streams_enabled())


def _draw(ns, sizes, steps, entropies, fast: bool) -> list:
    if not len(ns) == len(sizes) == len(entropies):
        raise ValueError("need one size and one entropy per leaf")
    out: list = [None] * len(ns)
    raw, slow = [], []
    for i, (n, size) in enumerate(zip(ns, sizes)):
        if size < n:
            (raw if fast and n <= FLOYD_MAX_N else slow).append(i)
    pending: dict[int, list] = {}  # size -> [(leaf, its raw words)]
    held = 0
    for i, rng in zip(raw, _reseeded([entropies[i] for i in raw])):
        count = steps * (2 * sizes[i] - 1)
        pending.setdefault(sizes[i], []).append(
            (i, rng.bit_generator.random_raw((count + 1) // 2)))
        held += count
        if held >= DRAW_WORDS:
            slow += _resolve(pending, ns, steps, out)
            pending, held = {}, 0
    slow += _resolve(pending, ns, steps, out)
    for i in slow:
        out[i] = _choice_rows(ns[i], sizes[i], steps, np.random.default_rng(entropies[i]))
    return out


def _choice_rows(n: int, size: int, steps: int, rng) -> np.ndarray:
    idx = np.empty((steps, size), dtype=np.int64)
    for step in range(steps):
        idx[step] = rng.choice(n, size=size, replace=False)
    idx.sort(axis=-1)
    return idx


def _resolve(pending: dict, ns, steps: int, out: list) -> list[int]:
    """Write the rows of each pending leaf, from its raw words, into `out`;
    return the leaves where some word may have been a rejection."""
    rejected = []
    for size, group in pending.items():
        leaves = [i for i, _ in group]
        per_step = 2 * size - 1
        words = np.concatenate([raw for _, raw in group]).view(np.uint32)
        words = words.reshape(len(group), -1)[:, :steps * per_step]
        rows, suspect = _floyd_rows(np.array([ns[i] for i in leaves]), size,
                                    words.reshape(len(group), steps, per_step))
        for i, leaf_rows, bad in zip(leaves, rows, suspect.tolist()):
            if bad:
                rejected.append(i)
            else:
                out[i] = leaf_rows
    return rejected


def _floyd_rows(ns: np.ndarray, size: int, words: np.ndarray):
    """Floyd's picks for B leaves of populations ns, from the words `choice`
    would read: words is (B, steps, 2 * size - 1) uint32, each step's `size`
    Floyd draws then its `size - 1` shuffle draws. Returns the sorted picks
    (B, steps, size) and, per leaf, whether some word's low product half is
    below its bound, so that it may have been a rejection and `choice` may
    have read further."""
    nb, steps = words.shape[:2]
    j = ns[:, None] - size + np.arange(size)
    bound = np.empty((nb, 1, 2 * size - 1), dtype=np.uint64)
    bound[:, 0, :size] = j + 1
    bound[:, 0, size:] = np.arange(size, 1, -1)
    m = words * bound
    suspect = ((m & 0xFFFFFFFF) < bound).any(axis=(1, 2))
    picks = (m[..., :size] >> 32).astype(np.int64).reshape(nb * steps, size)
    rows = np.sort(picks, axis=1)
    repeats = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
    # Only a row with a repeated pick differs from its sorted picks. In such
    # rows a pick already taken takes j instead, position by position; a
    # block of rows marks its taken values in one flat (rows * n) bitmap.
    n_max = int(ns.max())
    block = max(1, _SEEN_BYTES // n_max)
    j_rows = np.repeat(j, steps, axis=0)
    for lo in range(0, repeats.size, block):
        sub = repeats[lo:lo + block]
        offset = np.arange(sub.size)[:, None] * n_max
        taken, j_sub = picks[sub] + offset, j_rows[sub] + offset
        seen = np.zeros(sub.size * n_max, dtype=bool)
        for t in range(size):
            pick = taken[:, t]
            again = seen[pick]
            pick[again] = j_sub[again, t]
            seen[pick] = True
        rows[sub] = np.sort(taken - offset, axis=1)
    return rows.reshape(nb, steps, size), suspect


# -- the probe -----------------------------------------------------------------

_fast_streams: bool | None = None  # the probe's verdict, taken once per process


def fast_streams_enabled() -> bool:
    """Whether this numpy's `default_rng` streams and `choice` match the
    one-pass seeding and the raw-word draw; the first call runs the probe."""
    global _fast_streams
    if _fast_streams is None:
        _fast_streams = _probe()
    return _fast_streams


# The probe seeds entropies of 1, 3, 6 and 8 words, then makes its draw
# calls: (steps, [(n, size), ...]), leaf i seeded (_PROBE_SEED, i). They cover
# an even and an odd word count per leaf, leaves whose picks often repeat,
# n = FLOYD_MAX_N, and (leaf 3 of the first call) a word that takes the
# rejection fallback.
_PROBE_SEED = 54673
_PROBE_ENTROPIES = ((_PROBE_SEED,), (_PROBE_SEED, 0, 7), (_PROBE_SEED, 3, 2**127 + 11),
                    (2**40 + _PROBE_SEED, 0, 2**96 + 5, 1))
_PROBE_CALLS = ((10, [(200, 32), (2000, 32), (7, 6), (FLOYD_MAX_N, 300)]),
                (1, [(32, 8), (2, 1), (200, 31), (FLOYD_MAX_N, 300)]))


def _probe() -> bool:
    for entropy, rng in zip(_PROBE_ENTROPIES, _reseeded(_PROBE_ENTROPIES)):
        if not np.array_equal(rng.bit_generator.random_raw(4),
                              np.random.default_rng(entropy).bit_generator.random_raw(4)):
            return False
    for steps, leaves in _PROBE_CALLS:
        entropies = [(_PROBE_SEED, i) for i in range(len(leaves))]
        got = _draw([n for n, _ in leaves], [s for _, s in leaves], steps, entropies, True)
        for (n, size), rows, entropy in zip(leaves, got, entropies):
            if not np.array_equal(rows, _choice_rows(n, size, steps,
                                                     np.random.default_rng(entropy))):
                return False
    return True


# -- wire form ----------------------------------------------------------------

def serialize_params(params: ModelParams) -> bytes:
    """(L, H) as uint32 little-endian, then L*H weights and L biases as f64."""
    l, h = params.w.shape
    flat = np.concatenate([params.w.reshape(-1), params.b]).astype("<f8")
    return struct.pack("<II", l, h) + flat.tobytes()


def deserialize_params(blob: bytes) -> ModelParams:
    l, h = struct.unpack_from("<II", blob)
    flat = np.frombuffer(blob, dtype="<f8", offset=8)
    if flat.size != l * h + l:
        raise ValueError("parameter blob has wrong length")
    return ModelParams(flat[: l * h].reshape(l, h).copy(), flat[l * h:].copy())


def param_nbytes(hidden_dim: int, n_labels: int = N_LABELS) -> int:
    return 8 + 8 * (n_labels * hidden_dim + n_labels)
