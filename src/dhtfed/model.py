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
from typing import Sequence

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
        # Each point's label's probability, as a bit select on the uint64
        # views: -y is all ones where the label is 1 and zero where it is 0.
        u0 = e[0].view(np.uint64)
        picked = u0 ^ e[1].view(np.uint64)
        picked &= np.negative(y, out=y).view(np.uint64)
        picked ^= u0
        picked = picked.view(np.float64)
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
                   batch, keys: Sequence[Sequence[int]], penalty: str = "squared",
                   ) -> list[tuple[ModelParams, ModelParams]]:
    """Fine-tune every leaf of a round from the shared head w_start.

    Leaf i runs `steps` joint mini-batch gradient steps of size eta_local
    on datas[i], its personal head starting at w_pers[i], every leaf with
    the proximal weight lam. `batch` is one size for every leaf or one per
    leaf, each in [1, len(data)]. `keys` holds one key per leaf, in leaf
    order, each a sequence of non-negative ints: leaf i's minibatches are
    `draw_minibatches`' rows for keys[i], a pure function of that key, the
    step and the dataset and batch sizes (no draw when the batch is the
    whole dataset). Returns one (delta, new personal head) per leaf: delta =
    w_start - w_final is the update the leaf uploads, and the personal head
    advances by the same step rule.

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
    draws = draw_minibatches([len(data) for data in datas], batches.tolist(), steps, keys)
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


# -- minibatch draws ------------------------------------------------------------
#
# A leaf's minibatch words are a pure function of its key (seed, round, leaf
# id), the step and the index within the step: a counter-based stream
# (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011)
# built from SplitMix64 (Steele, Lea & Flood, OOPSLA 2014). The key's ints
# fold into one 64-bit SplitMix seed, and the word of step s, index t is
# output s * 2^32 + t + 1 of the SplitMix64 stream from that seed, computed
# directly as mix(seed + (s * 2^32 + t + 1) * gamma). Each step's words then
# make a sorted sample with Floyd's algorithm (Bentley & Floyd, 1987).

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SEEN_BYTES = 1 << 20  # bound on the bitmap of values taken in Floyd's repeats


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on a uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _fold_keys(keys: Sequence[Sequence[int]]) -> np.ndarray:
    """One uint64 SplitMix seed per key, a sequence of non-negative ints. Each
    int gives its 64-bit limbs from the lowest up to its highest nonzero one,
    at least one, and each limb in turn is folded in as seed = mix((seed ^
    limb) + gamma), from 0. A negative int raises ValueError."""
    ints = list(map(operator.index, itertools.chain.from_iterable(keys)))
    counts = np.maximum((np.fromiter(map(int.bit_length, ints), dtype=np.int64,
                                     count=len(ints)) + 63) // 64, 1)
    width = int(counts.max(initial=1))
    try:
        blob = b"".join([x.to_bytes(8 * width, "little") for x in ints])
    except OverflowError:  # to_bytes of a negative int
        raise ValueError("key parts must be non-negative") from None
    limbs = np.frombuffer(blob, dtype="<u8").reshape(len(ints), width)
    limbs = limbs[np.arange(width) < counts[:, None]]
    lengths = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys))
    bounds = np.concatenate([[0], np.cumsum(counts)])[np.concatenate([[0], np.cumsum(lengths)])]
    totals = np.diff(bounds)
    seeds = np.zeros(len(keys), dtype=np.uint64)
    for total in set(totals.tolist()):
        group = np.flatnonzero(totals == total)
        seed = np.zeros(group.size, dtype=np.uint64)
        for limb in limbs[bounds[group, None] + np.arange(total)].T:
            seed = _mix64((seed ^ limb) + _GAMMA)
        seeds[group] = seed
    return seeds


def _words(seeds: np.ndarray, steps: int, size: int) -> np.ndarray:
    """(B, steps, size) uint64: the word of step s, index t for each seed."""
    counter = (np.arange(steps, dtype=np.uint64)[:, None] << np.uint64(32)
               | np.arange(size, dtype=np.uint64))
    return _mix64(seeds[:, None, None] + (counter + np.uint64(1)) * _GAMMA)


def draw_minibatches(ns: list[int], sizes, steps: int,
                     keys: Sequence[Sequence[int]]) -> list:
    """Each leaf's `steps` sorted minibatches from its key: a (steps,
    sizes[i]) int64 array of distinct row indices into range(ns[i]), or None
    when sizes[i] == ns[i] (no draw).

    Leaf i's rows depend only on (keys[i], ns[i], sizes[i], steps), not on
    the other leaves of the call. The words of all leaves that share a size
    are computed in one pass and go through Floyd's algorithm together.
    """
    if not len(ns) == len(sizes) == len(keys):
        raise ValueError("need one size and one key per leaf")
    seeds = _fold_keys(keys)
    by_size: dict[int, list[int]] = {}
    for i, (n, size) in enumerate(zip(ns, sizes)):
        if size < n:
            by_size.setdefault(size, []).append(i)
    out: list = [None] * len(ns)
    for size, leaves in by_size.items():
        rows = _floyd_rows(np.array([ns[i] for i in leaves]), size,
                           _words(seeds[leaves], steps, size) >> np.uint64(32))
        for i, leaf_rows in zip(leaves, rows):
            out[i] = leaf_rows
    return out


def _floyd_rows(ns: np.ndarray, size: int, words: np.ndarray) -> np.ndarray:
    """Floyd's sample of `size` from range(n) for B leaves of populations ns,
    one per step: for the t-th j in [n - size, n), v = (u * (j + 1)) >> 32 of
    the step's t-th 32-bit word u, and v is taken unless it already is, then
    j. words is (B, steps, size) uint64 below 2^32; returns the sorted picks
    (B, steps, size)."""
    nb, steps = words.shape[:2]
    j = ns[:, None] - size + np.arange(size)
    # Lemire's multiply (Lemire, 2019) without its rejection step: of the 2^32
    # words, floor or ceil of 2^32 / r map to each value of [0, r), r = j + 1,
    # so each value's probability is off from 1 / r by at most r / 2^32,
    # relative. The product fits in uint64 while n <= 2^32.
    m = words * (j + 1).astype(np.uint64)[:, None, :]
    picks = (m >> np.uint64(32)).astype(np.int64).reshape(nb * steps, size)
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
    return rows.reshape(nb, steps, size)


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
