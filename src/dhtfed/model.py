"""Linear classifier head with a personalized proximal objective.

Features are precomputed H-dimensional vectors standing in for a sequence
encoder's output; the trainable state is the 2xH weight matrix plus bias.
Each node additionally keeps a personalized copy pulled toward the shared
head by a proximal penalty, and local fine-tuning runs joint mini-batch
gradient descent on both. Node data and personal heads are stacked arrays,
one row per node, and a round fine-tunes its leaves by their rows.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

N_LABELS = 2


@dataclass
class ModelParams:
    """Weights of the classification head: w is (L, H), bias is (L,).

    The constructor and the operators check shapes and finiteness. Inside a
    round, `local_finetune` checks its stacked results once, the session
    wraps each leaf's delta with `_trusted`, and `fedagg.branch_aggregate`
    sums raw arrays and checks only its result.
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


class NodeData(Mapping):
    """Every node's dataset, all of one size, stacked in the order of the
    nodes' increasing ids: x is (N, n, H) features, y (N, n) labels, and
    row[nid] is nid's index into them. It reads like a dict of datasets:
    data[nid] is a `LocalDataset` of views of nid's row, and `nid in data`
    tells whether nid holds data."""

    def __init__(self, ids: Sequence[int], x: np.ndarray, y: np.ndarray):
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.int64)
        if x.ndim != 3 or y.shape != x.shape[:2] or len(ids) != len(x):
            raise ValueError("x must be (N, n, H), with (N, n) labels and one id per dataset")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("ids must be strictly increasing")
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        if not ((y == 0) | (y == 1)).all():
            raise ValueError("labels must be binary")
        self.ids, self.x, self.y = list(ids), x, y
        self.row = {nid: i for i, nid in enumerate(self.ids)}

    @classmethod
    def _trusted(cls, ids: list[int], x: np.ndarray, y: np.ndarray) -> "NodeData":
        """Wrap increasing ids, a C-contiguous float64 (N, n, H) array of
        finite features and an int64 (N, n) array of 0/1 labels that the
        caller has already checked: no copy, no check."""
        data = object.__new__(cls)
        data.ids, data.x, data.y = ids, x, y
        data.row = {nid: i for i, nid in enumerate(ids)}
        return data

    def __getitem__(self, nid: int) -> LocalDataset:
        r = self.row[nid]
        return LocalDataset._trusted(self.x[r], self.y[r])

    def __contains__(self, nid) -> bool:
        return nid in self.row

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


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


def pfl_loss(data: LocalDataset, w_cla: ModelParams, w_per: ModelParams, lam: float,
             penalty: str = "squared") -> float:
    """Mean negative log-likelihood of data's labels under w_cla's
    `forward_batch` probabilities, plus the proximal pull on w_per.

    With penalty="squared" the pull is (lam/2) * ||w_per - w_cla||_F^2
    over all parameters; penalty="norm" uses the unsquared Frobenius norm.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    _check_penalty(penalty)
    probs = forward_batch(data.x, w_cla)
    nll = -float(np.mean(np.log(probs[np.arange(len(data)), data.y])))
    diff = w_per - w_cla
    sq = float(np.sum(diff.w * diff.w) + np.sum(diff.b * diff.b))
    return float(nll + 0.5 * lam * (sq if penalty == "squared" else np.sqrt(sq)))


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


def local_finetune(x: np.ndarray, y: np.ndarray, rows: np.ndarray, w_start: ModelParams,
                   w_per: np.ndarray, b_per: np.ndarray, lam: float, eta_local: float,
                   steps: int, batch: int, seeds: np.ndarray, penalty: str = "squared",
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fine-tune the leaves at `rows` of one stacked state from the shared
    head w_start.

    x (N, n, H) and y (N, n) hold every node's dataset, all of one size n,
    and w_per (N, L, H) and b_per (N, L) every node's personal head; rows is
    a (B,) array of the leaves' indices into them, and seeds (B,) uint64
    their SplitMix seeds, one per leaf. Leaf i runs `steps` joint mini-batch
    gradient steps of size eta_local on its dataset, its personal head
    starting at its row of (w_per, b_per), every leaf with the proximal
    weight lam; its minibatches are `draw_minibatches`' rows for seeds[i] (no
    draw when `batch` == n). Returns (delta_w, delta_b, new w_per, new b_per)
    stacked over the B leaves, in the order of rows: delta = w_start -
    w_final is the update a leaf uploads, and the personal head advances by
    the same step rule. The inputs are left as they are.

    The leaves step together on stacked (B, batch, H) arrays; each leaf's
    result equals a run on that leaf alone, bit for bit. The arguments are
    checked once per call and the results once for finiteness, so a
    diverging leaf raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_penalty(penalty)
    n_nodes, n, dim = x.shape
    if not 1 <= batch <= n:
        raise ValueError("batch must be in [1, len(data)]")
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or seeds.shape != rows.shape:
        raise ValueError("need one seed per leaf")
    if rows.size and not 0 <= rows.min() <= rows.max() < n_nodes:
        raise ValueError(f"leaf rows must be in [0, {n_nodes})")
    if y.shape != (n_nodes, n) or w_per.shape[0] != n_nodes or b_per.shape[0] != n_nodes:
        raise ValueError("need one label row and one personal head per dataset")
    nb = rows.size
    # Each step's minibatch rows as indices into the (N * n, H) feature
    # rows, step-major: flat[s, i] holds leaf i's rows for step s.
    flat = draw_minibatches(n, batch, steps, seeds).transpose(1, 0, 2) + (rows * n)[:, None]
    onehot = _one_hot(np.take(y.reshape(-1), flat), w_start.w.shape[0])
    # The rows of a block of steps come from one gather, written in place
    # (mode="clip" takes no buffer; the rows are in range).
    block = max(1, min(steps, GATHER_BYTES // (8 * max(1, nb * batch * dim))))
    xb = np.empty((block, nb, batch, dim))
    features = x.reshape(-1, dim)
    d_w = np.zeros((nb,) + w_start.w.shape)
    d_b = np.zeros((nb,) + w_start.b.shape)
    p_w, p_b = w_per[rows], b_per[rows]
    for first in range(0, steps, block):
        last = min(steps, first + block)
        np.take(features, flat[first:last], axis=0, out=xb[:last - first], mode="clip")
        for step in range(first, last):
            gw, gb, gw_per, gb_per = _grad(xb[step - first], onehot[step],
                                           w_start.w - d_w, w_start.b - d_b, p_w, p_b,
                                           lam, penalty)
            d_w, d_b = d_w + eta_local * gw, d_b + eta_local * gb
            p_w, p_b = p_w - eta_local * gw_per, p_b - eta_local * gb_per
    if not all(np.isfinite(a).all() for a in (d_w, d_b, p_w, p_b)):
        raise ValueError("parameters must be finite")
    return d_w, d_b, p_w, p_b


GATHER_BYTES = 1 << 20  # bound on the minibatch rows gathered for a block of steps


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


def int_limbs(ints: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(M, width) uint64 limbs of M non-negative ints, lowest first, and how
    many of each int's limbs count: those up to its highest nonzero one, at
    least one. A negative int raises ValueError."""
    ints = list(map(operator.index, ints))
    counts = np.maximum((np.fromiter(map(int.bit_length, ints), dtype=np.int64,
                                     count=len(ints)) + 63) // 64, 1)
    width = int(counts.max(initial=1))
    try:
        blob = b"".join([i.to_bytes(8 * width, "little") for i in ints])
    except OverflowError:  # to_bytes of a negative int
        raise ValueError("key parts must be non-negative") from None
    return np.frombuffer(blob, dtype="<u8").reshape(len(ints), width), counts


def _fold(seeds: np.ndarray, limbs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each seed with the first counts[i] limbs of limbs[i] folded in, one
    at a time, as seed = mix((seed ^ limb) + gamma)."""
    for k, limb in enumerate(limbs.T):
        seeds = np.where(counts > k, _mix64((seeds ^ limb) + _GAMMA), seeds)
    return seeds


def _fold_keys(keys: Sequence[Sequence[int]]) -> np.ndarray:
    """One uint64 SplitMix seed per key, a sequence of non-negative ints:
    from 0, each int of the key in turn folds in its `int_limbs`. A negative
    int raises ValueError."""
    seeds = np.zeros(len(keys), dtype=np.uint64)
    for part in range(max(map(len, keys), default=0)):
        has = [i for i, key in enumerate(keys) if len(key) > part]
        seeds[has] = _fold(seeds[has], *int_limbs([keys[i][part] for i in has]))
    return seeds


def fold_limbs(key: Sequence[int], limbs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The seeds of the keys (*key, i) for B ints i given as `int_limbs`
    (limbs, counts): key is folded once, then each i's limbs as arrays. Each
    seed equals `_fold_keys` of its key."""
    return _fold(np.repeat(_fold_keys([key]), len(counts)), limbs, counts)


def _words(seeds: np.ndarray, steps: int, size: int) -> np.ndarray:
    """(B, steps, size) uint64: the word of step s, index t for each seed."""
    counter = (np.arange(steps, dtype=np.uint64)[:, None] << np.uint64(32)
               | np.arange(size, dtype=np.uint64))
    return _mix64(seeds[:, None, None] + (counter + np.uint64(1)) * _GAMMA)


def draw_minibatches(n: int, size: int, steps: int, seeds: np.ndarray) -> np.ndarray:
    """(B, steps, size) int64: each seed's `steps` sorted minibatches of
    distinct row indices into range(n). A leaf's rows depend only on (its
    seed, n, size, steps), not on the other seeds of the call. When size ==
    n, every minibatch is the whole range, with no draw."""
    if size == n:
        return np.broadcast_to(np.arange(n), (len(seeds), steps, n))
    return _floyd_rows(n, size, _words(seeds, steps, size) >> np.uint64(32))


def _floyd_rows(n: int, size: int, words: np.ndarray) -> np.ndarray:
    """Floyd's sample of `size` from range(n) for B leaves, one per step: for
    the t-th j in [n - size, n), v = (u * (j + 1)) >> 32 of the step's t-th
    32-bit word u, and v is taken unless it already is, then j. words is
    (B, steps, size) uint64 below 2^32; returns the sorted picks (B, steps,
    size)."""
    nb, steps = words.shape[:2]
    j = np.arange(n - size, n)
    # Lemire's multiply (Lemire, 2019) without its rejection step: of the 2^32
    # words, floor or ceil of 2^32 / r map to each value of [0, r), r = j + 1,
    # so each value's probability is off from 1 / r by at most r / 2^32,
    # relative. The product fits in uint64 while n <= 2^32.
    m = words * (j + 1).astype(np.uint64)
    picks = (m >> np.uint64(32)).astype(np.int64).reshape(nb * steps, size)
    rows = np.sort(picks, axis=1)
    repeats = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
    # Only a row with a repeated pick differs from its sorted picks. In such
    # rows a pick already taken takes j instead, position by position; a
    # block of rows marks its taken values in one flat (rows * n) bitmap.
    block = max(1, _SEEN_BYTES // n)
    for lo in range(0, repeats.size, block):
        sub = repeats[lo:lo + block]
        offset = np.arange(sub.size)[:, None] * n
        taken, j_sub = picks[sub] + offset, j + offset
        seen = np.zeros(sub.size * n, dtype=bool)
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
