"""Linear classifier head with a personalized proximal objective.

Features are precomputed H-dimensional vectors standing in for a sequence
encoder's output; the trainable state is the 2xH weight matrix plus bias.
Each node additionally keeps a personalized copy pulled toward the shared
head by a proximal penalty, and local fine-tuning runs joint mini-batch
gradient descent on both.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

N_LABELS = 2


@dataclass
class ModelParams:
    """Weights of the classification head: w is (L, H), bias is (L,)."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ValueError("w must be (L, H) and b must be (L,)")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b).all()):
            raise ValueError("parameters must be finite")

    @property
    def dim(self) -> int:
        return self.w.shape[1]

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

    def sq_norm(self) -> float:
        return float(np.sum(self.w * self.w) + np.sum(self.b * self.b))

    def allclose(self, other: "ModelParams", atol: float = 0.0, rtol: float = 0.0) -> bool:
        return (np.allclose(self.w, other.w, atol=atol, rtol=rtol)
                and np.allclose(self.b, other.b, atol=atol, rtol=rtol))


@dataclass
class PersonalState:
    """Per-node personalized head plus the proximal/learning hyperparameters."""

    w_per: ModelParams
    lam: float = 0.5
    eta_local: float = 0.1

    def __post_init__(self) -> None:
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ValueError("lambda must be a finite non-negative real")
        if self.eta_local < 0:
            raise ValueError("eta_local must be non-negative")

    def copy(self) -> "PersonalState":
        return PersonalState(self.w_per.copy(), self.lam, self.eta_local)


@dataclass
class Example:
    x: np.ndarray
    y: int


class LocalDataset:
    """One node's labelled feature vectors, tagged with a topic id."""

    def __init__(self, x: np.ndarray, y: np.ndarray, topic_id: int = 0):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.topic_id = topic_id
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValueError("x must be (n, H) with matching labels")
        if not np.isfinite(self.x).all():
            raise ValueError("features must be finite")
        if not ((self.y == 0) | (self.y == 1)).all():
            raise ValueError("labels must be binary")

    def __len__(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_examples(cls, examples: list[Example], topic_id: int = 0) -> "LocalDataset":
        return cls(np.stack([e.x for e in examples]),
                   np.array([e.y for e in examples]), topic_id)


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


def forward(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class probabilities for one feature vector (softmax of w @ x + b)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.dim,):
        raise ValueError(f"feature dim {x.shape} does not match H={params.dim}")
    return _softmax((params.w @ x + params.b)[None])[0]


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


def pfl_losses(datas: list[LocalDataset], w_cla: ModelParams,
               personals: list[PersonalState], penalty: str = "squared") -> np.ndarray:
    """pfl_loss of every leaf against the shared head w_cla, in leaf order.

    Leaves that share a dataset size go through one stacked softmax, but
    each leaf's logits come from its own matmul, so every loss equals the
    one-leaf call bit for bit.
    """
    _check_penalty(penalty)
    if len(personals) != len(datas):
        raise ValueError("need one personal state per dataset")
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
            np.matmul(datas[i].x, w_t, out=logits[j])
        logits += w_cla.b
        probs = _softmax(logits)
        y = np.stack([datas[i].y for i in leaves])
        nll[leaves] = -np.log(probs[np.arange(len(leaves))[:, None], np.arange(n),
                                    y]).mean(axis=1)
    d_w = np.stack([p.w_per.w for p in personals]) - w_cla.w
    d_b = np.stack([p.w_per.b for p in personals]) - w_cla.b
    sq = np.sum(d_w * d_w, axis=(1, 2)) + np.sum(d_b * d_b, axis=1)
    lam = np.array([p.lam for p in personals])
    return nll + 0.5 * lam * (sq if penalty == "squared" else np.sqrt(sq))


def pfl_loss(data: LocalDataset, w_cla: ModelParams, personal: PersonalState,
             penalty: str = "squared") -> float:
    """Mean negative log-likelihood plus the proximal pull on w_per.

    With penalty="squared" the pull is (lambda/2) * ||w_per - w_cla||_F^2
    over all parameters; penalty="norm" uses the unsquared Frobenius norm.
    """
    return float(pfl_losses([data], w_cla, [personal], penalty)[0])


def _grad(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray,
          w_per: np.ndarray, b_per: np.ndarray, lam: np.ndarray, penalty: str):
    """Gradients of pfl_loss for B leaves at once, on raw stacked arrays.

    x is (B, n, H) with labels y (B, n); w and w_per are (B, L, H), b and
    b_per (B, L); lam is (B,). Returns (grad_w, grad_b, grad_w_per,
    grad_b_per). Leaf i's slices equal the B=1 call on leaf i alone, bit for
    bit: every product is a per-leaf matmul and every sum runs in the same
    order as on a single leaf.
    """
    nb, n = y.shape
    dlogits = _softmax(x @ w.transpose(0, 2, 1) + b[:, None, :])
    dlogits[np.arange(nb)[:, None], np.arange(n), y] -= 1.0
    dlogits /= n
    dw, db = w_per - w, b_per - b
    if penalty == "squared":
        pull = lam
    else:
        norm = np.sqrt((dw * dw).sum(axis=(1, 2)) + (db * db).sum(axis=1))
        pull = np.where(norm > 0, 0.5 * lam / np.where(norm > 0, norm, 1.0), 0.0)
    pull_w, pull_b = pull[:, None, None] * dw, pull[:, None] * db
    return (dlogits.transpose(0, 2, 1) @ x - pull_w, dlogits.sum(axis=1) - pull_b,
            pull_w, pull_b)


def pfl_grad(data: LocalDataset, w_cla: ModelParams, personal: PersonalState,
             penalty: str = "squared") -> tuple[ModelParams, ModelParams]:
    """Exact analytic gradients of pfl_loss w.r.t. (w_cla, w_per)."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    _check_penalty(penalty)
    gw, gb, gw_per, gb_per = _grad(data.x[None], data.y[None], w_cla.w[None],
                                   w_cla.b[None], personal.w_per.w[None],
                                   personal.w_per.b[None],
                                   np.array([personal.lam]), penalty)
    return ModelParams(gw[0], gb[0]), ModelParams(gw_per[0], gb_per[0])


def local_finetune(datas: list[LocalDataset], w_start: ModelParams,
                   personals: list[PersonalState], steps: int, batch,
                   rngs: Iterable[np.random.Generator], penalty: str = "squared",
                   ) -> list[tuple[ModelParams, PersonalState]]:
    """Fine-tune every leaf of a round from the shared head w_start.

    Leaf i runs `steps` joint mini-batch gradient steps on datas[i], from
    personals[i]. `batch` is one size for every leaf or one per leaf, each in
    [1, len(data)]. `rngs` yields one generator per leaf, in leaf order; leaf
    i draws each step's sorted minibatch with one `choice` on its generator
    (no draw when the batch is the whole dataset), and the generator is not
    used after that, so a lazy iterable keeps only one alive. Returns one
    (delta, new state) per leaf: delta = w_start - w_final is the update the
    leaf uploads, and the personalized copy advances by the same step rule.

    Leaves that share a batch size step together on stacked (B, batch, H)
    arrays; each leaf's result equals a run on that leaf alone, bit for bit.
    The arguments are checked once per call and the results for finiteness
    on return, so a diverging leaf raises ValueError.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    _check_penalty(penalty)
    if len(personals) != len(datas):
        raise ValueError("need one personal state per dataset")
    batches = np.broadcast_to(batch, (len(datas),))
    for data, size in zip(datas, batches):
        if not 1 <= size <= len(data):
            raise ValueError("batch must be in [1, len(data)]")
    draws = []  # per leaf: (steps, batch) sorted row indices, or None
    for data, size, rng in zip(datas, batches, rngs, strict=True):
        idx = None
        if size < len(data):
            idx = np.empty((steps, size), dtype=np.int64)
            for step in range(steps):
                idx[step] = rng.choice(len(data), size=size, replace=False)
            idx.sort(axis=-1)
        draws.append(idx)
    by_batch: dict[int, list[int]] = {}
    for i, size in enumerate(batches):
        by_batch.setdefault(int(size), []).append(i)
    out: list = [None] * len(datas)
    for size, leaves in by_batch.items():
        results = _finetune_stack([datas[i] for i in leaves], w_start,
                                  [personals[i] for i in leaves], steps, size,
                                  [draws[i] for i in leaves], penalty)
        for i, res in zip(leaves, results):
            out[i] = res
    return out


def _finetune_stack(datas, w_start, personals, steps, batch, draws, penalty):
    """local_finetune for leaves that share one batch size."""
    nb = len(datas)
    # The minibatch rows of every leaf, gathered anew at each step; a leaf
    # whose batch is its whole dataset is written once.
    x = np.empty((nb, batch, w_start.dim))
    y = np.empty((nb, steps, batch), dtype=np.int64)
    for i, (data, idx) in enumerate(zip(datas, draws)):
        if idx is None:
            x[i], y[i] = data.x, data.y
        else:
            y[i] = data.y[idx]
    drawn = [i for i, idx in enumerate(draws) if idx is not None]
    lam = np.array([p.lam for p in personals])
    eta = np.array([p.eta_local for p in personals])
    eta_w, eta_b = eta[:, None, None], eta[:, None]
    d_w = np.zeros((nb,) + w_start.w.shape)
    d_b = np.zeros((nb,) + w_start.b.shape)
    p_w = np.stack([p.w_per.w for p in personals])
    p_b = np.stack([p.w_per.b for p in personals])
    for step in range(steps):
        for i in drawn:
            x[i] = datas[i].x[draws[i][step]]
        gw, gb, gw_per, gb_per = _grad(x, y[:, step], w_start.w - d_w,
                                       w_start.b - d_b, p_w, p_b, lam, penalty)
        d_w, d_b = d_w + eta_w * gw, d_b + eta_b * gb
        p_w, p_b = p_w - eta_w * gw_per, p_b - eta_b * gb_per
    return [(ModelParams(d_w[i], d_b[i]),
             PersonalState(ModelParams(p_w[i], p_b[i]), p.lam, p.eta_local))
            for i, p in enumerate(personals)]


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
