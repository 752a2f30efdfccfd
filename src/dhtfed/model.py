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
        if self.y.size and not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be binary")

    def __len__(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_examples(cls, examples: list[Example], topic_id: int = 0) -> "LocalDataset":
        return cls(np.stack([e.x for e in examples]),
                   np.array([e.y for e in examples]), topic_id)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (n, L) logit array, overwriting it."""
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def forward(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class probabilities for one feature vector (softmax of w @ x + b)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.dim,):
        raise ValueError(f"feature dim {x.shape} does not match H={params.dim}")
    return _softmax((params.w @ x + params.b)[None])[0]


def forward_batch(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """(n, L) class probabilities for a batch of feature rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ValueError("batch must be (n, H)")
    return _softmax(x @ params.w.T + params.b)


def _proximal(w_cla: ModelParams, personal: PersonalState, penalty: str) -> float:
    diff = personal.w_per - w_cla
    if penalty == "squared":
        return 0.5 * personal.lam * diff.sq_norm()
    if penalty == "norm":
        return 0.5 * personal.lam * np.sqrt(diff.sq_norm())
    raise ValueError(f"unknown penalty {penalty!r}")


def pfl_loss(data: LocalDataset, w_cla: ModelParams, personal: PersonalState,
             penalty: str = "squared") -> float:
    """Mean negative log-likelihood plus the proximal pull on w_per.

    With penalty="squared" the pull is (lambda/2) * ||w_per - w_cla||_F^2
    over all parameters; penalty="norm" uses the unsquared Frobenius norm.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    probs = forward_batch(data.x, w_cla)
    nll = -float(np.mean(np.log(probs[np.arange(len(data)), data.y])))
    return nll + _proximal(w_cla, personal, penalty)


def _grad(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray,
          w_per: np.ndarray, b_per: np.ndarray, lam: float, penalty: str):
    """Array form of pfl_grad: (grad_w, grad_b, grad_w_per, grad_b_per)."""
    n = x.shape[0]
    dlogits = _softmax(x @ w.T + b)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dw, db = w_per - w, b_per - b
    if penalty == "squared":
        pull = lam
    elif penalty == "norm":
        norm = np.sqrt(float(np.sum(dw * dw) + np.sum(db * db)))
        pull = 0.5 * lam / norm if norm > 0 else 0.0
    else:
        raise ValueError(f"unknown penalty {penalty!r}")
    pull_w, pull_b = pull * dw, pull * db
    return dlogits.T @ x - pull_w, dlogits.sum(axis=0) - pull_b, pull_w, pull_b


def pfl_grad(data: LocalDataset, w_cla: ModelParams, personal: PersonalState,
             penalty: str = "squared") -> tuple[ModelParams, ModelParams]:
    """Exact analytic gradients of pfl_loss w.r.t. (w_cla, w_per)."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    gw, gb, gw_per, gb_per = _grad(data.x, data.y, w_cla.w, w_cla.b,
                                   personal.w_per.w, personal.w_per.b,
                                   personal.lam, penalty)
    return ModelParams(gw, gb), ModelParams(gw_per, gb_per)


def local_finetune(data: LocalDataset, w_start: ModelParams, personal: PersonalState,
                   steps: int, batch: int, rng: np.random.Generator,
                   penalty: str = "squared") -> tuple[ModelParams, PersonalState]:
    """Run `steps` joint mini-batch gradient steps; returns (delta, new state).

    delta = w_start - w_final is the update a leaf uploads for aggregation;
    the personalized copy advances by the same step rule. Deterministic for
    a given generator state. The steps run on raw arrays; the results are
    checked for finiteness once, on return.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = len(data)
    if batch < 1 or batch > n:
        raise ValueError("batch must be in [1, len(data)]")
    eta, lam = personal.eta_local, personal.lam
    d_w, d_b = np.zeros_like(w_start.w), np.zeros_like(w_start.b)
    p_w, p_b = personal.w_per.w, personal.w_per.b
    x, y = data.x, data.y
    for _ in range(steps):
        if batch < n:
            idx = np.sort(rng.choice(n, size=batch, replace=False))
            x, y = data.x[idx], data.y[idx]
        gw, gb, gw_per, gb_per = _grad(x, y, w_start.w - d_w, w_start.b - d_b,
                                       p_w, p_b, lam, penalty)
        d_w, d_b = d_w + eta * gw, d_b + eta * gb
        p_w, p_b = p_w - eta * gw_per, p_b - eta * gb_per
    return (ModelParams(d_w, d_b),
            PersonalState(ModelParams(p_w, p_b), lam, eta))


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
