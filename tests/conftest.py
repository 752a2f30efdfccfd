import ctypes
import glob
import os

import numpy as np
import pytest
from hypothesis import settings

from dhtfed import fedagg
from dhtfed.fedagg import SocialGraph
from dhtfed import model
from dhtfed.model import ModelParams, NodeData
from dhtfed.overlay import Overlay, hex_id, random_ids
from dhtfed.simnet import LinkModel, Simulator
from dhtfed.tree import TreeConfig, TreeManager


# `pytest --hypothesis-profile vote-2000` (or `model-2000`, or `route-2000`)
# gives every test that leaves max_examples to the profile 2000 examples: the
# vote-equivalence test in test_fedagg.py, the model-path equivalence tests
# in test_model.py, and the route-memo twin and patch-rule tests in
# test_overlay.py.
# `churn-1000` gives 1000 to the churn property tests in test_harness.py and
# test_tree.py. Tier-1 runs keep hypothesis's default of 100.
settings.register_profile("vote-2000", max_examples=2000)
settings.register_profile("model-2000", max_examples=2000)
settings.register_profile("route-2000", max_examples=2000)
settings.register_profile("churn-1000", max_examples=1000)


def numeric_platform() -> str:
    """The numeric kernels this process runs, which the last bits of the
    pinned digests depend on: OpenBLAS's core name, read through ctypes from
    numpy's bundled library, then numpy's baseline and the dispatch targets
    active here."""
    from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                               __cpu_features__)
    core = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if libs:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    active = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return f"OpenBLAS {core}; numpy {' '.join(__cpu_baseline__)} + {' '.join(active)}"


# The platform every digest, round-log hash and records pin was measured on.
PINNED_PLATFORM = "OpenBLAS SkylakeX; numpy X86_V2 + X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def platforms() -> str:
    """A failed pin's message: the pins' platform and this one."""
    return f"pinned on {PINNED_PLATFORM}; running on {numeric_platform()}"


def build_world(n, fanout=16, seed=42, intercept=True, group="g",
                lat=(10.0, 50.0), bandwidth=1048.576, heartbeat=1000.0,
                timeout=3000.0, keep_trace=False):
    """Overlay + simulator + one fully joined tree; returns the lot."""
    ids = random_ids(n, seed)
    overlay = Overlay.build(ids)
    sim = Simulator(seed=seed, link=LinkModel(lat[0], lat[1], bandwidth),
                    alive=overlay.is_alive, keep_trace=keep_trace)
    trees = TreeManager(overlay, sim, TreeConfig(
        fanout_cap=fanout, heartbeat_period=heartbeat,
        failure_timeout=timeout, intercept_joins=intercept))
    gid, root = trees.create_group(group)
    for nid in ids:
        if nid != root:
            trees.join_group(nid, gid)
    return ids, overlay, sim, trees, gid, root


def gaussian_data(ids, hidden_dim, seed, n_per_node=40, spread=1.5):
    """Linearly separable per-node datasets along the first axis, stacked
    as the harness stacks node data."""
    ids = sorted(ids)
    x = np.empty((len(ids), n_per_node, hidden_dim))
    y = np.empty((len(ids), n_per_node), dtype=np.int64)
    axis = np.eye(hidden_dim)[0]
    for i, nid in enumerate(ids):
        rng = np.random.default_rng([seed, nid])
        y[i] = rng.integers(0, 2, size=n_per_node)
        x[i] = rng.normal(size=(n_per_node, hidden_dim))
        x[i] += np.where(y[i, :, None] == 1, spread, -spread) * axis
    return NodeData(ids, x, y)


def finetune_datasets(datas, w_start, w_pers, lam, eta_local, steps, batch, keys,
                      penalty="squared"):
    """`local_finetune` on a list of datasets, each with its personal head,
    its batch size (or one for all) and its key: the datasets that share a
    size and a batch are stacked and fine-tuned in one call, with the seeds
    of their keys. Returns one (delta, new personal head) per dataset."""
    if not len(datas) == len(w_pers) == len(keys):
        raise ValueError("need one personal head and one key per dataset")
    batches = np.broadcast_to(batch, (len(datas),)).tolist()
    seeds = model._fold_keys(keys)
    groups = {}
    for i, (data, size) in enumerate(zip(datas, batches)):
        groups.setdefault((len(data), size), []).append(i)
    out = [None] * len(datas)
    for (_n, size), group in groups.items():
        d_w, d_b, p_w, p_b = model.local_finetune(
            np.stack([datas[i].x for i in group]), np.stack([datas[i].y for i in group]),
            np.arange(len(group)), w_start, np.stack([w_pers[i].w for i in group]),
            np.stack([w_pers[i].b for i in group]), lam, eta_local, steps, size,
            seeds[group], penalty)
        for k, i in enumerate(group):
            out[i] = (ModelParams(d_w[k], d_b[k]), ModelParams(p_w[k], p_b[k]))
    return out


def draw_rows(n, size, steps, key):
    """The (steps, size) minibatch rows of one key, drawn alone; None when
    the batch is the whole dataset."""
    if size == n:
        return None
    return model.draw_minibatches(n, size, steps, model._fold_keys([key]))[0]


def inject_deltas(monkeypatch, data, deltas):
    """Make every later round of a session over `data` upload `deltas[leaf]`
    from each leaf instead of its fine-tuned update, and keep each leaf's
    personal head. `deltas` is read at each round, so a caller may refill
    it between rounds."""

    def finetune(_x, _y, rows, _w_start, w_per, b_per, *_args):
        leaves = [deltas[data.ids[r]] for r in rows]
        return (np.stack([d.w for d in leaves]), np.stack([d.b for d in leaves]),
                w_per[rows], b_per[rows])

    monkeypatch.setattr(fedagg, "local_finetune", finetune)


def round_aggregate(session, run_round):
    """(root aggregate, round metrics) of one round. With eta=1 and a zero
    head, the round leaves exactly minus the aggregate as the new head."""
    assert session.cfg.eta == 1.0
    session.global_params = ModelParams.zeros(session.hidden_dim)
    metrics = run_round()
    return ModelParams.zeros(session.hidden_dim) - session.global_params, metrics


def complete_graph(ids):
    """The social graph in which every leaf is friends with every other."""
    ids = sorted(ids)
    return SocialGraph({n: set(ids) - {n} for n in ids})


def edge_lines(trees, gid):
    """The tree's parent/child edges as `parent<TAB>child` lines of hex
    ids, in depth-first order from the root, each child list read last to
    first off a stack."""
    group = trees.group(gid)
    lines = []
    stack = [group.root]
    while stack:
        nid = stack.pop()
        for c in group.members[nid].children:
            lines.append(f"{hex_id(nid)}\t{hex_id(c)}\n")
            stack.append(c)
    return "".join(lines)


def live_children(trees, gid):
    """Each member's live children, as the round protocols see them."""
    group = trees.group(gid)
    return {m: [c for c in mem.children if trees.overlay.is_alive(c)]
            for m, mem in group.members.items()}


@pytest.fixture
def small_world():
    return build_world(20, fanout=4, seed=7)
