import numpy as np
import pytest
from hypothesis import settings

from dhtfed import fedagg
from dhtfed.fedagg import SocialGraph
from dhtfed.model import LocalDataset, ModelParams
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
    """Linearly separable per-node datasets along the first axis."""
    out = {}
    rng0 = np.random.default_rng(seed)
    axis = np.eye(hidden_dim)[0]
    for nid in sorted(ids):
        rng = np.random.default_rng([seed, nid])
        y = rng.integers(0, 2, size=n_per_node)
        x = rng.normal(size=(n_per_node, hidden_dim))
        x += np.where(y[:, None] == 1, spread, -spread) * axis
        out[nid] = LocalDataset(x, y)
    del rng0
    return out


def inject_deltas(monkeypatch, data, deltas):
    """Make every later round of a session over `data` upload `deltas[leaf]`
    from each leaf instead of its fine-tuned update. `deltas` is read at
    each round, so a caller may refill it between rounds."""
    leaf_of = {id(d): nid for nid, d in data.items()}

    def finetune(datas, _w_start, personals, *_args):
        return [(deltas[leaf_of[id(d)]], p) for d, p in zip(datas, personals)]

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
