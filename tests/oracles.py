"""Independent reference implementations used to check the package.

Everything here recomputes expected values from first principles (string
digit comparison, exhaustive scans, explicit recursions, boolean matrix
powers) rather than reusing the code paths under test. The per-leaf
references for fine-tuning and voting build on the public single-leaf
calls (`pfl_grad`, `forward_batch`), so they check the stacked multi-leaf
paths against one leaf at a time. `loss_reference` is the per-leaf loss
formula as it stood before the loss was stacked.
"""

from bisect import bisect_left

import numpy as np

from dhtfed.model import LocalDataset, ModelParams, forward_batch, pfl_grad
from dhtfed.overlay import LEAF_SIDE, Overlay

ID_SPACE = 1 << 128


def circ_dist(a: int, b: int) -> int:
    d = abs(a - b)
    return min(d, ID_SPACE - d)


def closest_id(ids, key):
    """Exhaustive scan for the id minimizing circular distance (tie: smaller)."""
    best = None
    best_key = None
    for nid in ids:
        k = (circ_dist(nid, key), nid)
        if best_key is None or k < best_key:
            best_key = k
            best = nid
    return best


def prefix_digits(a: int, b: int) -> int:
    """Shared-prefix length by direct string digit comparison."""
    ha, hb = format(a, "032x"), format(b, "032x")
    n = 0
    for ca, cb in zip(ha, hb):
        if ca != cb:
            break
        n += 1
    return n


def ring_neighbors(sorted_ids, nid, per_side):
    """The true per_side nearest ids each way around the ring."""
    n = len(sorted_ids)
    i = sorted_ids.index(nid)
    want = set()
    for k in range(1, min(per_side, n - 1) + 1):
        want.add(sorted_ids[(i + k) % n])
        want.add(sorted_ids[(i - k) % n])
    want.discard(nid)
    return want


def leaf_sides(owner, members, per_side):
    """The per_side members nearest to owner going up, and going down the
    ring, each found by sorting every member by its offset from owner."""
    up = sorted(members, key=lambda m: (m - owner) % ID_SPACE)[:per_side]
    down = sorted(members, key=lambda m: (owner - m) % ID_SPACE)[:per_side]
    return up, down


def leaf_covers(owner, members, per_side, key):
    """Whether key lies within the farthest kept member on either side."""
    if not members:
        return True
    up, down = leaf_sides(owner, members, per_side)
    up_span = max((m - owner) % ID_SPACE for m in up)
    down_span = max((owner - m) % ID_SPACE for m in down)
    return (key - owner) % ID_SPACE <= up_span or (owner - key) % ID_SPACE <= down_span


def leaf_set_next_hop(owner, members, alive, key):
    """The leaf-set routing step as a plain min: the owner or a live member,
    whichever is closest to key (ties to the smaller id); None if the owner."""
    best = min([owner] + [m for m in members if alive(m)],
               key=lambda m: (circ_dist(m, key), m))
    return None if best == owner else best


def build_reference(ids, leaf_side=LEAF_SIDE):
    """The converged overlay as first built: leaf sets from each id's ring
    neighbours offered through `LeafSet.add_many`, and dense 32x16 routing
    rows whose cells come from hex-string prefix buckets, one nearest-on-
    the-ring search per cell (ties to the smaller id)."""
    ov = Overlay(leaf_side)
    ordered = sorted(ids)
    for nid in ordered:
        node = ov.nodes[nid] = ov._new_node(nid)
        node.routing_table.rows = [[None] * 16 for _ in range(32)]
    ov._live.update(ordered)
    n = len(ordered)
    if n <= 1:
        return ov

    for i, nid in enumerate(ordered):
        node = ov.nodes[nid]
        if n - 1 <= 2 * leaf_side:
            node.leaf_set.add_many(x for x in ordered if x != nid)
        else:
            neigh = [ordered[(i + k) % n] for k in range(1, leaf_side + 1)]
            neigh += [ordered[(i - k) % n] for k in range(1, leaf_side + 1)]
            node.leaf_set.add_many(neigh)

    # Prefix buckets deep enough to cover the longest shared prefix.
    max_shared = max(
        prefix_digits(ordered[i], ordered[(i + 1) % n]) for i in range(n)
    )
    buckets = {}
    for nid in ordered:
        h = format(nid, "032x")
        for depth in range(1, max_shared + 2):
            buckets.setdefault(h[:depth], []).append(nid)

    hexdigits = "0123456789abcdef"
    for nid in ordered:
        node = ov.nodes[nid]
        h = format(nid, "032x")
        for row in range(max_shared + 1):
            for col, cd in enumerate(hexdigits):
                if cd == h[row]:
                    continue
                bucket = buckets.get(h[:row] + cd)
                if not bucket:
                    continue
                # The nearest member is the first one met going up the ring
                # from nid's insertion point or going down from it.
                i = bisect_left(bucket, nid)
                up, down = bucket[i % len(bucket)], bucket[i - 1]
                node.routing_table.rows[row][col] = min(
                    up, down, key=lambda m: (circ_dist(m, nid), m))
    return ov


def subtree_size(children, alive, nid):
    """Members reachable from nid through live children, nid included."""
    return 1 + sum(subtree_size(children, alive, c)
                   for c in children.get(nid, ()) if alive(c))


def walk_tree(children, root):
    """Recursive walk: (member count, depth, max fanout, per-depth histogram)."""
    hist = {}
    max_fan = [0]

    def visit(nid, d):
        hist[d] = hist.get(d, 0) + 1
        kids = children.get(nid, [])
        max_fan[0] = max(max_fan[0], len(kids))
        for c in kids:
            visit(c, d + 1)

    visit(root, 0)
    count = sum(hist.values())
    depth = max(hist) if hist else 0
    return count, depth, max_fan[0], hist


def flat_mean(arrays):
    return np.mean(np.stack(list(arrays)), axis=0)


def branch_aggregate_reference(payloads, weights, mode):
    """The branch aggregate in ModelParams arithmetic, as it stood before
    branch_aggregate summed raw arrays: each payload times its scale
    (1/count unweighted, weight/total weighted), added in message order."""
    total = sum(weights)
    scales = ([1.0 / len(payloads)] * len(payloads) if mode == "unweighted"
              else [wt / total for wt in weights])
    out = payloads[0] * scales[0]
    for params, scale in zip(payloads[1:], scales[1:]):
        out = out + params * scale
    return out


def recursive_average(children, root, leaf_values):
    """Unweighted per-level averaging down-up, as plain recursion."""

    def visit(nid):
        vals = [visit(c) for c in children.get(nid, [])]
        vals = [v for v in vals if v is not None]
        if nid in leaf_values:
            vals.append(leaf_values[nid])
        if not vals:
            return None
        if len(vals) == 1:
            return vals[0]
        return sum(vals[1:], start=vals[0]) / len(vals)

    return visit(root)


def central_difference(fn, arrays, step=1e-6):
    """Central-difference gradients of fn() w.r.t. each array, elementwise."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + step
            up = fn()
            arr[i] = orig - step
            down = fn()
            arr[i] = orig
            g[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def flat_majority(votes, masses):
    """Recount: votes is (leaves, n) labels, masses is (leaves, n, 2)."""
    votes = np.asarray(votes)
    masses = np.asarray(masses)
    n = votes.shape[1]
    labels = np.zeros(n, dtype=np.int64)
    for j in range(n):
        c1 = int(np.sum(votes[:, j] == 1))
        c0 = votes.shape[0] - c1
        if c1 > c0:
            labels[j] = 1
        elif c0 > c1:
            labels[j] = 0
        else:
            m = masses[:, j, :].sum(axis=0)
            labels[j] = 1 if m[1] > m[0] else 0
    return labels


def reachable_within(friends, start, hops):
    """Ball of radius `hops` around start (self-inclusive), by frontier growth."""
    ball = {start}
    for _ in range(hops):
        nxt = set(ball)
        for nid in ball:
            nxt |= set(friends.get(nid, ()))
        ball = nxt
    return ball


def finetune_reference(data, w_start, personal, steps, batch, rng,
                       penalty="squared"):
    """One leaf's fine-tuning, one step at a time: ModelParams arithmetic
    and pfl_grad on a fresh LocalDataset per minibatch, drawing one sorted
    `choice` per step unless the batch is the whole dataset. Returns
    (delta, new personal state); the caller's state is left untouched."""
    delta, per = ModelParams.zeros(w_start.dim, w_start.w.shape[0]), personal.copy()
    for _ in range(steps):
        minibatch = data
        if batch < len(data):
            idx = np.sort(rng.choice(len(data), size=batch, replace=False))
            minibatch = LocalDataset(data.x[idx], data.y[idx])
        g_cla, g_per = pfl_grad(minibatch, w_start - delta, per, penalty)
        delta = delta + per.eta_local * g_cla
        per.w_per = per.w_per - per.eta_local * g_per
    return delta, per


def tree_tally(children, root, leaf_probs, n):
    """The vote tally as plain recursion: a node adds its own one-hot vote
    (if it votes) and then each child's tally, in child order. Returns
    (counts, mass, edges, voters); edges lists (child, parent) in the order
    the children's tallies are passed up, voters the voting nodes in the
    order they are visited."""
    edges, voters = [], []

    def visit(nid):
        counts, mass = np.zeros((n, 2)), np.zeros((n, 2))
        if nid in leaf_probs:
            voters.append(nid)
            counts[np.arange(n), np.argmax(leaf_probs[nid], axis=1)] += 1.0
            mass += leaf_probs[nid]
        for child in children.get(nid, []):
            c_counts, c_mass = visit(child)
            counts += c_counts
            mass += c_mass
            edges.append((child, nid))
        return counts, mass

    counts, mass = visit(root)
    return counts, mass, edges, voters


def loss_reference(data, w_cla, personal, penalty="squared"):
    """One leaf's loss: the mean negative log-likelihood of its labels under
    forward_batch, plus (lambda/2) times the squared Frobenius distance of
    w_per from w_cla, or the unsquared one for penalty="norm", all in
    ModelParams arithmetic."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    probs = forward_batch(data.x, w_cla)
    nll = -float(np.mean(np.log(probs[np.arange(len(data)), data.y])))
    diff = personal.w_per - w_cla
    if penalty == "squared":
        return nll + 0.5 * personal.lam * diff.sq_norm()
    return nll + 0.5 * personal.lam * np.sqrt(diff.sq_norm())
