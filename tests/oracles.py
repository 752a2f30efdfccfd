"""Independent reference implementations used to check the package.

Everything here recomputes expected values from first principles (string
digit comparison, exhaustive scans, explicit recursions, boolean matrix
powers) rather than reusing the code paths under test. The per-leaf
references for fine-tuning and voting build on the public single-leaf
calls (`pfl_grad`, `forward_batch`), so they check the stacked multi-leaf
paths against one leaf at a time. `loss_reference` is the per-leaf loss
formula as it stood before the loss was stacked, `points_reference` the
point generator's formula as it stood before it drew in place,
`patch_reference` the patch of a dead routing cell as it stood when it
searched the table as well as the leaf set, `gossip_reference` the
decentralized round as it stood with set-valued contributor buffers, and
`vote_reference` the ensemble vote as it stood with a softmax for every
head.
"""

from bisect import bisect_left
from functools import partial

import numpy as np

from dhtfed.model import (LocalDataset, ModelParams, forward_batch, forward_heads,
                          pfl_grad)
from dhtfed.overlay import LEAF_SIDE, Overlay, RoutingTable

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


def patch_reference(owner, row, col, members, entries, alive):
    """The peer that a vacated routing cell (row, col) of owner's table gets,
    by the rule as it stood when a patch searched every known peer: the
    smallest live one among the leaf set `members` and the table's
    `entries` that shares exactly `row` digits with owner and has digit
    `col` next, or None."""
    return min((p for p in set(members) | set(entries)
                if alive(p) and prefix_digits(owner, p) == row
                and int(format(p, "032x")[row], 16) == col), default=None)


def build_reference(ids, leaf_side=LEAF_SIDE):
    """The converged overlay as first built: dense 32x16 routing rows whose
    cells come from hex-string prefix buckets, one nearest-on-the-ring
    search per cell (ties to the smaller id), and the sorted ids as the
    ring that leaf sets are read from."""
    ov = Overlay(leaf_side)
    ordered = sorted(ids)
    for nid in ordered:
        table = ov.nodes[nid] = RoutingTable(nid)
        table.rows = [[None] * 16 for _ in range(32)]
    ov._live.update(ordered)
    ov._ring = ordered
    n = len(ordered)
    if n <= 1:
        return ov

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
        rows = ov.nodes[nid].rows
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
                rows[row][col] = min(
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


def finetune_reference(data, w_start, w_per, lam, eta_local, steps, rows,
                       penalty="squared"):
    """One leaf's fine-tuning, one step at a time: ModelParams arithmetic
    and pfl_grad on a fresh LocalDataset per minibatch, step s on the rows
    rows[s], or on the whole dataset when rows is None. Returns (delta, new
    personal head)."""
    delta = ModelParams.zeros(w_start.w.shape[1], w_start.w.shape[0])
    for step in range(steps):
        minibatch = data
        if rows is not None:
            minibatch = LocalDataset(data.x[rows[step]], data.y[rows[step]])
        g_cla, g_per = pfl_grad(minibatch, w_start - delta, w_per, lam, penalty)
        delta = delta + eta_local * g_cla
        w_per = w_per - eta_local * g_per
    return delta, w_per


def floyd_reference(n, size, words):
    """Floyd's sample of `size` from range(n) as a loop over one step's
    32-bit words: the t-th pick is (words[t] * (j + 1)) >> 32 for the t-th j
    in [n - size, n), or j when that value is already taken. Sorted."""
    taken = set()
    for u, j in zip(words, range(n - size, n)):
        v = (u * (j + 1)) >> 32
        taken.add(j if v in taken else v)
    return sorted(taken)


def tree_tally(children, root, leaf_probs, n):
    """The vote tally as plain recursion: a node adds its own one-hot vote
    (if it votes) and then each child's tally, in child order. Returns
    (counts, mass)."""

    def visit(nid):
        counts, mass = np.zeros((n, 2)), np.zeros((n, 2))
        if nid in leaf_probs:
            counts[np.arange(n), np.argmax(leaf_probs[nid], axis=1)] += 1.0
            mass += leaf_probs[nid]
        for child in children.get(nid, []):
            c_counts, c_mass = visit(child)
            counts += c_counts
            mass += c_mass
        return counts, mass

    return visit(root)


def loss_reference(data, w_cla, w_per, lam, penalty="squared"):
    """One leaf's loss: the mean negative log-likelihood of its labels under
    forward_batch, plus (lam/2) times the squared Frobenius distance of
    w_per from w_cla, or the unsquared one for penalty="norm", all in
    ModelParams arithmetic."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    probs = forward_batch(data.x, w_cla)
    nll = -float(np.mean(np.log(probs[np.arange(len(data)), data.y])))
    diff = w_per - w_cla
    sq = float(np.sum(diff.w * diff.w) + np.sum(diff.b * diff.b))
    if penalty == "squared":
        return nll + 0.5 * lam * sq
    return nll + 0.5 * lam * np.sqrt(sq)


def points_reference(spec, n, rng):
    """One share of `harness._write_points` as a formula: fair-coin labels,
    each row its class mean plus cov_scale times a `normal` draw."""
    y = rng.integers(0, 2, size=n)
    means = np.where(y[:, None] == 1, spec.mean1, spec.mean0)
    return means + spec.cov_scale * rng.normal(size=(n, spec.mean0.size)), y


def gossip_reference(session, social, k):
    """`FederatedSession.decentralized_round` as it stood with contributor
    sets: a leaf's buffer is a Python set, a hop's snapshot of each sender
    is its sorted tuple, a merge is `set.update`, and the root sums the
    sorted union. Runs one round on `session`, with the same sends in the
    same order, and returns (metrics, log); log lists every message as
    (src, dst, contributors, round)."""
    from dhtfed.fedagg import DECENTRALIZED, AggregateMessage, branch_aggregate, root_update
    from dhtfed.model import param_nbytes
    from dhtfed.simnet import AGG_UP

    sim, rnd = session.sim, session.round
    root = session.trees.group(session.gid).root
    leaves = session.contributing_leaves()
    sim.reset_counters()
    t0 = sim.now
    log = []
    payloads = dict(zip(leaves, session._leaf_payloads(leaves)))
    buffers = {nid: {nid} for nid in leaves}
    param_bytes = 32 + param_nbytes(session.hidden_dim)
    gossipers = [n for n in leaves if social.friends.get(n)]
    is_gossiper = set(gossipers)
    links = [(friend, receiver) for receiver in gossipers
             for friend in sorted(social.friends[receiver]) if friend in is_gossiper]

    for _hop in range(k):
        snapshots = {n: tuple(sorted(buffers[n])) for n in gossipers}
        msgs = []
        for friend, receiver in links:
            log.append((friend, receiver, snapshots[friend], rnd))
            msgs.append((friend, receiver, param_bytes + 16 * len(snapshots[friend])))

        def merge(i, snapshots=snapshots):
            friend, receiver = links[i]
            buffers[receiver].update(snapshots[friend])

        sim.send_many(msgs, merge, AGG_UP)
        sim.run()

    root_contrib = set()

    def forward(hops, contribs, nbytes):
        """Send along the remaining route links; the root merges at the end."""
        frm, dst = hops[0]
        log.append((frm, dst, contribs, rnd))
        then = (partial(forward, hops[1:], contribs, nbytes) if len(hops) > 1
                else partial(root_contrib.update, contribs))
        sim.send(frm, dst, nbytes, then, kind=AGG_UP)

    for nid in sorted(leaves):
        contribs = tuple(sorted(buffers[nid]))
        path = [] if nid == root else session.overlay.route(nid, root).hops
        if path:
            forward(list(zip([nid] + path, path)), contribs,
                    param_bytes + 16 * len(contribs))
        else:
            sim.schedule(0.0, partial(root_contrib.update, contribs))
    sim.run()

    aggregate = branch_aggregate(
        [AggregateMessage(session.gid, rnd, payloads[cid], 1)
         for cid in sorted(root_contrib)], session.cfg.agg_mode)
    root_latency = sim.now - t0
    session.global_params = root_update(session.global_params, aggregate,
                                        session.cfg.eta, expected_round=rnd)
    mc = session.trees.multicast(session.gid, param_nbytes(session.hidden_dim))
    sim.run()
    metrics = session._metrics(DECENTRALIZED, leaves, aggregate.weight,
                               root_latency, mc.elapsed)
    session.round += 1
    return metrics, log


def vote_reference(session, x):
    """`FederatedSession.ensemble_infer` as it stood with a softmax for
    every head: the voters' heads go `INFER_CHUNK` at a time through
    `forward_heads`, a head votes 1 where p1 > p0, and the probability mass
    adds up the tree at every node, child by child, to break ties. Returns
    (labels, counts). The session is left untouched."""
    from dhtfed.fedagg import INFER_CHUNK

    group = session.trees.group(session.gid)
    leaf_set = set(session.contributing_leaves())
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    voters = []
    stack = [group.root]
    while stack:
        nid = stack.pop()
        if nid in leaf_set:
            voters.append(nid)
        stack.extend(reversed(group.members[nid].children))

    ones = np.zeros(n, dtype=np.int64)

    def leaf_probs():
        nonlocal ones
        for i in range(0, len(voters), INFER_CHUNK):
            heads = [session.personal[v] for v in voters[i:i + INFER_CHUNK]]
            probs = forward_heads(x, np.stack([h.w for h in heads]),
                                  np.stack([h.b for h in heads]))
            ones += np.count_nonzero(probs[..., 1] > probs[..., 0], axis=0)
            yield from probs

    probs_in_order = leaf_probs()

    def mass_tally(nid):
        if nid in leaf_set:
            return next(probs_in_order)
        mass = np.zeros((n, 2))
        for child in group.members[nid].children:
            mass += mass_tally(child)
        return mass

    mass = mass_tally(group.root)
    counts = np.stack([len(voters) - ones, ones], axis=1).astype(np.float64)
    labels = np.where(
        counts[:, 1] > counts[:, 0], 1,
        np.where(counts[:, 0] > counts[:, 1], 0,
                 np.where(mass[:, 1] > mass[:, 0], 1, 0)),
    )
    return labels.astype(np.int64), counts
