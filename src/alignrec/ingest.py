"""Timestamped interaction data: loading, filtering, splitting, batching.

Datasets are plain immutable-by-convention containers over numpy arrays and
python lists; every function here is pure and safe to call concurrently.
Item index 0 is reserved for padding throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import is_number, non_negative, positive, type_problems

PAD_INDEX = 0


class IngestError(ValueError):
    pass


@dataclass
class UserRecord:
    user_id: str
    item_indices: list          # dense indices into the vocabulary, >= 1
    timestamps: list            # integer seconds, non-decreasing

    def __len__(self):
        return len(self.item_indices)


@dataclass
class InteractionDataset:
    """Per-user chronological sequences plus the item vocabulary.

    vocab maps item_id -> dense index in [1, n_items]; index 0 is padding.
    vocab_size includes the padding slot.
    """
    users: list
    vocab: dict

    @property
    def vocab_size(self):
        return len(self.vocab) + 1

    @property
    def n_interactions(self):
        return sum(len(u) for u in self.users)


@dataclass
class Example:
    """One (input sequence -> next item) instance."""
    user_id: str
    items: list
    timestamps: list
    target_item: int
    target_timestamp: int


@dataclass
class SplitDataset:
    train: list
    valid: list
    test: list


@dataclass
class Batch:
    """Left-padded batch with interval ground truth: every row's last valid
    item sits at position L-1, so the model reads each row's last step by
    slicing.

    T has L+1 columns: column j holds the time gap ending at position j,
    with the row's first valid position set to 0 (no earlier event is
    known) and column L holding target_timestamp - last input timestamp.
    t_elig marks the T columns that participate in the pairwise time loss.
    """
    items: np.ndarray             # (m, L) int64
    mask: np.ndarray              # (m, L) bool
    target_item: np.ndarray       # (m,) int64
    T: np.ndarray                 # (m, L+1) float64
    t_elig: np.ndarray            # (m, L+1) bool

    @property
    def size(self):
        return self.items.shape[0]

    @property
    def seq_len(self):
        return self.items.shape[1]


TSV_COLUMNS = ("user_id", "item_id", "timestamp")


def load_tsv(path):
    """Read a UTF-8 TSV with a header row into an InteractionDataset.

    Per-user sequences are sorted by timestamp (stable: ties keep file
    order); the vocabulary is built in first-seen order, index 0 reserved
    for padding.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise IngestError(f"{path}: cannot read ({e.strerror})") from None
    except UnicodeDecodeError as e:
        raise IngestError(f"{path}: not UTF-8 text ({e.reason})") from None
    if not lines:
        raise IngestError(f"{path}: empty file")
    header = lines[0].split("\t")
    try:
        cols = [header.index(c) for c in TSV_COLUMNS]
    except ValueError as e:
        raise IngestError(f"{path}: missing column in header {header!r}: {e}")
    need = max(cols) + 1

    raw = {}
    order = []
    vocab = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < need:
            raise IngestError(f"{path}:{lineno}: expected {need} columns, got {len(parts)}")
        uid, iid, ts_raw = parts[cols[0]], parts[cols[1]], parts[cols[2]]
        try:
            ts = int(ts_raw)
        except ValueError:
            raise IngestError(f"{path}:{lineno}: timestamp {ts_raw!r} is not an integer")
        if ts < 0:
            raise IngestError(f"{path}:{lineno}: negative timestamp {ts}")
        if ts >= 2 ** 63:
            raise IngestError(f"{path}:{lineno}: timestamp {ts} does not fit in int64")
        if iid not in vocab:
            vocab[iid] = len(vocab) + 1
        if uid not in raw:
            raw[uid] = []
            order.append(uid)
        raw[uid].append((ts, vocab[iid]))
    if not raw:
        raise IngestError(f"{path}: no data rows")

    users = []
    for uid in order:
        rows = sorted(raw[uid], key=lambda r: r[0])  # stable: ties keep file order
        users.append(UserRecord(uid, [i for _, i in rows], [t for t, _ in rows]))
    return InteractionDataset(users=users, vocab=vocab)


def filter_min_interactions(ds, k):
    """Iteratively drop users with < k interactions and items occurring
    < k times, until a fixpoint; the vocabulary is re-densified."""
    if k < 3:
        raise IngestError(f"filter_min_interactions: k must be >= 3, got {k}")
    inv_vocab = {v: key for key, v in ds.vocab.items()}
    users = [(u.user_id, list(u.item_indices), list(u.timestamps)) for u in ds.users]

    while True:
        users = [(uid, items, tss) for uid, items, tss in users if len(items) >= k]
        counts = {}
        for _, items, _ in users:
            for it in items:
                counts[it] = counts.get(it, 0) + 1
        bad = {it for it, c in counts.items() if c < k}
        if not bad:
            break
        pruned = []
        for uid, items, tss in users:
            kept = [(it, ts) for it, ts in zip(items, tss) if it not in bad]
            pruned.append((uid, [it for it, _ in kept], [ts for _, ts in kept]))
        users = pruned

    if not users:
        raise IngestError("dataset exhausted by filtering")

    new_vocab = {}
    out = []
    for uid, items, tss in users:
        remapped = []
        for it in items:
            iid = inv_vocab[it]
            if iid not in new_vocab:
                new_vocab[iid] = len(new_vocab) + 1
            remapped.append(new_vocab[iid])
        out.append(UserRecord(uid, remapped, tss))
    return InteractionDataset(users=out, vocab=new_vocab)


def leave_one_out_split(ds):
    """Hold out each user's last interaction for test and the second-to-last
    for validation; earlier prefixes become training pairs.

    A user [v1..vn] yields train pairs (v1..v_{j-1} -> v_j) for 2 <= j <= n-2,
    so train, valid and test targets plus the first item partition the user's
    interactions exactly.
    """
    train, valid, test = [], [], []
    for u in ds.users:
        n = len(u)
        if n < 3:
            raise IngestError(f"leave_one_out_split: user {u.user_id} has {n} < 3 interactions")
        test.append(Example(u.user_id, u.item_indices[:n - 1], u.timestamps[:n - 1],
                            u.item_indices[n - 1], u.timestamps[n - 1]))
        valid.append(Example(u.user_id, u.item_indices[:n - 2], u.timestamps[:n - 2],
                             u.item_indices[n - 2], u.timestamps[n - 2]))
        for j in range(2, n - 1):  # targets v_2 .. v_{n-2}, 1-indexed
            train.append(Example(u.user_id, u.item_indices[:j - 1], u.timestamps[:j - 1],
                                 u.item_indices[j - 1], u.timestamps[j - 1]))
    return SplitDataset(train=train, valid=valid, test=test)


def make_batches(examples, max_len, batch_size, pad_side="left"):
    """Group examples into left-padded Batch objects.

    Sequences longer than max_len keep their most recent max_len items.
    The interval matrix T is built by integer subtraction of timestamps
    before the float cast. "left" is the only pad_side.
    """
    if max_len < 1:
        raise IngestError(f"make_batches: max_len must be >= 1, got {max_len}")
    if pad_side != "left":
        raise IngestError(f"make_batches: pad_side must be left, got {pad_side!r}")
    batches = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        batches.append(_build_batch(chunk, max_len))
    return batches


def _build_batch(chunk, max_len):
    m = len(chunk)
    trimmed = []
    for ex in chunk:
        items = ex.items[-max_len:]
        tss = ex.timestamps[-max_len:]
        if ex.target_timestamp < tss[-1]:
            raise IngestError(
                f"non-causal target for user {ex.user_id}: "
                f"target at {ex.target_timestamp} before last input at {tss[-1]}")
        trimmed.append((items, tss, ex))
    L = max(len(items) for items, _, _ in trimmed)

    items_m = np.full((m, L), PAD_INDEX, dtype=np.int64)
    mask = np.zeros((m, L), dtype=bool)
    tgt_item = np.zeros(m, dtype=np.int64)
    T = np.zeros((m, L + 1), dtype=np.float64)
    elig = np.zeros((m, L + 1), dtype=bool)

    for i, (items, tss, ex) in enumerate(trimmed):
        lo = L - len(items)
        items_m[i, lo:] = items
        mask[i, lo:] = True
        tgt_item[i] = ex.target_item
        # gaps as integers first, float only afterwards
        T[i, lo + 1:L] = np.diff(np.asarray(tss, dtype=np.int64))
        elig[i, lo + 1:L] = True
        T[i, L] = float(int(ex.target_timestamp) - int(tss[-1]))
        elig[i, L] = True

    return Batch(items=items_m, mask=mask, target_item=tgt_item, T=T, t_elig=elig)


def segment_indices_by_time(examples, k):
    """Sort example indices by target timestamp and cut them into k
    contiguous groups whose sizes differ by at most one (earlier groups take
    the remainder)."""
    if k < 2:
        raise IngestError(f"segment_indices_by_time: k must be >= 2, got {k}")
    if not examples:
        raise IngestError("segment_indices_by_time: empty test set")
    if k > len(examples):
        raise IngestError(f"segment_indices_by_time: k={k} exceeds {len(examples)} examples")
    order = sorted(range(len(examples)), key=lambda i: examples[i].target_timestamp)
    n = len(order)
    base, rem = divmod(n, k)
    groups, pos = [], 0
    for g in range(k):
        size = base + (1 if g < rem else 0)
        groups.append(order[pos:pos + size])
        pos += size
    return groups


# ---------------------------------------------------------------------------
# synthetic interest-shift generator


@dataclass
class GeneratorSpec:
    """Configuration for the synthetic interest-shift dataset.

    Items are partitioned into n_clusters equal groups. Before the global
    switch time users draw clusters from regime_weights[0], afterwards from
    regime_weights[1]. Within a cluster, consecutive picks follow a cyclic
    successor walk, which gives a frozen model something learnable. Per-user
    event windows are staggered over the horizon so that leave-one-out
    targets spread across time.
    """
    n_users: int = 500
    n_items: int = 200
    n_clusters: int = 8
    regime_weights: list = field(default_factory=lambda: [None, None])
    switch_frac: float = 0.6
    horizon: int = 1_000_000
    min_events: int = 20
    max_events: int = 40
    gap_mean_pre: float = 2000.0
    gap_mean_post: float = 500.0
    noise_rate: float = 0.05
    walk_persistence: float = 0.9

    def __post_init__(self):
        p = type_problems(type(self), vars(self))
        if not p:
            p = [f"{n} must be >= 1, got {getattr(self, n)}"
                 for n in ("n_users", "n_items", "n_clusters", "horizon", "min_events")
                 if getattr(self, n) < 1]
            if self.n_items < self.n_clusters:
                p.append(f"n_items ({self.n_items}) must be >= n_clusters ({self.n_clusters})")
            if self.max_events < self.min_events:
                p.append(f"max_events ({self.max_events}) must be >= "
                         f"min_events ({self.min_events})")
            p += [f"{n} must be in [0, 1], got {getattr(self, n)}"
                  for n in ("switch_frac", "noise_rate", "walk_persistence")
                  if not 0.0 <= getattr(self, n) <= 1.0]
            p += [f"{n} must be a positive finite number, got {getattr(self, n)}"
                  for n in ("gap_mean_pre", "gap_mean_post") if not positive(getattr(self, n))]
            if len(self.regime_weights) != 2:
                p.append(f"regime_weights needs exactly two regimes, got {self.regime_weights!r}")
            for r, w in enumerate(self.regime_weights):
                if w is not None and not (
                        isinstance(w, list) and len(w) == self.n_clusters
                        and all(is_number(v) and non_negative(v) for v in w)
                        and sum(w) > 0):
                    p.append(f"regime_weights[{r}] must be null or {self.n_clusters} "
                             f"non-negative finite numbers with a positive sum, got {w!r}")
        if p:
            raise IngestError("; ".join(p))


def synth_shift_generate(spec, seed):
    """Deterministically generate an interest-shift dataset."""
    rng = np.random.default_rng(seed)

    per = spec.n_items // spec.n_clusters
    clusters = [list(range(1 + c * per, 1 + (c + 1) * per)) for c in range(spec.n_clusters)]
    # leftover items join the last cluster
    for it in range(1 + spec.n_clusters * per, spec.n_items + 1):
        clusters[-1].append(it)

    weights = []
    for r, w in enumerate(spec.regime_weights):
        if w is None:
            # default: regime r concentrates on its own half of the clusters
            half = spec.n_clusters // 2 or 1
            w = np.full(spec.n_clusters, 1e-3)
            lo = min(r * half, spec.n_clusters - half)
            w[lo:lo + half] = 1.0
        w = np.asarray(w, dtype=np.float64)
        weights.append(w / w.sum())

    switch_t = spec.switch_frac * spec.horizon
    users = []
    for u in range(spec.n_users):
        n_ev = int(rng.integers(spec.min_events, spec.max_events + 1))
        # stagger windows: early-ending users never leave the first regime
        start = rng.uniform(0.0, 0.45) * spec.horizon
        end = rng.uniform(start + 0.2 * spec.horizon, spec.horizon)
        tss = _event_times(rng, start, end, switch_t, n_ev,
                           spec.gap_mean_pre, spec.gap_mean_post)

        items = []
        pos_in_cluster = {}
        cur_cluster = None
        prev_regime = None
        for t in tss:
            regime = 0 if t < switch_t else 1
            if regime != prev_regime:
                cur_cluster = None  # the shift is sharp
                prev_regime = regime
            if rng.random() < spec.noise_rate:
                items.append(int(rng.integers(1, spec.n_items + 1)))
                continue
            if cur_cluster is None or rng.random() > spec.walk_persistence:
                cur_cluster = int(rng.choice(spec.n_clusters, p=weights[regime]))
            members = clusters[cur_cluster]
            pos = pos_in_cluster.get(cur_cluster)
            pos = int(rng.integers(0, len(members))) if pos is None else (pos + 1) % len(members)
            pos_in_cluster[cur_cluster] = pos
            items.append(members[pos])
        users.append(UserRecord(f"u{u}", items, tss))

    vocab = {f"i{j}": j for j in range(1, spec.n_items + 1)}
    return InteractionDataset(users=users, vocab=vocab)


def _event_times(rng, start, end, switch_t, n_ev, gap_pre, gap_post):
    """Strictly increasing integer event times in [start, end], split across
    the regime boundary in proportion to each phase's duration over its
    typical gap; the final event lands exactly at the window end."""
    if end <= switch_t or start >= switch_t:
        times = np.sort(rng.uniform(start, end, n_ev))
    else:
        w_pre = (switch_t - start) / gap_pre
        w_post = (end - switch_t) / gap_post
        n_post = int(round(n_ev * w_post / (w_pre + w_post)))
        n_post = min(max(n_post, 1), n_ev - 1)
        pre = np.sort(rng.uniform(start, switch_t, n_ev - n_post))
        post = np.sort(rng.uniform(switch_t, end, n_post))
        times = np.concatenate([pre, post])
    tss = [int(t) for t in times]
    tss[-1] = int(end)
    for j in range(1, n_ev):
        if tss[j] <= tss[j - 1]:
            tss[j] = tss[j - 1] + 1
    return tss


def write_tsv(ds, path):
    """Serialize a dataset back to the TSV interchange format."""
    inv = {v: k for k, v in ds.vocab.items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TSV_COLUMNS) + "\n")
        for u in ds.users:
            for it, ts in zip(u.item_indices, u.timestamps):
                fh.write(f"{u.user_id}\t{inv[it]}\t{ts}\n")


def median_positive_interval(examples):
    """Median of the positive time gaps over a split; the default scale for
    the pairwise time loss."""
    gaps = []
    for ex in examples:
        tss = ex.timestamps
        for a, b in zip(tss, tss[1:]):
            if b - a > 0:
                gaps.append(b - a)
        if ex.target_timestamp - tss[-1] > 0:
            gaps.append(ex.target_timestamp - tss[-1])
    if not gaps:
        return 1.0
    return float(np.median(np.asarray(gaps, dtype=np.float64)))
