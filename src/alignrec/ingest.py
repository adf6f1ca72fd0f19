"""Timestamped interaction data: loading, filtering, splitting, batching.

Datasets and splits are immutable-by-convention containers over flat numpy
arrays of events, grouped by user and sorted by time within each user; every
function here is pure and safe to call concurrently. Item index 0 is
reserved for padding throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .checks import Checked, InputError, is_number, non_negative, positive

PAD_INDEX = 0


class IngestError(InputError):
    pass


@dataclass
class UserRecord:
    user_id: str
    item_indices: list          # dense indices into the vocabulary, >= 1
    timestamps: list            # integer seconds, non-decreasing


@dataclass(frozen=True, eq=False)
class InteractionDataset:
    """Every user's chronological events plus the item vocabulary, in the
    layout Examples indexes: the events of user_ids[0], then of user_ids[1],
    and so on, counts[u] of them each, sorted by timestamp within a user.

    vocab maps item_id -> dense index in [1, n_items]; index 0 is padding.
    vocab_size includes the padding slot.
    """
    user_ids: list                # first-seen order
    items: np.ndarray             # (n_events,) int64
    times: np.ndarray             # (n_events,) int64
    counts: np.ndarray            # (n_users,) int64
    vocab: dict

    @classmethod
    def of(cls, records, vocab):
        """The dataset of per-user records (UserRecord or alike), each
        already sorted by timestamp."""
        return cls([r.user_id for r in records],
                   np.array([v for r in records for v in r.item_indices], dtype=np.int64),
                   np.array([t for r in records for t in r.timestamps], dtype=np.int64),
                   np.array([len(r.item_indices) for r in records], dtype=np.int64), vocab)

    @property
    def users(self):
        """Per-user records with list fields, built anew on each read."""
        bounds = np.cumsum(self.counts)[:-1]
        return [UserRecord(uid, items.tolist(), times.tolist()) for uid, items, times in
                zip(self.user_ids, np.split(self.items, bounds), np.split(self.times, bounds))]

    @property
    def vocab_size(self):
        return len(self.vocab) + 1

    @property
    def n_interactions(self):
        return len(self.items)


@dataclass
class Example:
    """One (input sequence -> next item) instance."""
    user_id: str
    items: list
    timestamps: list
    target_item: int
    target_timestamp: int


@dataclass(frozen=True, eq=False)
class Examples:
    """(input sequence -> next item) instances as index ranges over one copy
    of the events, held user by user: example r reads events [first[r],
    end[r]) and predicts event end[r]. An int index gives that Example with
    list fields; a slice or an integer array gives an Examples over the same
    event arrays."""
    user_ids: list                # user id of each event run
    items: np.ndarray             # (n_events,) int64
    times: np.ndarray             # (n_events,) int64
    first: np.ndarray             # (n,) int64
    end: np.ndarray               # (n,) int64
    user: np.ndarray              # (n,) int64 index into user_ids

    def __len__(self):
        return len(self.first)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            a, b = int(self.first[key]), int(self.end[key])
            return Example(self.user_ids[self.user[key]], self.items[a:b].tolist(),
                           self.times[a:b].tolist(), int(self.items[b]), int(self.times[b]))
        return replace(self, first=self.first[key], end=self.end[key], user=self.user[key])

    def __iter__(self):
        return (self[r] for r in range(len(self)))

    @classmethod
    def of(cls, examples):
        """`examples` itself if it is an Examples; a list of Example becomes
        one run of len(items) + 1 events per example."""
        if isinstance(examples, cls):
            return examples
        for ex in examples:
            if not ex.items or len(ex.items) != len(ex.timestamps):
                raise IngestError(f"example for user {ex.user_id}: {len(ex.items)} input items, "
                                  f"{len(ex.timestamps)} timestamps; need equal, nonzero counts")
        n = np.fromiter((len(ex.items) + 1 for ex in examples), np.int64, len(examples))
        end = np.cumsum(n) - 1
        items = [v for ex in examples for v in (*ex.items, ex.target_item)]
        times = [v for ex in examples for v in (*ex.timestamps, ex.target_timestamp)]
        return cls([ex.user_id for ex in examples], np.array(items, dtype=np.int64),
                   np.array(times, dtype=np.int64), end - n + 1, end,
                   np.arange(len(examples), dtype=np.int64))


@dataclass
class SplitDataset:
    train: Examples
    valid: Examples
    test: Examples


@dataclass
class Batch:
    """Left-padded batch with interval ground truth: every row's last valid
    item sits at position L-1, so the model reads each row's last step by
    slicing. Row r, column j holds event end[r] - L + j of its Examples,
    for the last min(end[r] - first[r], max_len) columns.

    T has L+1 columns: column j holds the time gap ending at position j,
    with the row's first valid position set to 0 (no earlier event is
    known) and column L holding target_timestamp - last input timestamp.
    """
    items: np.ndarray             # (m, L) int64
    mask: np.ndarray              # (m, L) bool
    target_item: np.ndarray       # (m,) int64
    T: np.ndarray                 # (m, L+1) float64

    @property
    def t_elig(self):
        """(m, L+1) bool, [False | mask]: the T columns whose gap starts at
        an input, which the pairwise time loss compares."""
        return np.concatenate([np.zeros((self.size, 1), dtype=bool), self.mask], axis=1)

    @property
    def size(self):
        return self.items.shape[0]

    @property
    def seq_len(self):
        return self.items.shape[1]


TSV_COLUMNS = ("user_id", "item_id", "timestamp")
# Line boundaries of str.splitlines beyond the control bytes, UTF-8 encoded.
_UNICODE_BREAKS = tuple(c.encode() for c in "\x85\u2028\u2029")
_MAX_DIGITS = 18                      # 10**18 - 1 < 2**63: no int64 overflow


def load_tsv(path):
    """Read a UTF-8 TSV with a header row into an InteractionDataset.

    The header names the columns user_id, item_id and timestamp, in any
    order and among any others; the first column of each name counts. Lines
    end in "\\n", "\\r\\n", "\\r" or any other line boundary of
    str.splitlines, and the last one may lack it. Blank and whitespace-only
    lines are skipped but still count for line numbers. Each other line is
    split at tabs and needs at least as many fields as the position of the
    last named column; fields beyond it are ignored. Ids are taken verbatim,
    whitespace included. A timestamp is whatever Python's int() reads
    (" 12", "+12", "1_000"), in [0, 2**63). A malformed line is an
    IngestError naming path:line; an empty file, a header without the three
    columns, text that is not UTF-8 and a file without data rows are
    IngestErrors naming the path.

    Each user's events are sorted by timestamp (stable: ties keep file
    order); users come in first-seen order, and the vocabulary is built in
    first-seen order, index 0 reserved for padding.

    A regular file (only "\\n" line breaks, no control byte but tab and
    newline, and every line with the header's field count and a timestamp of
    1 to 18 ASCII digits) is parsed over its bytes with numpy; any other file
    by _load_lines, one line at a time, which gives the same dataset.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise IngestError(f"{path}: cannot read ({e.strerror})") from None
    if not data.isascii():
        try:
            data.decode("utf-8")      # checked here; the text itself is not kept
        except UnicodeDecodeError as e:
            raise IngestError(f"{path}: not UTF-8 text ({e.reason})") from None
    ds = _parse_regular(path, data)
    return _load_lines(path, data.decode("utf-8").splitlines()) if ds is None else ds


def _columns(path, header):
    """Field positions of TSV_COLUMNS in a header line."""
    fields = header.split("\t")
    try:
        return [fields.index(c) for c in TSV_COLUMNS]
    except ValueError as e:
        raise IngestError(f"{path}: missing column in header {fields!r}: {e}") from None


def _load_lines(path, lines):
    """load_tsv over the file's lines, one line at a time; the reference for
    the byte parse and the only path for a file that is not regular."""
    if not lines:
        raise IngestError(f"{path}: empty file")
    cols = _columns(path, lines[0])
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
    return InteractionDataset.of(users, vocab)


def _parse_regular(path, data):
    """The InteractionDataset of a regular file's bytes, or None when the
    file is not regular. Each step is one pass over the bytes or an O(lines)
    pass per digit position or 8-byte key word; offsets are int32 where they
    fit."""
    if not data.isascii() and any(c in data for c in _UNICODE_BREAKS):
        return None
    raw = np.frombuffer(data, np.uint8)
    sep = np.flatnonzero(raw < 32)                    # tabs, newlines and other control bytes
    sep = sep.astype(np.int32) if raw.size < 2 ** 31 - 1 else sep
    kind = raw[sep]
    is_nl = kind == 10
    if not np.all(is_nl | (kind == 9)):               # "\r", NUL, another control byte
        return None
    del kind
    if not data.endswith(b"\n"):
        sep = np.append(sep, sep.dtype.type(raw.size))
        is_nl = np.append(is_nl, True)
    k = int(np.argmax(is_nl)) + 1                     # fields in the header
    n = len(sep) // k                                 # lines, the header included
    if (n < 2 or len(sep) != n * k or np.count_nonzero(is_nl) != n
            or not np.all(is_nl[k - 1::k])):
        return None                                   # a line with another field count
    del is_nl
    cols = _columns(path, data[:sep[k - 1]].decode("utf-8"))
    ends = sep.reshape(n, k)
    starts = np.empty_like(ends)
    starts[0, 0] = 0
    starts[1:, 0] = ends[:-1, -1] + 1
    starts[:, 1:] = ends[:, :-1] + 1
    del sep
    (u0, u1), (i0, i1), (t0, t1) = ((starts[1:, c].copy(), ends[1:, c].copy())
                                    for c in cols)
    del starts, ends

    times = _ascii_digits(raw, t0, t1)
    if times is None:
        return None
    del t0, t1
    user, first = _first_seen(_byte_keys(raw, u0, u1))
    user_ids = _decode_fields(raw, u0[first], u1[first])
    del u0, u1
    item, first = _first_seen(_byte_keys(raw, i0, i1))
    item_ids = _decode_fields(raw, i0[first], i1[first])
    del i0, i1, first
    order = np.argsort(user, kind="stable")          # linear when the file is grouped by user
    t, u = times[order], user[order]
    if np.any((t[1:] < t[:-1]) & (u[1:] == u[:-1])):
        order = order[np.lexsort((t, u))]             # stable: ties keep file order
    return InteractionDataset(user_ids, item[order] + 1, times[order], np.bincount(user),
                              dict(zip(item_ids, range(1, len(item_ids) + 1))))


def _ascii_digits(raw, starts, ends):
    """int64 values of the fields raw[starts:ends], one pass per digit
    position, or None unless every field is 1 to _MAX_DIGITS ASCII digits."""
    width = ends - starts
    if width.min() < 1 or width.max() > _MAX_DIGITS:
        return None
    value = np.zeros(len(starts), np.int64)
    last = raw.size - 1
    for j in range(int(width.max())):
        live = width > j
        digit = raw[np.minimum(starts + j, last)] - np.uint8(48)   # bytes below '0' wrap high
        if np.any(live & (digit > 9)):
            return None
        value = np.where(live, value * 10 + digit, value)
    return value


def _byte_keys(raw, starts, ends):
    """The fields raw[starts:ends] as uint64 words, one per 8 bytes, each
    read big-endian from an 8-byte window and cut to the bytes of its field.
    With no NUL in the file a word's leading byte is nonzero, so two fields
    are equal exactly when all their words are."""
    width = ends - starts
    windows = np.lib.stride_tricks.sliding_window_view(raw, 8)
    last = len(windows) - 1
    words = []
    for w in range(0, max(int(width.max()), 1), 8):
        at = starts + w
        row = np.minimum(at, last)                    # a window near the end starts early
        word = windows[row].view(">u8")[:, 0].astype(np.uint64)
        word <<= (8 * (at - row)).astype(np.uint64)
        cut = (8 * np.clip(w + 8 - width, 0, 8)).astype(np.uint64)
        words.append(np.where(cut < 64, word >> np.minimum(cut, np.uint64(56)), 0))
    return words


def _first_seen(words):
    """(dense index of each row's key in first-seen order, the row where
    each index is first seen) for rows keyed by equal-length word arrays."""
    order = np.argsort(words[0]) if len(words) == 1 else np.lexsort(words)
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for word in words:
        sorted_word = word[order]
        new[1:] |= sorted_word[1:] != sorted_word[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(new))   # each key's first row
    rank = np.empty(len(first), np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    dense = np.empty(len(order), np.int64)
    dense[order] = rank[np.cumsum(new) - 1]
    return dense, np.sort(first)


def _decode_fields(raw, starts, ends):
    """The fields raw[starts:ends] as str, decoded with one call."""
    width = ends - starts + 1                         # each field and a tab after it
    offset = np.cumsum(width) - width
    pos = np.repeat(starts - offset, width) + np.arange(int(width.sum()))
    text = raw[np.minimum(pos, raw.size - 1)]
    text[offset + width - 1] = 9
    return text[:-1].tobytes().decode("utf-8").split("\t")


def filter_min_interactions(ds, k):
    """Iteratively drop users with < k interactions and items occurring
    < k times, until a fixpoint; the vocabulary is re-densified in
    first-seen order over the kept events."""
    if k < 3:
        raise IngestError(f"filter_min_interactions: k must be >= 3, got {k}")
    user = np.repeat(np.arange(len(ds.counts)), ds.counts)
    keep = np.ones(len(ds.items), dtype=bool)
    while True:
        keep &= np.bincount(user[keep], minlength=len(ds.counts))[user] >= k
        rare = keep & (np.bincount(ds.items[keep], minlength=ds.vocab_size)[ds.items] < k)
        if not rare.any():
            break
        keep &= ~rare
    items = ds.items[keep]
    if not items.size:
        raise IngestError("dataset exhausted by filtering")
    dense, first = _first_seen([items])
    item_id = {v: key for key, v in ds.vocab.items()}
    vocab = {item_id[v]: j for j, v in enumerate(items[first].tolist(), 1)}
    counts = np.bincount(user[keep], minlength=len(ds.counts))
    kept = np.flatnonzero(counts)
    return InteractionDataset([ds.user_ids[u] for u in kept], dense + 1, ds.times[keep],
                              counts[kept], vocab)


def leave_one_out_split(ds):
    """Hold out each user's last interaction for test and the second-to-last
    for validation; earlier prefixes become training pairs.

    A user [v1..vn] yields train pairs (v1..v_{j-1} -> v_j) for 2 <= j <= n-2,
    so train, valid and test targets plus the first item partition the user's
    interactions exactly. All three parts index the dataset's own event
    arrays, with targets ascending within a user.
    """
    n = ds.counts
    short = np.flatnonzero(n < 3)
    if short.size:
        u = short[0]
        raise IngestError(
            f"leave_one_out_split: user {ds.user_ids[u]} has {n[u]} < 3 interactions")
    start = np.cumsum(n) - n

    def part(user, end):
        return Examples(ds.user_ids, ds.items, ds.times, start[user], end, user)

    users = np.arange(len(n))
    per = n - 3                               # train pairs per user
    tr_user = np.repeat(users, per)
    tr_end = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per) + start[tr_user] + 1
    return SplitDataset(train=part(tr_user, tr_end), valid=part(users, start + n - 2),
                        test=part(users, start + n - 1))


# make_batches builds the rows of whole batches in blocks of about this many
# rows, which holds its transient arrays to those of one batch of 256
_BATCH_BLOCK_ROWS = 256


def make_batches(examples, max_len, batch_size, pad_side="left"):
    """Group examples (an Examples or a list of Example) into left-padded
    Batch objects of batch_size examples each (the last may be smaller).

    Sequences longer than max_len keep their most recent max_len items.
    The interval matrix T is built by integer subtraction of timestamps
    before the float cast. "left" is the only pad_side.

    The rows of a block of whole batches are built at once; each batch is
    then its rows' last columns, since left padding makes a batch with
    shorter sequences the right end of a wider one.
    """
    if max_len < 1:
        raise IngestError(f"make_batches: max_len must be >= 1, got {max_len}")
    if batch_size < 1:
        raise IngestError(f"make_batches: batch_size must be >= 1, got {batch_size}")
    if pad_side != "left":
        raise IngestError(f"make_batches: pad_side must be left, got {pad_side!r}")
    examples = Examples.of(examples)
    per = max(1, _BATCH_BLOCK_ROWS // batch_size) * batch_size
    batches = []
    for start in range(0, len(examples), per):
        chunk = examples[start:start + per]
        block = _build_batch(chunk, max_len)
        if len(chunk) <= batch_size:
            batches.append(block)
            continue
        heads = np.arange(0, len(chunk), batch_size)
        widths = np.maximum.reduceat(np.minimum(chunk.end - chunk.first, max_len), heads)
        for a, w in zip(heads.tolist(), widths.tolist()):
            rows, cols = slice(a, a + batch_size), slice(block.seq_len - w, None)
            batches.append(Batch(items=block.items[rows, cols].copy(),
                                 mask=block.mask[rows, cols].copy(),
                                 target_item=block.target_item[rows].copy(),
                                 T=block.T[rows, cols].copy()))
    return batches


def _build_batch(chunk, max_len):
    end = chunk.end
    last, target = chunk.times[end - 1], chunk.times[end]
    bad = np.flatnonzero(target < last)
    if bad.size:
        r = bad[0]
        raise IngestError(
            f"non-causal target for user {chunk.user_ids[chunk.user[r]]}: "
            f"target at {target[r]} before last input at {last[r]}")
    n = np.minimum(end - chunk.first, max_len)
    L = int(n.max())
    mask = np.arange(L) >= L - n[:, None]
    pos = np.maximum(end[:, None] - L + np.arange(L), 0)   # padded slots read any event
    items = np.where(mask, chunk.items[pos], PAD_INDEX)
    T = np.zeros((len(chunk), L + 1), dtype=np.float64)
    # gaps as integers first, float only afterwards
    T[:, 1:L] = np.where(mask[:, :-1], np.diff(chunk.times[pos], axis=1), 0)
    T[:, L] = target - last
    return Batch(items=items, mask=mask, target_item=chunk.items[end], T=T)


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
    ex = Examples.of(examples)
    order = np.argsort(ex.times[ex.end], kind="stable")
    return [g.tolist() for g in np.array_split(order, k)]


# ---------------------------------------------------------------------------
# synthetic interest-shift generator


@dataclass
class GeneratorSpec(Checked):
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

    error = IngestError

    def _range_problems(self):
        p = [f"{n} must be >= 1, got {getattr(self, n)}"
             for n in ("n_users", "n_items", "n_clusters", "horizon", "min_events")
             if getattr(self, n) < 1]
        if self.n_items < self.n_clusters:
            p.append(f"n_items ({self.n_items}) must be >= n_clusters ({self.n_clusters})")
        if self.max_events < self.min_events:
            p.append(f"max_events ({self.max_events}) must be >= min_events ({self.min_events})")
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
        return p


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
    return InteractionDataset.of(users, vocab)


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
    user_ids = np.repeat(np.array(ds.user_ids, dtype=object), ds.counts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(TSV_COLUMNS) + "\n")
        for uid, it, ts in zip(user_ids.tolist(), ds.items.tolist(), ds.times.tolist()):
            fh.write(f"{uid}\t{inv[it]}\t{ts}\n")


def median_positive_interval(examples):
    """Median of the positive time gaps over a split; the default scale for
    the pairwise time loss. Each example holds the gaps ending at events
    first < p <= end; the median weights each gap by how many examples hold
    it, so memory stays linear in the events, and equals np.median over the
    gaps listed example by example."""
    ex = Examples.of(examples)
    cover = np.cumsum(np.bincount(ex.first + 1, minlength=len(ex.times) + 1)
                      - np.bincount(ex.end + 1, minlength=len(ex.times) + 1))[1:-1]
    gaps = np.diff(ex.times)
    keep = (cover > 0) & (gaps > 0)
    order = np.argsort(gaps[keep])
    vals = gaps[keep][order].astype(np.float64)
    ranks = np.cumsum(cover[keep][order])
    if not len(vals):
        return 1.0
    N = int(ranks[-1])
    i, j = np.searchsorted(ranks, [(N - 1) // 2, N // 2], side="right")
    return float(np.mean(vals[[i, j]])) if N % 2 == 0 else float(vals[i])
