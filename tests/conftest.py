import json
import struct

import numpy as np
import pytest

from alignrec import ingest, model
from alignrec.losses import LossWeights


def tiny_config(vocab_size=21, d=8, d_s=4, conv_width=4, dropout=0.0, **kw):
    return model.ModelConfig(vocab_size=vocab_size, d=d, d_s=d_s,
                             conv_width=conv_width, dropout=dropout, **kw)


def tiny_params(seed=0, **kw):
    cfg = tiny_config(**kw)
    return model.ModelParams(cfg, rng=np.random.default_rng(seed))


def rewrite_manifest(raw, edit):
    """Checkpoint bytes with the JSON manifest replaced by its edited copy."""
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen])
    edit(manifest)
    blob = json.dumps(manifest).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen:]


def random_examples(rng, n_examples=4, vocab=20, min_len=2, max_len=6,
                    t_span=50_000, target_gap=500):
    out = []
    for i in range(n_examples):
        n = int(rng.integers(min_len, max_len + 1))
        items = [int(v) for v in rng.integers(1, vocab + 1, n)]
        tss = np.sort(rng.integers(0, t_span, n)).tolist()
        for j in range(1, n):
            if tss[j] <= tss[j - 1]:
                tss[j] = tss[j - 1] + 1
        out.append(ingest.Example(f"u{i}", items, tss,
                                  int(rng.integers(1, vocab + 1)),
                                  tss[-1] + int(rng.integers(1, target_gap))))
    return out


def random_batch(rng, n_examples=4, vocab=20, max_len=6, **kw):
    exs = random_examples(rng, n_examples=n_examples, vocab=vocab,
                          max_len=max_len, **kw)
    return ingest.make_batches(exs, max_len=max_len, batch_size=n_examples * 2)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_weights():
    return LossWeights(lam=1000.0, block_size=4)
