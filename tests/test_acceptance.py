"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s` to see the
lines; the heavyweight interest-shift experiment is shared by the tests
that need it.
"""

import json
import time
import warnings

import numpy as np
import pytest

from alignrec import adapt, cli, evaluation, ingest, losses, model, pipeline
from alignrec import autograd as ag
from alignrec.config import load_config
from alignrec.losses import LossWeights
from conftest import random_examples, tiny_params
from test_losses import brute_force_time_loss, fabricate


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def shift_results():
    cfg = load_config(pipeline.SHIFT_EXPERIMENT_CONFIG,
                      overrides={"out_dir": "/tmp/alignrec_acceptance_shift"})
    t0 = time.time()
    res = pipeline.shift_experiment(cfg, seeds=range(5))
    res["seconds"] = time.time() - t0
    return res


def test_criterion_1_gradient_correctness(rng):
    t0 = time.time()
    failures = []
    for seed in range(5):
        # the finite-difference probe must see a fully differentiable model,
        # so the extension detachment is off here; the stop-gradient contract
        # has its own dedicated test
        params = tiny_params(seed=seed, vocab_size=21, d=8, d_s=4,
                             detach_extension=False)
        local = np.random.default_rng(seed)
        exs = random_examples(local, n_examples=3, vocab=20, min_len=6, max_len=6)
        batch = ingest.make_batches(exs, max_len=6, batch_size=4)[0]
        w = LossWeights(lam=500.0, block_size=4)
        pd = params.as_dict()

        cases = {
            "rec": lambda: losses.rec_loss(
                model.forward_full(params, batch, training=False).logits,
                batch.target_item),
            "time": lambda: losses.batch_time_loss(
                params, model.forward_full(params, batch, training=False),
                batch, w)[0],
            "state": lambda: losses.state_alignment_loss(
                params, model.forward_full(params, batch, training=False))[0],
            "total": lambda: (lambda tr: losses.total_loss(
                losses.rec_loss(tr.logits, batch.target_item),
                losses.batch_time_loss(params, tr, batch, w)[0],
                losses.state_alignment_loss(params, tr)[0], w, "train"))(
                    model.forward_full(params, batch, training=False)),
        }
        for name, f in cases.items():
            rep = ag.finite_diff_check(f, pd, eps=1e-5, tol=1e-4, n_samples=22,
                                       rng=np.random.default_rng(seed))
            assert rep.n_checked >= 20
            if not rep.ok:
                failures.append((seed, name, rep.failures[:2]))
    elapsed = time.time() - t0
    report(1, not failures and elapsed < 60.0,
           f"finite differences on rec/time/state/total, 5 seeds, 22 coords "
           f"each, tol 1e-4, {elapsed:.1f}s (budget 60s); failures={failures}")


def test_criterion_2_scan_matches_naive_recurrence(rng):
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        L = int(rng.integers(1, 65))
        s = int(rng.integers(1, 6))
        d = int(rng.integers(1, 8))
        abar = rng.uniform(0.0, 1.0, (m, L))
        bbar = rng.normal(size=(m, L, s))
        x = rng.normal(size=(m, L, d))
        C = rng.normal(size=(m, L, s))
        mask = rng.random((m, L)) > 0.3
        Y, hf = ag.sequential_scan(ag.constant(abar), ag.constant(bbar),
                                      ag.constant(x), ag.constant(C), mask)
        h = np.zeros((m, s, d))
        Yn = np.zeros((m, L, d))
        for t in range(L):
            for i in range(m):
                if mask[i, t]:
                    h[i] = abar[i, t] * h[i] + np.outer(bbar[i, t], x[i, t])
                Yn[i, t] = h[i].T @ C[i, t]
        worst = max(worst, np.abs(Y.data - Yn).max(), np.abs(hf.data - h).max())
    report(2, worst <= 1e-12,
           f"sequential scan vs naive recurrence over 100 instances (n up to "
           f"64): max abs deviation {worst:.2e} (tolerance 1e-12)")


def test_criterion_3_time_loss_oracles(rng):
    worst_full = worst_block = 0.0
    bit_exact = True
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 12))
        delta = rng.normal(size=(m, n))
        T = rng.integers(0, 500, (m, n)).astype(float)
        elig = rng.random((m, n)) > 0.3
        lam = float(rng.uniform(1.0, 100.0))

        # full pairwise: one block covers every position
        val, _ = losses.time_alignment_loss(
            ag.constant(delta), T, elig, lam, n + 1)
        ref, _ = brute_force_time_loss(delta, T, elig, lam, n + 1)
        worst_full = max(worst_full, abs(float(val.data) - ref))

        # strict blocking
        b = int(rng.integers(2, max(3, n)))
        val_b, _ = losses.time_alignment_loss(
            ag.constant(delta), T, elig, lam, b)
        ref_b, _ = brute_force_time_loss(delta, T, elig, lam, b)
        worst_block = max(worst_block, abs(float(val_b.data) - ref_b))

        # lambda-scaling invariance, bitwise; scale factors are powers of two
        # so c*T and c*lam are themselves exact for any lam
        for c in (2.0, 0.5, 1024.0):
            val_c, _ = losses.time_alignment_loss(
                ag.constant(delta), T * c, elig, lam * c, b)
            bit_exact = bit_exact and (float(val_c.data) == float(val_b.data))
    report(3, worst_full <= 1e-12 and worst_block <= 1e-12 and bit_exact,
           f"blocked hinge vs brute force: full-pairwise dev {worst_full:.2e}, "
           f"within-block dev {worst_block:.2e} (tol 1e-12); lambda scaling "
           f"bit-exact={bit_exact}")


def test_criterion_4_state_loss_bounded(rng):
    t0 = time.time()
    violations = 0
    total = 0
    for batch_start in range(5):
        params = tiny_params(seed=batch_start, d=6, d_s=3)
        m = 200
        a_raw = float(rng.uniform(0.0, np.log(4.0)))  # A in [-4, -1]
        trace = fabricate(
            params,
            rng.normal(size=(m, 3, 6)) * rng.uniform(0.1, 3.0, (m, 1, 1)),
            rng.normal(size=(m, 6)) * rng.uniform(0.1, 3.0, (m, 1)),
            rng.normal(size=(m, 6)) * rng.uniform(0.1, 3.0, (m, 1)),
            rng.normal(size=(m, 3)) * rng.uniform(0.1, 3.0, (m, 1)),
            rng.uniform(0.05, 2.0, m), a_raw=a_raw)
        loss, inter = losses.state_alignment_loss(params, trace)
        bound = losses.state_loss_bound(trace, trace.extension, inter)
        violations += int(np.sum(inter.per_row > bound + 1e-12))
        total += m
    elapsed = time.time() - t0
    report(4, violations == 0 and total == 1000 and elapsed < 30.0,
           f"state loss <= bound on {total} instances with A in [-4,-1], "
           f"delta in [0.05,2]: {violations} violations, {elapsed:.1f}s "
           f"(budget 30s)")


def test_criterion_5_adaptation_hermeticity(rng):
    params = tiny_params(seed=41)
    exs = random_examples(rng, n_examples=10, max_len=6)
    batches = ingest.make_batches(exs, max_len=6, batch_size=4)
    weights = LossWeights(lam=700.0, block_size=4)
    digest = model.checkpoint_digest(params)

    live = adapt.AdaptConfig(steps=2, lr=0.2)
    adapt.evaluate_with_adaptation(params, batches, live, weights)
    restored = model.checkpoint_digest(params) == digest

    frozen = adapt.evaluate_frozen(params, batches)
    noop_exact = True
    for cfg in (adapt.AdaptConfig(steps=0, lr=0.5),
                adapt.AdaptConfig(steps=3, lr=0.0)):
        rows, _ = adapt.evaluate_with_adaptation(params, batches, cfg, weights)
        noop_exact = noop_exact and np.array_equal(rows, frozen)

    in_order = [adapt.adapt_and_predict(params, b, live, weights)[0]
                for b in batches]
    permuted_same = all(
        np.array_equal(adapt.adapt_and_predict(params, batches[k], live,
                                               weights)[0], in_order[k])
        for k in reversed(range(len(batches))))
    report(5, restored and noop_exact and permuted_same,
           f"parameters restored bit-exactly={restored}, no-op configs "
           f"reproduce frozen metrics={noop_exact}, batch-order permutation "
           f"leaves predictions unchanged={permuted_same}")


def test_criterion_6_adaptation_helps_late_segments(shift_results):
    fro = shift_results["frozen"]
    ad = shift_results["adapted"]
    d34 = float((ad - fro)[:, 2:].mean())
    d12 = float((ad - fro)[:, :2].mean())
    ttt_at_least = ad[:, 2:].mean() >= fro[:, 2:].mean()
    in_budget = shift_results["seconds"] < 600.0
    report(6, ttt_at_least and d34 > d12 and in_budget,
           f"5-seed synthetic shift (500 users, 200 items, switch at 60%): "
           f"segs 3-4 ndcg ttt {ad[:, 2:].mean():.4f} vs frozen "
           f"{fro[:, 2:].mean():.4f}; delta34 {d34:+.4f} > delta12 {d12:+.4f}; "
           f"runtime {shift_results['seconds']:.0f}s (budget 600s)")


def test_criterion_7_frozen_model_degrades_over_time(shift_results):
    fro = shift_results["frozen"]
    per_seed = fro[:, 3] < fro[:, 0]
    report(7, bool(per_seed.all()),
           f"frozen ndcg segment4 < segment1 in {int(per_seed.sum())}/5 seeds "
           f"(means {fro[:, 0].mean():.4f} -> {fro[:, 3].mean():.4f})")


def test_criterion_8_throughput_ratio(rng):
    cfg = load_config(pipeline.SHIFT_EXPERIMENT_CONFIG,
                      overrides={"seed": 0, "out_dir": "/tmp/alignrec_tp"})
    ds = pipeline.load_dataset(cfg)
    split = ingest.leave_one_out_split(ds)
    weights = pipeline.resolve_weights(cfg, split.train)
    params = pipeline.build_model(cfg, ds.vocab_size, np.random.default_rng(0))
    batches = ingest.make_batches(split.test, cfg.data.max_len, 256)
    acfg = adapt.AdaptConfig(steps=1, lr=0.05, mu1_test=0.01, mu2_test=0.1)

    frozen = evaluation.throughput(
        lambda b: model.forward_full(params, b, training=False,
                                     need_extension=False).logits.data,
        batches, warmup=1, reps=5)
    ttt = evaluation.throughput(
        lambda b: adapt.adapt_and_predict(params, b, acfg, weights)[0],
        batches, warmup=1, reps=5, adaptation_enabled=True)
    ratio = ttt.iterations_per_second / frozen.iterations_per_second
    detail = (f"batch 256, M=1: frozen {frozen.iterations_per_second:.2f} it/s, "
              f"adapted {ttt.iterations_per_second:.2f} it/s, ratio {ratio:.3f} "
              f"(target [0.3, 0.8], soft)")
    if not 0.3 <= ratio <= 0.8:
        warnings.warn(f"throughput ratio outside the soft range: {detail}")
    # hard sanity only; the range itself is soft-asserted per the criterion
    report(8, 0.0 < ratio <= 1.05, detail)


def test_criterion_9_metric_oracle(rng):
    worst_ok = True
    for _ in range(1000):
        v = int(rng.integers(2, 40))
        z = rng.integers(0, 4, v).astype(float)  # heavy ties
        t = int(rng.integers(0, v))
        order = sorted(range(v), key=lambda j: (-z[j], j))
        r = 1 + order.index(t)
        recall, rr, ndcg = evaluation.rank_metrics(z, t, 10)
        want = (0.0, 0.0, 0.0) if r > 10 else (1.0, 1.0 / r, 1.0 / np.log2(r + 1))
        worst_ok = worst_ok and (recall, rr, ndcg) == want
    z = np.array([5.0, 4.0, 3.0, 0.0])
    exact_half = evaluation.rank_metrics(z, 2, 10)[2] == 0.5
    report(9, worst_ok and exact_half,
           f"rank metrics vs full-sort oracle on 1000 tied logit vectors: "
           f"all equal={worst_ok}; ndcg at rank 3 == 0.5 exactly={exact_half}")


def test_criterion_10_bit_identical_reruns(tmp_path):
    cfg = {
        "seed": 11,
        "data": {"generator": {"n_users": 60, "n_items": 40, "n_clusters": 4,
                               "min_events": 10, "max_events": 16,
                               "noise_rate": 0.1},
                 "max_len": 10, "min_interactions": 0},
        "model": {"d": 12, "d_s": 6, "conv_width": 3, "dropout": 0.1},
        "losses": {"mu1_train": 0.1, "mu2_train": 0.01},
        "train": {"lr": 0.02, "epochs": 5, "batch_size": 64, "eval_every": 2},
        "adapt": {"steps": 1, "lr": 0.05, "batch_policy": "whole"},
    }
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg["out_dir"] = str(out)
        path = tmp_path / f"cfg_{run}.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(path)]) == 0
        assert cli.main(["eval", "--config", str(path), "--checkpoint",
                         str(out / "checkpoint.bin"), "--ttt", "on"]) == 0
        assert cli.main(["eval", "--config", str(path), "--checkpoint",
                         str(out / "checkpoint.bin"), "--ttt", "off"]) == 0
        outputs.append({
            name: open(out / name, "rb").read()
            for name in ("train_log.jsonl", "checkpoint.bin",
                         "metrics_ttt.json", "metrics_frozen.json",
                         "segments_ttt.json", "segments_frozen.json")})
    same = {name: outputs[0][name] == outputs[1][name] for name in outputs[0]}
    report(10, all(same.values()),
           f"two runs with identical config+seed produce bit-identical "
           f"artifacts: {same}")
