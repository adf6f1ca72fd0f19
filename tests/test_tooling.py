"""Smoke test for the benchmark's tracer: it wraps alignrec functions by
name, so an API rename or deletion must fail here, not only in a benchmark
run."""

import importlib.util
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_current_api():
    src = os.path.join(ROOT, "src")
    code = (
        f"import sys; sys.path[:0] = [{os.path.join(ROOT, 'perfbench')!r}, {src!r}]\n"
        "import alignrec, tracing\n"
        "from alignrec import (adapt, autograd, evaluation, ingest, losses,\n"
        "                      model, optim, pipeline)\n"
        f"assert alignrec.__file__.startswith({src!r}), alignrec.__file__\n"
        "tracing.install(tracing.Tracer(), alignrec)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_autograd_exports_resolve():
    # a deleted op must not stay listed as public
    from alignrec import autograd
    missing = [n for n in autograd.__all__ if not hasattr(autograd, n)]
    assert not missing, missing


BYTE_IDENTITY = os.path.join(ROOT, "tools", "byte_identity.py")


def test_byte_identity_passes_against_this_checkout():
    res = subprocess.run([sys.executable, BYTE_IDENTITY, "--other", ROOT,
                          "--shapes", "tiny,tiny-2block,tiny-short,tiny-f32,tiny-f64,tiny-w1,tiny-stop"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "overflow encountered" not in res.stderr, res.stderr   # the abort table is finite
    assert "tiny: 306 arrays, 0 differ, 6 requests aborted" in res.stdout, res.stdout
    assert "tiny-2block: 306 arrays, 0 differ, 6 requests aborted" in res.stdout, res.stdout
    assert "tiny-short: 306 arrays, 0 differ, 6 requests aborted" in res.stdout, res.stdout
    assert "tiny-f32: 306 arrays, 0 differ, 6 requests aborted" in res.stdout, res.stdout
    assert "tiny-f64: 306 arrays, 0 differ, 6 requests aborted" in res.stdout, res.stdout
    assert "tiny-w1: 306 arrays, 0 differ, 6 requests aborted" in res.stdout, res.stdout
    assert "tiny-stop: 307 arrays, 0 differ, 6 requests aborted" in res.stdout, res.stdout


def test_byte_identity_compare_is_nan_aware_and_exact():
    spec = importlib.util.spec_from_file_location("byte_identity", BYTE_IDENTITY)
    bi = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bi)
    a = {"x": np.array([1.0, np.nan]), "n": np.array(3)}
    assert bi.compare(a, dict(a)) == []
    assert bi.compare(a, {"x": np.array([1.0, 2.0]), "n": np.array(3)}) == ["differs: x"]
    assert bi.compare(a, {"x": a["x"].astype(np.float32), "n": np.array(3)}) == [
        "differs: x"]
    assert bi.compare(a, {"x": a["x"]}) == ["only in this checkout: n"]


REQUEST_FAULTS = os.path.join(ROOT, "tools", "request_faults.py")


def test_request_faults_reports_both_trees_per_seed():
    res = subprocess.run([sys.executable, REQUEST_FAULTS, "--other", ROOT,
                          "--workload", "adapt-long", "--seeds", "3", "--seconds", "0.1"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert [ln.split()[:4] for ln in lines] == [["adapt-long", "seed", "3", "this"],
                                                ["adapt-long", "seed", "3", "other"]]
    for ln in lines:
        assert "adapted" in ln and "frozen" in ln and ln.count("faults (n=") == 2, ln
