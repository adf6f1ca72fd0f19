"""Smoke test for the benchmark's tracer: it wraps alignrec functions by
name, so an API rename or deletion must fail here, not only in a benchmark
run."""

import os
import subprocess
import sys

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
