"""The numeric-environment pin: BLAS runs single-threaded unless the
caller says otherwise, so seeded results do not depend on core count.

Each check runs in a fresh interpreter, because the pin acts when
``repro`` (and numpy) are first imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: The hotpath-equivalence per-sample-loss segment.  Its test module
#: imports numpy before repro, so with the variables unset this runs
#: on the runtime (ctypes) pin.
LOSS_SEGMENT = """
import json
from tests.test_hotpath_equivalence import _loss_record, make_synthetic_dataset, make_synthetic_node
print(json.dumps(_loss_record(make_synthetic_node(make_synthetic_dataset()))))
"""

BLAS_THREADS = """
import numpy
import repro
from repro._numenv import openblas_entry
get_threads = openblas_entry("openblas_get_num_threads")
print(None if get_threads is None else get_threads())
"""


def run_python(code: str, **env_vars: str) -> str:
    """Last stdout line of ``code`` run with the thread variables unset
    except for ``env_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_loss_segment_identical_with_and_without_the_variable():
    unset = json.loads(run_python(LOSS_SEGMENT))
    pinned = json.loads(run_python(LOSS_SEGMENT, OPENBLAS_NUM_THREADS="1"))
    assert unset == pinned
    recorded = json.loads((ROOT / "tests" / "data" / "hotpath_expectations.json").read_text())
    want = recorded["per_sample_losses"]
    for key in ("cold_digest", "warm_digest", "mixed_digest", "evaluate"):
        assert unset[key] == want[key], key


def test_import_sets_thread_defaults():
    code = "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    assert run_python(code) == "1 1"


def test_explicit_setting_is_kept():
    code = "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_numpy_imported_first_is_pinned_at_runtime():
    threads = run_python(BLAS_THREADS)
    if threads == "None":
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads == "1"
