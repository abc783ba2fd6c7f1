"""Fast tests of the benchmark itself, on a three-vehicle world.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from workloads import TINY, Workload, build_cold, digest, run_once  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

LBCHAT = Workload("tiny-lbchat", "LbChat", collect_s=30.0, horizon_s=40.0, base=TINY)
DFL_CKPT = Workload(
    "tiny-dfl-ckpt", "DFL-DDS", collect_s=30.0, horizon_s=40.0, checkpoint_every=10.0, base=TINY
)
SEED = 3


def _names(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_end_to_end_schema(tmp_path):
    outcome = harness.measure(DFL_CKPT, SEED, 0.0, tmp_path)
    result = outcome.result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == harness.MIN_REPEATS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


def test_per_layer_schema_and_checks(tmp_path):
    outcome = harness.measure_traced(LBCHAT, SEED, 0.0, tmp_path)
    result = outcome.result()
    assert result["correct"], outcome.failures
    assert result["attempted"] == 2  # one untraced, one traced
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.chat.chats"] > 0 and metrics["core.psi.psi_maps"] > 0
    assert metrics["sim.world.steps"] > 0 and metrics["core.fleet.instants"] == 20
    assert metrics["checkpoint.saves"] == 0


def test_wrappers_are_transparent_and_restored(tmp_path):
    originals = {}
    for boundary in layers.BOUNDARIES:
        owner, name = layers.resolve(boundary)
        originals[boundary] = (owner, name, owner.__dict__[name])

    scale = DFL_CKPT.scale(SEED)
    plain = digest(run_once(DFL_CKPT, build_cold(scale), SEED, tmp_path / "a"))
    tracer = layers.Tracer()
    with layers.traced(tracer):
        with tracer.span(layers.ENGINE):
            traced = digest(run_once(DFL_CKPT, build_cold(scale), SEED, tmp_path / "b"))
    assert traced == plain
    assert tracer.calls["checkpoint.save"] == 3 and tracer.calls["sim.world.step"] > 0
    for owner, name, original in originals.values():
        assert owner.__dict__[name] is original


def test_layer_rows_sum_to_traced_run(tmp_path):
    tracer = layers.Tracer()
    context = build_cold(LBCHAT.scale(SEED))
    with layers.traced(tracer):
        with tracer.span(layers.ENGINE):
            run_once(LBCHAT, context, SEED, None)
    assert tracer.depth == 0
    assert layers.layer_sum_error(tracer) < 1e-9
    assert all(tracer.self_s[layer] >= 0 for layer in (*layers.RUN_LAYERS, layers.ENGINE))
    # validation forwards stay with their parent: at most one bank forward
    # per training instant (ragged instants train per node instead)
    assert tracer.calls["core.fleet.validate"] > 0
    assert 0 < tracer.calls["nn.bank.forward"] <= tracer.calls["core.fleet.step"]


def test_failed_check_is_counted(tmp_path, monkeypatch):
    digests = iter(["first", "second"])
    monkeypatch.setattr(harness, "digest", lambda result: next(digests))
    outcome = harness.measure(LBCHAT, SEED, 0.0, tmp_path)
    result = outcome.result()
    assert result["attempted"] == 2 and result["failed"] == 1
    assert not result["correct"]
    assert "digest" in outcome.failures[1][0]


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sco-paper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
