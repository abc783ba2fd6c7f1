#!/usr/bin/env python
"""CI smoke test: a sync LbChat run that ships models over a lossy link.

The hotpath and stepshard LbChat goldens move no models (``receive``
0/0) and the city golden delivers every one it tries (4/4).  This gate
pins the remaining case: a four-vehicle world trained past the 60 s
pair cooldown twice, so later chat rounds diverge enough that Eq. 7
ships models, and one of the two model transfers is cut short by the
channel (``receive`` 1/2).  It therefore guards the chunked
transfer simulation in :func:`repro.net.channel.simulate_transfer`,
including its partial-delivery path.

    PYTHONPATH=src python scripts/transfer_smoke.py            # verify
    PYTHONPATH=src python scripts/transfer_smoke.py --record   # re-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from hotpath_smoke import build_scale as hotpath_scale  # noqa: E402
from hotpath_smoke import digest_result  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "transfer_golden.json"
SEED = 3


def build_scale():
    # A four-vehicle world trained past the 60 s pair cooldown twice:
    # first-round chats agree (psi = 0); later rounds diverge enough
    # that Eq. 7 ships models.
    from repro.sim.world import WorldConfig

    return replace(
        hotpath_scale(),
        name="transfer-smoke",
        world=WorldConfig(
            map_size=400.0,
            grid_n=3,
            n_vehicles=4,
            n_background_cars=4,
            n_pedestrians=10,
            seed=11,
            min_route_length=120.0,
        ),
        collect_duration=60.0,
        trace_duration=240.0,
        train_duration=180.0,
        record_interval=20.0,
        coreset_size=10,
    )


def run_and_digest() -> dict:
    from repro.experiments.runner import RunSpec, build_context, run_method

    print("building mini world (4 vehicles)...")
    context = build_context(build_scale())
    print("running LbChat...")
    spec = RunSpec.for_context(context, "LbChat", wireless=True, seed=SEED)
    return {"LbChat": digest_result(run_method(context, spec))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--record",
        action="store_true",
        help="overwrite the golden digest file with this run's digests",
    )
    args = parser.parse_args()

    digests = run_and_digest()

    if args.record:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"golden digests recorded to {GOLDEN_PATH}")
        return 0

    if not GOLDEN_PATH.exists():
        print(f"no golden file at {GOLDEN_PATH}; run with --record first")
        return 1
    golden = json.loads(GOLDEN_PATH.read_text())

    failures: list[str] = []
    for section in sorted(golden):
        for key in sorted(golden[section]):
            got, want = digests[section][key], golden[section][key]
            ok = got == want
            print(f"  [{'ok' if ok else 'FAIL'}] {section}: {key}")
            if not ok:
                failures.append(f"{section}.{key}: got {got!r}, want {want!r}")

    if failures:
        print(f"\nSMOKE FAILED: {len(failures)} digest(s) drifted:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nsmoke OK: model transfers match the golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
