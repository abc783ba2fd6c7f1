"""Tests for tooling: checkpoints, run archives, context cache, CLI, ASCII,
and the import-graph reachability of every module."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.nn import make_driving_model
from repro.nn.params import get_flat_params
from repro.nn.serialize import load_model, save_model
from repro.sim import World
from repro.sim.render_ascii import render_town, render_world


class TestModelCheckpoints:
    def test_roundtrip_exact(self, tmp_path):
        model = make_driving_model((3, 8, 8), 4, 16, seed=3)
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(get_flat_params(restored), get_flat_params(model))
        assert restored.bev_shape == model.bev_shape
        assert restored.n_waypoints == model.n_waypoints

    def test_conv_variant_roundtrip(self, tmp_path):
        from repro.nn.model import WaypointNet

        model = WaypointNet((3, 8, 8), 4, 16, np.random.default_rng(0), use_conv=True)
        path = tmp_path / "conv.npz"
        save_model(model, path)
        restored = load_model(path)
        assert restored.use_conv
        assert np.array_equal(get_flat_params(restored), get_flat_params(model))

    def test_prediction_identical_after_roundtrip(self, tmp_path):
        model = make_driving_model((3, 8, 8), 4, 16, seed=3)
        rng = np.random.default_rng(1)
        bev = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        commands = np.array([0, 2])
        expected = model.forward(bev, commands)
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert np.allclose(load_model(path).forward(bev, commands), expected)

    def test_bad_version_rejected(self, tmp_path):
        model = make_driving_model((3, 8, 8), 4, 16, seed=3)
        path = tmp_path / "model.npz"
        save_model(model, path)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_model(path)


class TestRunArchives:
    def test_save_and_load(self, tmp_path, fleet_datasets, traces):
        from repro.core.lbchat import LbChatConfig, LbChatTrainer
        from repro.experiments.configs import CI
        from repro.experiments.io import load_run, save_run
        from repro.experiments.runner import RunResult, RunSpec
        from repro.sim.dataset import DrivingDataset
        from tests.conftest import make_node

        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 40, 4)]
        )
        nodes = [
            make_node(vid, ds, coreset_size=8, seed=9)
            for vid, ds in sorted(fleet_datasets.items())
        ]
        trainer = LbChatTrainer(
            nodes,
            traces,
            validation,
            LbChatConfig(duration=60.0, train_interval=3.0, record_interval=20.0, seed=1),
        )
        trainer.run()
        spec = RunSpec(method="LbChat", scale=CI, seed=1)
        result = RunResult.from_trainer(spec, trainer, nodes)
        path = tmp_path / "run.json"
        save_run(result, path, n_points=9)
        payload = load_run(path)
        assert payload["method"] == "LbChat"
        assert len(payload["loss_curve"]) == 9
        assert 0.0 <= payload["receive_rate"] <= 1.0
        json.loads(path.read_text())  # valid JSON on disk


class TestContextCache:
    def test_fingerprint_stable_and_sensitive(self):
        from dataclasses import replace

        from repro.experiments.configs import CI
        from repro.experiments.io import scale_fingerprint

        assert scale_fingerprint(CI) == scale_fingerprint(CI)
        changed = replace(CI, collect_duration=CI.collect_duration + 1)
        assert scale_fingerprint(changed) != scale_fingerprint(CI)

    def test_cache_roundtrip(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.configs import CI
        from repro.experiments.io import cached_context
        from repro.sim.world import WorldConfig

        micro = replace(
            CI,
            name="cache-test",
            world=WorldConfig(
                map_size=400.0,
                grid_n=3,
                n_vehicles=2,
                n_background_cars=0,
                n_pedestrians=0,
                seed=2,
                min_route_length=100.0,
            ),
            collect_duration=20.0,
            trace_duration=40.0,
        )
        first = cached_context(micro, cache_dir=tmp_path)
        assert any(tmp_path.iterdir())
        second = cached_context(micro, cache_dir=tmp_path)
        assert sorted(second.datasets) == sorted(first.datasets)
        assert len(second.validation) == len(first.validation)

    def test_corrupt_cache_rebuilt(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.configs import CI
        from repro.experiments.io import cached_context, scale_fingerprint
        from repro.sim.world import WorldConfig

        micro = replace(
            CI,
            name="corrupt-test",
            world=WorldConfig(
                map_size=400.0,
                grid_n=3,
                n_vehicles=2,
                n_background_cars=0,
                n_pedestrians=0,
                seed=2,
                min_route_length=100.0,
            ),
            collect_duration=20.0,
            trace_duration=40.0,
        )
        path = tmp_path / f"context-{micro.name}-{scale_fingerprint(micro)}.pkl"
        path.write_bytes(b"garbage")
        context = cached_context(micro, cache_dir=tmp_path)
        assert len(context.datasets) == 2


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--method", "SCO", "--no-wireless"])
        assert args.method == "SCO" and args.wireless is False
        args = parser.parse_args(["table", "4", "--scale", "paper"])
        assert args.number == "4" and args.scale == "paper"
        args = parser.parse_args(["fig", "2a"])
        assert args.which == "2a"

    def test_scales_command(self, capsys):
        assert main(["scales"]) == 0
        out = capsys.readouterr().out
        assert "ci" in out and "paper" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestAsciiRender:
    def test_town_renders_roads(self, town):
        art = render_town(town, width=40)
        assert "+" in art and "-" in art
        assert len(art.splitlines()) == 20

    def test_world_renders_agents(self, world_config):
        world = World(world_config)
        world.run(5.0)
        art = render_world(world, width=40)
        assert art.startswith("t=")
        assert "A" in art  # first fleet vehicle

    def test_route_overlay(self, town):
        from repro.sim.router import random_route

        plan = random_route(town, np.random.default_rng(0), min_length=100.0)
        art = render_town(town, width=40, plan=plan)
        assert "*" in art


REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
#: Non-test entry points: directories walked whole, plus two src modules.
ENTRY_DIRS = ("scripts", "perfbench", "benchmarks", "examples")
ENTRY_MODULES = ("repro.cli", "repro.__main__")


def _module_path(name: str) -> Path | None:
    """The file that defines dotted module ``name`` under ``src/``, if any."""
    base = SRC.joinpath(*name.split("."))
    if (base / "__init__.py").is_file():
        return base / "__init__.py"
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    return None


def _imports(path: Path):
    """``(module, [(name, bound_as)])`` per import; ``None`` names for ``import m``.

    Walks the whole tree, so function-local (lazy) imports count too.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module, [(a.name, a.asname or a.name) for a in node.names]


def reached_modules() -> set[str]:
    """Every ``repro`` module the entry points import, directly or not.

    A package ``__init__`` is not followed wholesale: ``from pkg import
    X`` reaches only the submodule that defines ``X`` (following
    re-exports), so a module that its package merely re-exports is not
    reached by importing the package.
    """
    reached: set[str] = set()
    pending: list[str] = []

    def reach(name: str) -> None:
        parts = name.split(".")
        for k in range(1, len(parts) + 1):
            module = ".".join(parts[:k])
            if module not in reached and _module_path(module) is not None:
                reached.add(module)
                pending.append(module)

    def reach_name(module: str, name: str) -> None:
        if _module_path(f"{module}.{name}") is not None:
            reach(f"{module}.{name}")
            return
        reach(module)
        path = _module_path(module)
        if path is None or path.name != "__init__.py":
            return
        for source, names in _imports(path):
            for original, bound in names or ():
                if bound == name:
                    reach_name(source, original)

    def follow(path: Path, package_init: bool) -> None:
        for module, names in _imports(path):
            if names is None:
                reach(module)
            for name, _ in names or ():
                # A package's own re-exports are followed only on request.
                if not package_init or _module_path(f"{module}.{name}") is not None:
                    reach_name(module, name)

    for directory in ENTRY_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            follow(path, package_init=False)
    for module in ENTRY_MODULES:
        reach(module)
    while pending:
        path = _module_path(pending.pop())
        follow(path, package_init=path.name == "__init__.py")
    return reached


class TestReachability:
    def test_every_module_is_reached_from_an_entry_point(self):
        modules = {
            ".".join(path.relative_to(SRC).with_suffix("").parts)
            for path in (SRC / "repro").rglob("*.py")
            if path.name != "__init__.py"
        }
        unreached = sorted(m.removeprefix("repro.") for m in modules - reached_modules())
        assert not unreached, f"modules no entry point imports: {unreached}"
