"""Tests for CLI command plumbing (no training)."""

import pytest

from repro.cli import build_parser


class TestCliParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["scales"],
            ["run", "--method", "DP", "--seed", "3"],
            ["table", "6"],
            ["fig", "3"],
            ["rates", "--scale", "ci"],
            ["report", "--artifacts", "x"],
            ["eval", "--model", "m.npz", "--trials", "2"],
            ["scenario", "--model", "m.npz", "--comfort"],
        ],
    )
    def test_all_subcommands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.fn)

    def test_scenario_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_invalid_table_number(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])
