"""CLI tests: smoke runs, the gate table, rejected input, the parser surface."""

import argparse
import json
import os

import pytest

from repro import cli
from repro.bench import paper
from repro.cli import GATES, SEED, build_parser, gate_argv, main


SMALL = ["--scale", "0.15", "--versions", "2", "--series", "nginx"]

ARTIFACTS = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "artifacts"
)

#: Gate rows that are sweeps -> (cell-name heading, key the cells sit under).
SWEEPS = {
    "fleet": ("System", "systems"),
    "crash": ("Point", "points"),
    "ha": ("Scenario", "scenarios"),
    "edge": ("Scenario", "scenarios"),
    "faas": ("Scenario", "scenarios"),
    "chunk": ("Scenario", "scenarios"),
    "slo": ("Scenario", "scenarios"),
}


def _subcommands() -> dict:
    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _flags(subparser) -> dict:
    return {
        a.option_strings[0]: a
        for a in subparser._actions
        if not isinstance(a, argparse._HelpAction)
    }


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["catalog"])
        assert args.seed == 7
        assert args.command == "catalog"

    def test_options_after_subcommand(self):
        args = build_parser().parse_args(["catalog", "--seed", "3"])
        assert args.seed == 3

    def test_surface_is_pinned(self):
        """Every flag's (default, type, nargs), captured from the parser
        as it was written out flag by flag, before the flag helper."""
        surface = {
            name: {
                flag: (a.default, a.type, a.nargs)
                for flag, a in _flags(subparser).items()
            }
            for name, subparser in _subcommands().items()
        }
        assert surface == {
            name: {**COMMON, **flags} for name, flags in SURFACE.items()
        }
        assert sum(len(flags) for flags in surface.values()) == 97

    def test_paper_takes_only_flags_other_commands_have(self):
        """``dedup`` and ``storage`` became cells of ``paper``, which
        brought no knob of its own: each of its flags is pinned, with
        the same default, type and arity, for another command too."""
        others = [flags for name, flags in SURFACE.items() if name != "paper"]
        for flag, pin in SURFACE["paper"].items():
            assert any(other.get(flag) == pin for other in others), flag

    def test_choices_are_pinned(self):
        choices = {
            (name, flag): tuple(a.choices)
            for name, subparser in _subcommands().items()
            for flag, a in _flags(subparser).items()
            if a.choices is not None
        }
        assert choices == {
            ("paper", "--scenario"): tuple(paper.STUDIES),
            ("ha", "--strategy"): ("primary-first", "p2c"),
            ("ha", "--scenario"):
                ("healthy", "outage", "brownout", "byzantine", "overload"),
            ("faas", "--scenario"):
                ("steady", "spike", "spike+outage", "spike+byzantine"),
            ("slo", "--scenario"): ("fleet", "edge", "faas", "prefetch"),
        }


COMMON = {
    "--seed": (7, int, None),
    "--scale": (0.4, float, None),
    "--versions": (6, int, None),
    "--series": (["nginx", "tomcat"], None, "*"),
}

SURFACE = {
    "catalog": {},
    "demo": {},
    "paper": {
        "--scenario": (None, None, "*"),
        "--json": (False, None, 0),
    },
    "deploy": {
        "--target": ("nginx", None, None),
        "--bandwidth": (100.0, float, None),
        "--clients": (1, int, None),
        "--concurrency": (0, int, None),
        "--json": (False, None, 0),
        "--drop-rate": (0.0, float, None),
        "--corrupt-rate": (0.0, float, None),
        "--outage-start": (0.0, float, None),
        "--outage-len": (0.0, float, None),
    },
    "crash": {
        "--target": ("nginx", None, None),
        "--crash-seed": ("0", None, None),
        "--json": (False, None, 0),
    },
    "chunks": {
        "--clients": (32, int, None),
        "--big-mib": (8, int, None),
        "--chunk-seed": ("7", None, None),
        "--json": (False, None, 0),
    },
    "ha": {
        "--target": ("nginx", None, None),
        "--clients": (8, int, None),
        "--concurrency": (0, int, None),
        "--replicas": (3, int, None),
        "--strategy": ("primary-first", None, None),
        "--scenario": (None, None, "*"),
        "--ha-seed": ("0", None, None),
        "--json": (False, None, 0),
    },
    "edge": {
        "--target": ("nginx", None, None),
        "--bandwidth": (200.0, float, None),
        "--clients": (8, int, None),
        "--edge-seed": ("0", None, None),
        "--equivalence": (False, None, 0),
        "--json": (False, None, 0),
    },
    "faas": {
        "--nodes": (6, int, None),
        "--functions": (40, int, None),
        "--duration": (20.0, float, None),
        "--rate": (6.0, float, None),
        "--spike-start": (8.0, float, None),
        "--spike-len": (4.0, float, None),
        "--outage-start": (9.0, float, None),
        "--outage-len": (2.0, float, None),
        "--scenario": (None, None, "*"),
        "--faas-seed": ("0", None, None),
        "--json": (False, None, 0),
    },
    "slo": {
        "--scenario": (None, None, "*"),
        "--target": ("nginx", None, None),
        "--bandwidth": (200.0, float, None),
        "--clients": (6, int, None),
        "--slo-seed": (1, int, None),
        "--json": (False, None, 0),
    },
    "trace": {
        "--target": ("nginx", None, None),
        "--clients": (1, int, None),
        "--out-dir": (None, None, None),
        "--json": (False, None, 0),
    },
}


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "nginx" in out
        assert "Linux Distro" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "app.gear:v1" in out
        assert "faulted" in out

    def test_dedup(self, capsys):
        """The Table II study, once a command, is the ``table2`` cell."""
        assert main(["paper", *SMALL, "--scenario", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out and "3/3 shape invariants hold" in out
        assert "| granularity | — | No Layer-level File-level Chunk-level |" in out

    def test_storage(self, capsys):
        """The registry-footprint study is the ``fig7`` cell; nginx alone
        (with its debian base) has no Language or Database series."""
        assert main(["paper", *SMALL, "--scenario", "fig7"]) == 2
        assert capsys.readouterr().err == (
            "repro: paper fig7 needs 'Language' in the corpus (--series)\n"
        )
        series = ["--series", "nginx", "golang", "mysql"]
        assert main(["paper", *SMALL[:4], *series, "--scenario", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "| saving.Whole registry | 0.537 |" in out

    def test_deploy(self, capsys):
        assert main(["deploy", *SMALL, "--target", "nginx",
                     "--bandwidth", "50"]) == 0
        out = capsys.readouterr().out
        assert "Slacker" in out
        assert "v2" in out

    def test_crash_sweep(self, capsys):
        assert main(["crash", *SMALL, "--target", "nginx"]) == 0
        out = capsys.readouterr().out
        assert "crash sweep" in out
        for point in ("mid-fetch", "post-fetch", "mid-commit", "mid-link"):
            assert point in out
        assert "NO" not in out  # every point resume-equivalent

    def test_crash_sweep_json(self, capsys):
        assert main(["crash", *SMALL, "--target", "nginx", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["points"]) == {
            "mid-fetch", "post-fetch", "mid-commit", "mid-link"
        }
        for cell in report["points"].values():
            assert cell["crashed"]
            assert cell["fs_equivalent"]
            assert cell["refetched_committed"] == 0


class TestGateTable:
    """The table ``scripts/check.sh`` and ``benchmarks/artifacts.py``
    iterate, run here in-process: no scenario is reachable from only one
    entry point."""

    @pytest.mark.parametrize("name", GATES)
    def test_row_matches_its_artifact(self, name, capsys):
        assert main(gate_argv(name, 11)) == 0
        report = json.loads(capsys.readouterr().out)
        path = os.path.join(ARTIFACTS, f"BENCH_ext_{name}.json")
        if name == "edge-equivalence":  # an identity: records no artifact
            assert not os.path.exists(path)
            assert report["identical"] is True
            return
        with open(path) as handle:
            artifact = json.load(handle)
        assert artifact["scenario"] == gate_argv(name, 11)
        assert artifact["report"] == report

    def test_a_failed_trace_gate_names_its_problem_in_json_mode(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "TRACE_COVERAGE_FLOOR", 2.0)
        assert main(gate_argv("obs", 11)) == 1
        captured = capsys.readouterr()
        assert "trace gate FAILED: coverage" in captured.err
        assert json.loads(captured.out)["ok"] is False

    def test_every_json_subcommand_has_a_row(self):
        takes_json = {
            name for name, subparser in _subcommands().items()
            if "--json" in _flags(subparser)
        }
        assert takes_json == {gate_argv(name, 11)[0] for name in GATES}

    @pytest.mark.parametrize("name", GATES)
    def test_every_row_parses(self, name):
        for seed in (11, 42):
            argv = gate_argv(name, seed)
            assert SEED not in argv
            assert build_parser().parse_args(argv).json
        seeded = gate_argv(name, 11) != gate_argv(name, 42)
        assert seeded == (SEED in GATES[name])

    @pytest.mark.parametrize("name", SWEEPS)
    def test_table_form(self, name, capsys):
        """A sweep's human table: the title, a heading row led by the
        cell-name column, a rule, then one row per cell."""
        heading, group = SWEEPS[name]
        with open(os.path.join(ARTIFACTS, f"BENCH_ext_{name}.json")) as handle:
            cells = json.load(handle)["report"][group]
        argv = gate_argv(name, 11)
        argv.remove("--json")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[1].split()[0] == heading
        assert set(lines[2]) == {"-", " "}
        assert sorted(line.split()[0] for line in lines[3:]) == sorted(cells)


class TestRejectedInput:
    @pytest.mark.parametrize(
        "command", ["chunks", "ha", "edge", "faas", "slo", "paper"]
    )
    def test_unknown_scenario(self, command, capsys):
        # chunks and edge run every scenario: they take no --scenario at all.
        with pytest.raises(SystemExit) as exit_info:
            main([command, *SMALL, "--scenario", "bogus", "--json"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("unrecognized arguments: --scenario bogus" if command in ("chunks", "edge")
                else "invalid choice: 'bogus'") in captured.err

    def test_deploy_json_needs_fleet_mode(self, capsys):
        assert main(["deploy", *SMALL, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "deploy: --json is only supported with --clients > 1\n"
        )

    @pytest.mark.parametrize("argv", [
        ["ha", "--target", "nosuch"],
        ["deploy", "--target", "nosuch"],
        ["paper", "--series", "nosuch"],
    ])
    def test_unknown_series(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro: unknown series: ['nosuch']\n"


class TestRedSweep:
    def test_failing_cell_names_its_invariant(self, capsys):
        """One replica, and it is down: every deploy degrades."""
        argv = ["ha", *SMALL, "--replicas", "1", "--scenario", "outage",
                "--clients", "2", "--json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "ha outage: degraded=2\n"
        report = json.loads(captured.out)
        assert report["scenarios"]["outage"]["degraded"] == 2


def _inverted(numbers):
    """``numbers`` with every ordering, sign and zero turned round."""
    if isinstance(numbers, dict):
        return {key: _inverted(value) for key, value in numbers.items()}
    if isinstance(numbers, list):
        return [_inverted(value) for value in numbers]
    return numbers if isinstance(numbers, str) else -numbers - 1


def _key_paths(tree) -> list:
    return [path for path, _ in paper.leaves(tree)]


class TestPaperShapes:
    @pytest.mark.parametrize("name", paper.STUDIES)
    def test_every_shape_invariant_can_fail_and_says_which(
        self, name, monkeypatch, capsys
    ):
        """Hand ``paper`` a cell whose measured numbers are the recorded
        ones inverted: every declared shape invariant must come out
        false, each named on stderr, with stdout's form untouched."""
        with open(os.path.join(ARTIFACTS, "BENCH_ext_paper.json")) as handle:
            recorded = json.load(handle)["report"]["cells"][name]
        claims = list(paper.STUDIES[name].shape(recorded["measured"]))
        assert sorted(recorded["shape"]) == sorted(claims)
        doctored = paper.STUDIES[name]._replace(
            measure=lambda corpus: _inverted(recorded["measured"])
        )
        monkeypatch.setitem(paper.STUDIES, name, doctored)
        assert main([*gate_argv("paper", 11), "--scenario", name]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"paper {name}: shape.{claim}=False" for claim in claims
        ]
        cell = json.loads(captured.out)["cells"][name]
        assert _key_paths(cell) == _key_paths(recorded)
