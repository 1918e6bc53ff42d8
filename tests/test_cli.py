"""Command-line front end: exit codes, report shape, determinism hooks."""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import critindep
from critindep import Graph, generate, to_edge_list, to_graph6
from critindep.cli import (ALPHA_CEILING, COMMANDS, LIMIT_CEILING,
                           _fast_parse, _json_text, _parser, _Recorder,
                           build_parser, main)

from common import (c3_with_pendant, complete, cycle, disjoint_triangles,
                    figure1_graph, figure2_script, shuffled_path, star)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.fixture
def c5_file(tmp_path):
    target = tmp_path / "c5.txt"
    target.write_text(to_edge_list(cycle(5)))
    return str(target)


@pytest.fixture
def star_file(tmp_path):
    target = tmp_path / "star.g6"
    target.write_text(to_graph6(star(3)) + "\n")
    return str(target)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_c5_report(self, capsys, c5_file):
        code, report = run_json(
            capsys, ["analyze", c5_file, "--json", "--no-timestamp"])
        assert code == 0
        assert report["input"] == {
            "n": 5, "m": 5, "format": "edgelist",
            "sha256": report["input"]["sha256"]}
        assert report["critical"]["d_c"] == 0
        assert report["critical"]["ker"] == []
        assert report["matching"]["mu"] == 2
        assert report["independence"]["alpha"] == 2
        assert report["ke_status"] is False

    def test_star_report(self, capsys, star_file):
        code, report = run_json(
            capsys, ["analyze", star_file, "--json", "--no-timestamp"])
        assert code == 0
        assert report["critical"]["d_c"] == 2
        assert report["critical"]["ker"] == [1, 2, 3]
        assert report["critical"]["diadem"] == [1, 2, 3]
        assert report["critical"]["minimal_positive_count"] == 3
        assert all(status == "pass"
                   for status in report["critical"]["checks"].values())

    def test_text_output_mentions_core_fields(self, capsys, c5_file):
        assert main(["analyze", c5_file, "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "d_c = 0" in out
        assert "mu = 2" in out

    def test_self_loop_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 1\n1 1\n")
        assert main(["analyze", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_negative_vertex_count_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("-1 0\n")
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ")

    def test_huge_vertex_count_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1000000000000 0\n")
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ")

    def test_exact_flag_exits_3_when_limited(self, capsys, c5_file):
        code = main(["analyze", c5_file, "--exact", "--enum-limit", "2",
                     "--json", "--no-timestamp"])
        assert code == 3
        assert "minimal_positive_sets" in capsys.readouterr().err

    def test_timestamp_present_unless_suppressed(self, capsys, c5_file):
        before = datetime.datetime.now(datetime.timezone.utc)
        _, with_ts = run_json(capsys, ["analyze", c5_file, "--json"])
        # ISO 8601 in UTC, taken during the run.
        stamp = datetime.datetime.fromisoformat(with_ts["generated_at"])
        assert stamp.utcoffset() == datetime.timedelta(0)
        assert before <= stamp <= datetime.datetime.now(
            datetime.timezone.utc)
        _, without = run_json(
            capsys, ["analyze", c5_file, "--json", "--no-timestamp"])
        assert "generated_at" not in without

    def test_seed_is_not_an_analyze_option(self, capsys, c5_file):
        # Nothing in a report depends on a seed, so analyze takes none.
        with pytest.raises(SystemExit) as exit_:
            main(["analyze", c5_file, "--seed", "1"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: critindep ")
        assert "error: unrecognized arguments: --seed 1" in err

    def test_env_override(self, capsys, c5_file, monkeypatch):
        monkeypatch.setenv("CRITINDEP_ENUM_LIMIT", "2")
        _, report = run_json(
            capsys, ["analyze", c5_file, "--json", "--no-timestamp"])
        assert "critical.minimal_positive_sets" in report["skipped"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "{}"],
        ["verify", "--family", "exhaustive-labeled", "--max-n", "2"],
    ], ids=["analyze", "verify"])
    def test_non_integer_env_limit_exits_2(self, capsys, c5_file,
                                           monkeypatch, argv):
        monkeypatch.setenv("CRITINDEP_ALPHA_LIMIT", "lots")
        assert main([arg.format(c5_file) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CRITINDEP_ALPHA_LIMIT")

    @pytest.mark.parametrize("limit, value", [
        ("enum", LIMIT_CEILING + 1), ("omega", LIMIT_CEILING + 1),
        ("alpha", ALPHA_CEILING + 1),
        ("enum", -1), ("omega", -1), ("alpha", -1),
    ])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_out_of_range_limit_exits_2(self, capsys, c5_file, monkeypatch,
                                        limit, value, via):
        argv = ["analyze", c5_file]
        if via == "flag":
            argv.append(f"--{limit}-limit={value}")
        else:
            monkeypatch.setenv(f"CRITINDEP_{limit.upper()}_LIMIT", str(value))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_limit_at_ceiling_is_accepted(self, capsys, c5_file, monkeypatch,
                                          via):
        argv = ["analyze", c5_file, "--json", "--no-timestamp"]
        if via == "flag":
            argv.append(f"--enum-limit={LIMIT_CEILING}")
        else:
            monkeypatch.setenv("CRITINDEP_ENUM_LIMIT", str(LIMIT_CEILING))
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["critical"]["minimal_positive_count"] == 0

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_alpha_limit_above_its_ceiling_exits_2(self, capsys, tmp_path,
                                                   monkeypatch, via):
        # Branch-and-bound alpha on 1000 disjoint triangles would recurse
        # past the interpreter's limit.
        target = tmp_path / "triangles.txt"
        target.write_text(to_edge_list(disjoint_triangles(1000)))
        argv = ["analyze", str(target)]
        if via == "flag":
            argv.append("--alpha-limit=5000")
            source = "--alpha-limit"
        else:
            monkeypatch.setenv("CRITINDEP_ALPHA_LIMIT", "5000")
            source = "CRITINDEP_ALPHA_LIMIT"
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {source} must be at most {ALPHA_CEILING}, "
            "got 5000\n")

    def test_alpha_limit_at_its_ceiling_computes_alpha(self, capsys,
                                                      tmp_path):
        g = disjoint_triangles(ALPHA_CEILING // 3)
        g = Graph.build(ALPHA_CEILING, g.edges)
        target = tmp_path / "triangles.txt"
        target.write_text(to_edge_list(g))
        code, report = run_json(capsys, [
            "analyze", str(target), f"--alpha-limit={ALPHA_CEILING}",
            "--json", "--no-timestamp"])
        assert code == 0
        assert report["independence"]["alpha"] == (
            ALPHA_CEILING // 3 + ALPHA_CEILING % 3)

    def test_tab_separated_edge_list_is_detected(self, capsys, tmp_path):
        target = tmp_path / "c5.tsv"
        target.write_text(to_edge_list(cycle(5)).replace(" ", "\t"))
        auto = run_json(capsys, ["analyze", str(target), "--json",
                                 "--no-timestamp"])
        assert auto == run_json(capsys, [
            "analyze", str(target), "--format", "edgelist", "--json",
            "--no-timestamp"])
        assert auto[0] == 0
        assert auto[1]["input"]["format"] == "edgelist"

    @pytest.mark.parametrize("fmt", ["auto", "graph6"])
    def test_graph6_after_a_comment_line(self, capsys, tmp_path, fmt):
        # Auto-detection skips the comment; the graph6 parser once read
        # the comment line and rejected '#' as out of range.
        target = tmp_path / "star.g6"
        target.write_text(f"# note\n\n  {to_graph6(star(3))}\n")
        code, report = run_json(capsys, [
            "analyze", str(target), "--format", fmt, "--json",
            "--no-timestamp"])
        assert code == 0
        assert report["input"]["format"] == "graph6"
        assert (report["input"]["n"], report["input"]["m"]) == (4, 3)

    def test_long_augmenting_paths_end_without_a_traceback(self, capsys,
                                                           tmp_path):
        # The double cover's Hopcroft-Karp search once recursed along
        # each augmenting path and raised RecursionError here.
        target = tmp_path / "path.txt"
        target.write_text(to_edge_list(shuffled_path(20000, 0)))
        code, report = run_json(capsys, ["analyze", str(target), "--json",
                                         "--no-timestamp"])
        assert code == 0
        assert report["matching"]["mu"] == 10000
        assert report["critical"]["d_c"] == 0

    def test_unicyclic_block_for_nonke_graph(self, capsys, tmp_path):
        cu = generate(figure2_script())
        target = tmp_path / "fig2.g6"
        target.write_text(to_graph6(cu.graph) + "\n")
        _, report = run_json(
            capsys, ["analyze", str(target), "--json", "--no-timestamp"])
        assert report["unicyclic"]["verdict"] == "non-KE"
        assert report["unicyclic"]["coloring"] == cu.coloring_dict()


def disconnected_unicyclic_file(tmp_path, cycle_length: int,
                                path_length: int) -> str:
    """A cycle plus a disjoint path, as an edge-list file."""
    g = Graph.build(cycle_length + path_length,
                    [(i, (i + 1) % cycle_length) for i in range(cycle_length)]
                    + [(cycle_length + i, cycle_length + i + 1)
                       for i in range(path_length - 1)])
    target = tmp_path / f"c{cycle_length}_p{path_length}.txt"
    target.write_text(to_edge_list(g))
    return str(target)


class TestDisconnectedUnicyclic:
    def test_beyond_alpha_limit_is_unknown(self, capsys, tmp_path):
        path = disconnected_unicyclic_file(tmp_path, 3, 42)
        code, report = run_json(
            capsys, ["analyze", path, "--json", "--no-timestamp"])
        assert code == 0
        assert report["unicyclic"] == {"connected": False,
                                       "verdict": "unknown (limit)"}
        assert report["skipped"]["unicyclic.verdict"] == (
            "n=45 exceeds exact limit 40")
        assert report["checks"]["conjecture_1_3"] == "skipped"

    def test_exact_flag_exits_3_beyond_alpha_limit(self, capsys, tmp_path):
        path = disconnected_unicyclic_file(tmp_path, 3, 42)
        assert main(["analyze", path, "--exact", "--json"]) == 3
        assert ("exact field unicyclic.verdict unavailable"
                in capsys.readouterr().err)

    def test_raised_alpha_limit_gives_the_verdict(self, capsys, tmp_path):
        path = disconnected_unicyclic_file(tmp_path, 3, 42)
        _, report = run_json(capsys, ["analyze", path, "--alpha-limit", "45",
                                      "--json", "--no-timestamp"])
        block = report["unicyclic"]
        assert block["verdict"] == "non-KE"
        assert all(block["invariants"]["checks"].values())
        assert report["checks"]["conjecture_1_3"] == "pass"

    @pytest.mark.parametrize("cycle_length, verdict", [(3, "non-KE"),
                                                       (4, "KE")])
    def test_alpha_limit_flag_is_read(self, capsys, tmp_path, cycle_length,
                                      verdict):
        path = disconnected_unicyclic_file(tmp_path, cycle_length, 3)
        _, report = run_json(capsys, ["analyze", path,
                                      "--json", "--no-timestamp"])
        assert report["unicyclic"]["verdict"] == verdict
        _, report = run_json(capsys, ["analyze", path, "--alpha-limit", "5",
                                      "--json", "--no-timestamp"])
        assert report["unicyclic"]["verdict"] == "unknown (limit)"
        assert "unicyclic.verdict" in report["skipped"]

    def test_verify_reads_the_alpha_limit(self, capsys):
        argv = ["verify", "--family", "unicyclic-disconnected",
                "--samples", "20", "--checks", "conjecture_1_3",
                "--json", "--no-timestamp"]
        _, report = run_json(capsys, argv)
        assert report["checks"]["conjecture_1_3"]["pass"] > 0
        _, report = run_json(capsys, argv + ["--alpha-limit", "3"])
        assert report["checks"]["conjecture_1_3"] == {
            "pass": 0, "fail": 0, "skipped": 20}


class TestGenerate:
    def test_bare_cycle_script(self, capsys, tmp_path):
        script = tmp_path / "c5.script"
        script.write_text("cycle 5\n")
        assert main(["generate", "--script", str(script)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == to_graph6(cycle(5))

    def test_figure2_files(self, capsys, tmp_path):
        script = tmp_path / "fig2.script"
        lines = ["cycle 5"] + [f"{kind} {t}"
                               for kind, t in figure2_script().steps]
        script.write_text("\n".join(lines) + "\n")
        prefix = str(tmp_path / "fig2")
        assert main(["generate", "--script", str(script),
                     "--out", prefix]) == 0
        colors = json.loads((tmp_path / "fig2.colors.json").read_text())
        assert len(colors["black"]) == 9
        assert len(colors["red"]) == 7
        assert len(colors["blue"]) == 5
        assert (tmp_path / "fig2.g6").exists()
        assert (tmp_path / "fig2.script").exists()

    def test_early_leaf_exits_2(self, capsys, tmp_path):
        script = tmp_path / "bad.script"
        script.write_text("cycle 3\nleaf 0\n")
        assert main(["generate", "--script", str(script)]) == 2
        assert "not red" in capsys.readouterr().err

    def test_unwritable_out_prefix_exits_2(self, capsys, tmp_path):
        prefix = str(tmp_path / "absent" / "x")
        assert main(["generate", "--random", "5,1,1", "--out", prefix]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("counts", ["40001,0,0", "3,20000,0",
                                        "3,4999,1"])
    def test_random_script_over_the_vertex_cap_exits_2(self, capsys, counts):
        tracemalloc.start()
        try:
            code = main(["generate", "--random", counts])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert peak < 1 << 20

    @pytest.mark.parametrize("text", ["cycle 40001\n",
                                      "cycle 3\n" + "p2 0\n" * 5000])
    def test_script_over_the_vertex_cap_exits_2(self, capsys, tmp_path,
                                                 text):
        script = tmp_path / "big.script"
        script.write_text(text)
        tracemalloc.start()
        try:
            code = main(["generate", "--script", str(script)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "above the limit 10000" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("counts", ["3,-1,0", "3,1,-2"])
    def test_negative_random_counts_exit_2(self, capsys, counts):
        assert main(["generate", "--random", counts]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spec, message", [
        ("0,1,0", "cycle length must be odd and >= 3, got 0"),
        ("3,1", "expects CYCLE,P2,LEAF"),
    ], ids=["zero-cycle", "two-counts"])
    def test_bad_random_spec_exits_2_with_reason(self, capsys, spec,
                                                  message):
        assert main(["generate", "--random", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_random_mode_is_seeded(self, capsys):
        assert main(["generate", "--random", "5,2,1", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--random", "5,2,1", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first


class TestRecognize:
    def test_round_trip_against_sidecar(self, capsys, tmp_path):
        cu = generate(figure2_script())
        target = tmp_path / "fig2.g6"
        target.write_text(to_graph6(cu.graph) + "\n")
        assert main(["recognize", str(target)]) == 0
        assert json.loads(capsys.readouterr().out) == cu.coloring_dict()

    def test_even_cycle_reports_ke(self, capsys, tmp_path):
        target = tmp_path / "c6.g6"
        target.write_text(to_graph6(cycle(6)) + "\n")
        assert main(["recognize", str(target)]) == 0
        assert capsys.readouterr().out.strip() == "KE"

    def test_leaf_on_cycle_reports_ke(self, capsys, tmp_path):
        target = tmp_path / "c3p.g6"
        target.write_text(to_graph6(c3_with_pendant()) + "\n")
        assert main(["recognize", str(target)]) == 0
        assert capsys.readouterr().out.strip() == "KE"

    def test_non_unicyclic_exits_2(self, capsys, tmp_path):
        target = tmp_path / "k4.g6"
        target.write_text(to_graph6(complete(4)) + "\n")
        assert main(["recognize", str(target)]) == 2


class TestVerify:
    def test_small_exhaustive_sweep_passes(self, capsys):
        code = main(["verify", "--family", "exhaustive-labeled",
                     "--max-n", "4", "--json", "--no-timestamp"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graphs"] == 75  # 1 + 2 + 8 + 64 labeled graphs
        assert report["failures"] == []

    def test_injected_failure_exits_1_with_certificate(self, capsys,
                                                       tmp_path):
        cert = tmp_path / "failures.cert"
        code = main(["verify", "--family", "exhaustive-labeled",
                     "--max-n", "2", "--inject-failure",
                     "--cert", str(cert), "--json", "--no-timestamp"])
        assert code == 1
        lines = cert.read_text().splitlines()
        assert len(lines) == 1
        graph6, check_id = lines[0].split()
        assert check_id == "conjecture_1_1"
        assert graph6

    def test_unwritable_cert_exits_2(self, capsys, tmp_path):
        cert = tmp_path / "absent" / "failures.cert"
        code = main(["verify", "--family", "exhaustive-labeled",
                     "--max-n", "2", "--inject-failure",
                     "--cert", str(cert), "--json", "--no-timestamp"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_check_exits_2(self, capsys):
        code = main(["verify", "--family", "random-gnp",
                     "--checks", "no_such_check"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--family", "exhaustive-labeled", "--min-n", "-1", "--max-n", "1"],
        ["--family", "random-gnp", "--min-n", "-3"],
        ["--family", "random-gnp", "--min-n", "5", "--max-n", "4"],
        ["--family", "random-bipartite", "--samples", "-1"],
    ], ids=["exhaustive-negative", "gnp-negative", "min-above-max",
            "negative-samples"])
    def test_bad_size_range_exits_2(self, capsys, argv):
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("family", ["random-gnp", "random-bipartite"])
    def test_random_family_above_the_size_cap_exits_2(self, capsys, family):
        assert main(["verify", "--family", family, "--min-n", "2001",
                     "--max-n", "2001", "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {family} family supports n <= 2000\n"

    @pytest.mark.parametrize("family", ["random-gnp", "random-bipartite"])
    def test_random_family_at_the_size_cap_is_accepted(self, capsys,
                                                       family):
        # No samples, so the cap is checked without drawing a graph.
        code, report = run_json(capsys, [
            "verify", "--family", family, "--max-n", "2000",
            "--samples", "0", "--json", "--no-timestamp"])
        assert code == 0 and report["graphs"] == 0

    def test_text_output(self, capsys):
        assert main(["verify", "--family", "exhaustive-labeled",
                     "--max-n", "2", "--checks", "dc_oracle_agreement",
                     "--no-timestamp"]) == 0
        assert capsys.readouterr().out == (
            "family=exhaustive-labeled graphs=3 seed=0\n"
            "  dc_oracle_agreement: pass=3 fail=0 skipped=0\n")

    def test_check_subset_runs_only_those(self, capsys):
        code = main(["verify", "--family", "random-gnp", "--max-n", "6",
                     "--samples", "5", "--seed", "1",
                     "--checks", "dc_oracle_agreement",
                     "--json", "--no-timestamp"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["checks"]) == ["dc_oracle_agreement"]


class TestHx:
    def test_star_leaves(self, capsys, star_file):
        assert main(["hx", star_file, "--set", "1,2,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ker_equals_x"] is True
        assert report["embedded_x"] == report["gadget_ker"]

    def test_dependent_set_exits_2(self, capsys, star_file):
        assert main(["hx", star_file, "--set", "0,1"]) == 2


def _outcome(parse, argv, capsys):
    """The exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as done:
        parse(argv)
    out = capsys.readouterr()
    return done.value.code, out.out, out.err


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["--help"], *([name, "--help"] for name in COMMANDS), [], ["nope"],
        ["analyze", "{}", "--bogus"], ["verify", "--family", "nope"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_help_and_errors_match_the_full_parser(self, capsys, c5_file,
                                                   argv):
        # main builds only the named command's subparser and keeps it;
        # what it prints and how it exits, on the first call and with the
        # kept parser, must be what the parser with all five gives.
        argv = [arg.format(c5_file) for arg in argv]
        full = _outcome(build_parser().parse_args, argv, capsys)
        assert full[0] in (0, 2)
        for _ in range(2):
            assert _outcome(main, argv, capsys) == full

    def test_unknown_command_is_an_invalid_choice_for_command(self, capsys):
        # Only the full build, which keeps the default metavar, names the
        # argument "command" here.
        code, _, err = _outcome(main, ["nope"], capsys)
        assert code == 2
        assert "error: argument command: invalid choice: 'nope'" in err

    def test_main_builds_each_parser_once(self, capsys, monkeypatch,
                                          c5_file):
        # A well-formed command line builds no parser; help and errors
        # build each parser they need once per process.
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                            counted)
        _parser.cache_clear()
        argv = ["analyze", c5_file, "--json", "--no-timestamp"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert built == [] and _parser.cache_info().currsize == 0
        for _ in range(2):
            for argv in (["nope"], ["--help"], [], ["analyze", "--help"],
                         ["analyze", "--json"]):
                with pytest.raises(SystemExit):
                    main(argv)
        assert built == [*COMMANDS, "analyze"]
        capsys.readouterr()


# Values for the equivalence test: every option gets a good one (a
# choice, an int, a plain string) about half the time, else one of these.
_VALUES = ["auto", "random-gnp", "3", "0", "x", "", "1,2", "-3", "3.5",
           "nope", "g.txt", "x y", "--json"]
# Tokens the fast path must leave to argparse, or that argparse rejects.
_AWKWARD = ["--", "-h", "--help", "-3", "--js", "--form", "--se",
            "--json=1", "--format=auto", "--seed=3", "-", "--bogus",
            "-x", "analyze"]


def _argv(name: str):
    """argv for command `name`: mostly its positionals and required
    options, some other options with values and at most two awkward
    tokens, in any order.  A positional or required option may also be
    missing or repeated."""
    rec = _Recorder()
    COMMANDS[name][2](rec)
    needed, units = [], []
    for names, kwargs in rec.calls:
        good = (kwargs.get("choices") or (["0", "7", "12"]
                if kwargs.get("type") is int else ["g.txt", "1,2", ""]))
        value = st.sampled_from(list(good)) | st.sampled_from(_VALUES)
        if not names[0].startswith("-"):
            unit = value.map(lambda v: [v])
        elif kwargs.get("action") == "store_true":
            unit = st.sampled_from(names).map(lambda o: [o])
        else:
            unit = st.tuples(st.sampled_from(names), value).map(list)
        units.append(unit)
        if not names[0].startswith("-") or kwargs.get("required"):
            needed.append(unit)
    awkward = st.sampled_from(_AWKWARD).map(lambda token: [token])
    parts = st.tuples(
        st.tuples(*needed) | st.tuples(*needed) | st.just(()),
        st.lists(st.one_of(units), max_size=5),
        st.lists(awkward, max_size=2) | st.just([]))
    return parts.flatmap(
        lambda p: st.permutations([*p[0], *p[1], *p[2]])).map(
        lambda chosen: [name, *(token for unit in chosen for token in unit)])


class TestFastParse:
    @settings(max_examples=400, deadline=None)
    @given(argv=st.sampled_from(list(COMMANDS)).flatmap(_argv))
    def test_agrees_with_argparse_or_declines(self, argv):
        fast = _fast_parse(argv)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                full = vars(_parser(None).parse_args(argv))
            except SystemExit:
                full = None
        if full is None:
            assert fast is None
        elif fast is not None:
            assert vars(fast) == full

    @pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
    def test_benchmark_command_lines_take_the_fast_path(self, tmp_path,
                                                        workload):
        argv = list(workloads.commands(workload, 0, tmp_path)[0].argv)
        fast = _fast_parse(argv)
        assert fast is not None
        assert vars(fast) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        # Outside the grammar: generate's mutually exclusive group.
        ["generate", "--random", "5,1,1"],
        # Tokens argparse reads as a positional, help or an error.
        ["analyze", "-"], ["analyze", "-3"], ["analyze", "-h"],
        ["analyze", "-x"], ["analyze", "--", "g"],
        # Spellings argparse expands.
        ["analyze", "g", "--js"], ["analyze", "g", "--json=1"],
        # Values starting with "-", taken by argparse or an error there.
        ["hx", "g", "--set", "-3"],
        ["verify", "--family", "random-gnp", "--seed", "-3"],
        ["verify", "--family", "random-gnp", "--checks", "--json"],
        # Errors: a bad int or choice, a missing value, required option or
        # positional, an extra positional.
        ["verify", "--family", "random-gnp", "--seed", "3.5"],
        ["verify", "--family", "nope"], ["analyze", "g", "--format"],
        ["verify"], ["hx", "g"], ["analyze"], ["analyze", "g", "h"],
    ], ids=" ".join)
    def test_declines(self, argv):
        assert _fast_parse(argv) is None


class TestJsonText:
    @settings(max_examples=150)
    @given(payload=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.text("[]{},:\"\\\n\t\u00e9\u2603\U0001f600"),
        lambda inner: st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(st.text() | st.text("[]{},:\"\\\u00e9"), inner),
        max_leaves=30))
    def test_matches_json_dumps(self, payload):
        assert _json_text(payload) == json.dumps(payload, sort_keys=True,
                                                 indent=2)

    def test_matches_json_dumps_on_every_seed_0_benchmark_payload(
            self, capsys, tmp_path):
        workloads.write_corpus(0, tmp_path)
        count = 0
        for workload in workloads.WORKLOAD_NAMES:
            for command in workloads.commands(workload, 0, tmp_path):
                assert main(list(command.argv)) == 0
                text = capsys.readouterr().out
                assert text == json.dumps(json.loads(text), sort_keys=True,
                                          indent=2) + "\n"
                count += 1
        assert count == 50 + 4 + 44

    def test_hx_prints_what_json_dumps_prints(self, capsys, tmp_path):
        g, x = figure1_graph()
        target = tmp_path / "figure1.txt"
        target.write_text(to_edge_list(g))
        argv = ["hx", str(target), "--set", ",".join(map(str, x))]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["analyze", "{}"], ["recognize", "{}"], ["hx", "{}", "--set", "0"],
    ["generate", "--script", "{}"],
], ids=["analyze", "recognize", "hx", "generate"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_input_exits_2(capsys, tmp_path, argv, kind):
    path = str(tmp_path / "absent.txt" if kind == "missing" else tmp_path)
    assert main([arg.format(path) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_import_leaves_numpy_unloaded():
    code = "import sys, critindep.cli; print('numpy' in sys.modules)"
    env = {**os.environ,
           "PYTHONPATH": str(Path(critindep.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
           st.binary(max_size=48),
           # graph6 characters, so that some inputs parse as graphs
           st.text(st.characters(min_codepoint=63, max_codepoint=126),
                   max_size=48).map(str.encode)),
       argv=st.sampled_from([["analyze"], ["recognize"],
                             ["hx", "--set", "0"]]))
def test_random_bytes_exit_0_or_2(capsys, tmp_path, data, argv):
    # Arbitrary file contents either parse or end with a clean error;
    # an uncaught exception here would be a traceback for the user.
    target = tmp_path / "input"
    target.write_bytes(data)
    assert main([argv[0], str(target), *argv[1:]]) in (0, 2)
    capsys.readouterr()
