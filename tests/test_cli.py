"""Command-line front end: exit codes, report shape, determinism hooks."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import critindep
from critindep import generate, to_edge_list, to_graph6
from critindep.cli import main

from common import c3_with_pendant, complete, cycle, figure2_script, star


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

    def test_exact_flag_exits_3_when_limited(self, capsys, c5_file):
        code = main(["analyze", c5_file, "--exact", "--enum-limit", "2",
                     "--json", "--no-timestamp"])
        assert code == 3
        assert "minimal_positive_sets" in capsys.readouterr().err

    def test_timestamp_present_unless_suppressed(self, capsys, c5_file):
        _, with_ts = run_json(capsys, ["analyze", c5_file, "--json"])
        assert "generated_at" in with_ts
        _, without = run_json(
            capsys, ["analyze", c5_file, "--json", "--no-timestamp"])
        assert "generated_at" not in without

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

    def test_unicyclic_block_for_nonke_graph(self, capsys, tmp_path):
        cu = generate(figure2_script())
        target = tmp_path / "fig2.g6"
        target.write_text(to_graph6(cu.graph) + "\n")
        _, report = run_json(
            capsys, ["analyze", str(target), "--json", "--no-timestamp"])
        assert report["unicyclic"]["verdict"] == "non-KE"
        assert report["unicyclic"]["coloring"] == cu.coloring_dict()


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

    def test_unknown_check_exits_2(self, capsys):
        code = main(["verify", "--family", "random-gnp",
                     "--checks", "no_such_check"])
        assert code == 2

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
