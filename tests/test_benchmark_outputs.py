"""The analyze-sparse and verify-unicyclic benchmark commands give the
recorded outputs.

The benchmark in `perfbench/` judges every command it times against the
digests in `perfbench/reference`; this runs the seed-0 commands of those
two workloads once in-process and compares them the same way, so a change
to an analyze report or to a verify verdict shows up here and not only in
a benchmark run.  verify-unicyclic runs `theorem_2_5ii` on every graph.
Nothing under `perfbench/` is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from critindep.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import outputs  # noqa: E402
import workloads  # noqa: E402


def test_analyze_sparse_seed_0_matches_the_reference(tmp_path, capsys):
    workloads.write_corpus(0, tmp_path)
    commands = workloads.commands("analyze-sparse", 0, tmp_path)
    reference = outputs.read_reference(outputs.REFERENCE_DIR,
                                       "analyze-sparse")[0]
    assert len(commands) == len(reference) == 4
    for command, ref in zip(commands, reference):
        result = {"rc": main(list(command.argv)),
                  "stdout": capsys.readouterr().out}
        assert outputs.judge("analyze-sparse", command, result, ref) == (1, 0)


def test_verify_unicyclic_seed_0_matches_the_reference(capsys):
    commands = workloads.commands("verify-unicyclic", 0)
    reference = outputs.read_reference(outputs.REFERENCE_DIR,
                                       "verify-unicyclic")[0]
    assert len(commands) == len(reference) == 44
    for command, ref in zip(commands, reference):
        assert main(list(command.argv)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert outputs.payload_digest(payload) == ref["payload_sha256"]
