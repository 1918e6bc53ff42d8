"""Tests of the benchmark itself: seeded inputs, the tracer's bindings and
the correctness gate.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import shutil
import sys

import pytest

import outputs
import run
import tracing
import workloads

sys.path.insert(0, str(run.ROOT / "src"))


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_commands_repeat_for_a_seed(workload, tmp_path):
    assert (workloads.commands(workload, 7, tmp_path)
            == workloads.commands(workload, 7, tmp_path))


def test_seeds_change_random_inputs(tmp_path):
    for workload in ("verify-oracle", "verify-unicyclic", "analyze-sparse"):
        assert (workloads.commands(workload, 1, tmp_path)
                != workloads.commands(workload, 2, tmp_path))


def test_corpus_files_are_identical_for_a_seed(tmp_path):
    workloads.write_corpus(3, tmp_path / "a")
    workloads.write_corpus(3, tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_corpus_files_parse_to_the_generated_graphs(tmp_path):
    from critindep.graphs import parse_edge_list, parse_graph6

    workloads.write_corpus(0, tmp_path)
    formats = set()
    for name, n, edges in workloads.analyze_corpus(0):
        text = (tmp_path / name).read_text()
        if name.endswith(".txt"):
            g = parse_edge_list(text)
        else:
            g = parse_graph6(text.strip())
        formats.add(name.rsplit(".", 1)[1])
        assert (g.n, g.edges) == (n, tuple(sorted(edges)))
    assert formats == {"txt", "g6"}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_self_test_passes_with_every_binding_wrapped(tracer):
    tracing.self_test(tracer)


def test_missed_binding_fails_the_self_test(tracer):
    from critindep import gallai_edmonds

    gallai_edmonds.mu = gallai_edmonds.mu.__wrapped__
    with pytest.raises(tracing.SelfTestError, match="mu calls"):
        tracing.self_test(tracer)


def test_uninstall_restores_the_originals():
    from critindep import critical, gallai_edmonds, graphs, verification

    before = (critical.ker, gallai_edmonds.ker, graphs.Graph.build,
              dict(verification.CHECKS))
    t = tracing.Tracer()
    t.install()
    assert gallai_edmonds.ker is not before[1]
    t.uninstall()
    assert (critical.ker, gallai_edmonds.ker, graphs.Graph.build,
            dict(verification.CHECKS)) == before


def test_self_time_excludes_child_spans(tracer):
    from critindep import critical
    from critindep.graphs import Graph

    critical.ker(Graph.build(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    calls, total, own = tracing.totals(tracer.export())["critical.ker"]
    children = sum(t for (name, parent), (_, t, _) in tracer.spans.items()
                   if parent == "critical.ker")
    assert calls == 1 and own == total - children


# ---------------------------------------------------------------------------
# Metrics and the correctness gate
# ---------------------------------------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, percentile = run.tail(samples)
    assert value == 89.0 and percentile == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_end_to_end_takes_each_timing_at_its_fastest_repetition():
    def rep(walls, graph_s, rss):
        return {"peak_rss_mb": rss, "commands": [
            {"wall_s": w, "graph_s": g} for w, g in zip(walls, graph_s)]}

    plain = [rep([1.0, 4.0], [[0.2, 0.3], [1.0]], 30.0),
             rep([2.0, 2.0], [[0.1, 0.6], [0.5]], 32.0)]
    values, note = run.end_to_end(plain, [0.1, 0.3, 0.2])
    # Fastest time outside the graphs plus each graph's fastest time:
    # (0.5 + 0.1 + 0.3) for the first command, (1.5 + 0.5) for the second.
    assert values["graphs_per_s"] == pytest.approx(3 / (0.9 + 2.0))
    assert values["graph_ms_p50"] == pytest.approx(300.0)
    assert values["graph_ms_tail"] == pytest.approx(500.0)
    assert values["setup_s"] == 0.2 and values["peak_rss_mb"] == 31.0
    assert note["graph_ms_tail"] == {"percentile": 100.0, "samples": 3}


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()


def test_analyze_witness_and_digest_are_checked():
    graph = (3, ((0, 1), (1, 2)))
    report = {"matching": {"mu": 1, "maximum_matching": [[0, 1]]},
              "checks": {"theorem_2_2": "pass"},
              "gallai_edmonds": {"checks": {"c_perfect_matching": True}}}
    command = workloads.Command(("analyze", "g.txt"), graph=graph)
    result = {"rc": 0, "stdout": json.dumps(report)}
    ref = {"report_sha256": outputs.report_digest(report)}
    assert outputs.judge("analyze-sparse", command, result, ref) == (1, 0)
    other_witness = dict(report, matching={"mu": 1,
                                           "maximum_matching": [[1, 2]]})
    assert outputs.judge("analyze-sparse", command,
                         {"rc": 0, "stdout": json.dumps(other_witness)},
                         ref) == (1, 0)
    bad_witness = dict(report, matching={"mu": 1,
                                         "maximum_matching": [[0, 2]]})
    assert outputs.judge("analyze-sparse", command,
                         {"rc": 0, "stdout": json.dumps(bad_witness)},
                         ref) == (1, 1)
    assert outputs.judge("analyze-sparse", command, result,
                         {"report_sha256": "0" * 64}) == (1, 1)


def _run_unicyclic(capsys) -> dict:
    assert run.main(["--workload", "verify-unicyclic", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) == 0
    return last_json_line(capsys.readouterr().out)


def test_tampered_reference_makes_graphs_fail(tmp_path, monkeypatch, capsys):
    shutil.copy(outputs.reference_path(outputs.REFERENCE_DIR,
                                       "verify-unicyclic"), tmp_path)
    monkeypatch.setattr(outputs, "REFERENCE_DIR", tmp_path)
    clean = _run_unicyclic(capsys)
    assert clean["correct"] and clean["failed"] == 0
    repetitions, rest = divmod(clean["attempted"], 44)
    assert repetitions >= run.MIN_REPETITIONS and rest == 0

    # One command of the 44 in each repetition sweeps one graph.
    reference = outputs.read_reference(tmp_path, "verify-unicyclic")
    entry = reference[0][5]
    fingerprint = entry["graphs"][0]
    entry["graphs"][0] = "0" * 8
    outputs.write_reference(tmp_path, "verify-unicyclic", reference)
    tampered = _run_unicyclic(capsys)
    assert not tampered["correct"]
    assert tampered["failed"] == tampered["attempted"] // 44

    entry["graphs"][0] = fingerprint
    entry["payload_sha256"] = "0" * 12
    outputs.write_reference(tmp_path, "verify-unicyclic", reference)
    other_payload = _run_unicyclic(capsys)
    assert not other_payload["correct"]
    assert other_payload["failed"] == other_payload["attempted"] // 44


def test_fingerprint_sees_a_skipped_check():
    statuses = {"theorem_2_2": "pass", "theorem_2_3": "pass"}
    edges = [(0, 1)]
    assert outputs.graph_fingerprint(2, edges, statuses) != \
        outputs.graph_fingerprint(2, edges, dict(statuses,
                                                 theorem_2_3="skipped"))
