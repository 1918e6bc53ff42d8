"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py MODE WORKLOAD SEED ROOT CORPUS OUT CPU

MODE is `probe` (time the import of critindep.cli and stop), `plain`
(run the workload's commands with tracing off) or `traced` (install the
tracer, run its self-test, then run the commands).  The commands run
in-process through `critindep.cli.main`, one after another, pinned to
CPU (`any` leaves the affinity alone).  The result is written as JSON to
OUT; run.py judges and aggregates it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def host_probe_ms() -> float:
    """Fastest of five timings of a fixed pure-Python loop: how fast the
    host ran this process around its commands.  Recorded, not a metric."""
    best = float("inf")
    for _ in range(5):
        begin = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - begin)
    return 1e3 * best


def main(argv: list[str]) -> int:
    mode, workload, seed, root, corpus, out, cpu = argv
    if cpu != "any":
        os.sched_setaffinity(0, {int(cpu)})
    start = time.perf_counter()
    sys.path.insert(0, str(Path(root) / "src"))
    import critindep.cli as cli
    result: dict = {"import_s": time.perf_counter() - start}
    if mode == "probe":
        Path(out).write_text(json.dumps(result))
        return 0

    from critindep import verification

    import outputs
    import tracing
    import workloads

    commands = workloads.commands(workload, int(seed), Path(corpus))
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        tracing.self_test(tracer)

    graphs: list = []
    run_graph_checks = verification.run_graph_checks

    def timed_checks(ctx, check_ids=None):
        begin = time.perf_counter()
        statuses = run_graph_checks(ctx, check_ids)
        graphs.append((ctx.g, statuses, time.perf_counter() - begin))
        return statuses

    sweep = workloads.is_sweep(workload)
    if sweep:
        verification.run_graph_checks = timed_checks

    results = []
    probe_before = host_probe_ms()
    for command in commands:
        graphs.clear()
        buffer = io.StringIO()
        error = None
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                rc = cli.main(list(command.argv))
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code!r})"
        except Exception as exc:  # a crash is a failed command, not a stop
            rc, error = None, repr(exc)
        wall = time.perf_counter() - begin
        entry = {"rc": rc, "error": error, "wall_s": wall,
                 "stdout": buffer.getvalue()}
        if sweep:
            entry["graph_s"] = [t for _, _, t in graphs]
            entry["graphs"] = [outputs.graph_fingerprint(g.n, g.edges, s)
                               for g, s, _ in graphs]
            statuses = [st for _, s, _ in graphs for st in s.values()]
        else:
            entry["graph_s"] = [wall]
            try:
                statuses = list(json.loads(entry["stdout"])["checks"].values())
            except (ValueError, KeyError, TypeError):
                statuses = []
        entry["checks_attempted"] = len(statuses)
        entry["checks_run"] = sum(1 for st in statuses if st != "skipped")
        results.append(entry)

    result["host_probe_ms"] = [probe_before, host_probe_ms()]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["commands"] = results
    if tracer is not None:
        result["spans"] = tracer.export()
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
