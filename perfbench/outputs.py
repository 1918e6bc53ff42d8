"""Reference outputs and the correctness gate.

A sweep command's reference is a digest of its full `--json
--no-timestamp` payload (the pass/fail/skipped count of every check) plus
one fingerprint per graph: a digest of the graph's vertex count, edges
and the status of every registry check, in the order the sweep ran them.
A change that skips more checks therefore fails the gate rather than
counting as a speed-up.

An analyze command's reference is a SHA-256 digest of its report with
`matching.maximum_matching` removed (the witness is not canonical), so
every other field is compared.  The witness itself is checked against
the generated graph: it must be a matching of size `mu`.

Seeds without a stored reference still require exit code 0, no failing
check and a valid witness.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

from workloads import is_sweep

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _digest(text: str, length: int) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:length]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def graph_fingerprint(n: int, edges, statuses: dict[str, str]) -> str:
    """Short digest of one sweep graph and its per-check outcome."""
    checks = ",".join(f"{cid}={statuses[cid]}" for cid in sorted(statuses))
    return _digest(f"{n}|{sorted(edges)}|{checks}", 8)


def payload_digest(payload: dict) -> str:
    return _digest(canonical(payload), 12)


def report_digest(report: dict) -> str:
    stripped = copy.deepcopy(report)
    stripped.get("matching", {}).pop("maximum_matching", None)
    return _digest(canonical(stripped), 64)


def reference_entry(workload: str, command_result: dict) -> dict:
    """The stored form of one command's output (see module docstring)."""
    payload = json.loads(command_result["stdout"])
    if is_sweep(workload):
        return {"payload_sha256": payload_digest(payload),
                "graphs": command_result["graphs"]}
    return {"report_sha256": report_digest(payload)}


def reference_path(directory: Path, workload: str) -> Path:
    return directory / f"{workload}.json"


def read_reference(directory: Path, workload: str) -> dict[int, list[dict]]:
    """seed -> command entries in the form `reference_entry` returns."""
    path = reference_path(directory, workload)
    if not path.is_file():
        return {}
    return {int(seed): entries
            for seed, entries in json.loads(path.read_text()).items()}


def write_reference(directory: Path, workload: str,
                    entries: dict[int, list[dict]]) -> None:
    """One seed per line, so a diff shows which seeds changed."""
    lines = [f'"{seed}": {canonical(entries[seed])}'
             for seed in sorted(entries)]
    directory.mkdir(parents=True, exist_ok=True)
    reference_path(directory, workload).write_text(
        "{\n" + ",\n".join(lines) + "\n}\n")


def _valid_witness(report: dict, graph) -> bool:
    n, edges = graph
    present = set(map(tuple, edges))
    seen: set[int] = set()
    witness = report["matching"]["maximum_matching"]
    for u, v in witness:
        if (min(u, v), max(u, v)) not in present or u in seen or v in seen:
            return False
        seen.update((u, v))
    return len(witness) == report["matching"]["mu"] and all(
        0 <= x < n for x in seen)


def _analyze_ok(report: dict) -> bool:
    if any(s == "fail" for s in report["checks"].values()):
        return False
    return all(v is not False
               for v in report["gallai_edmonds"]["checks"].values())


def judge(workload: str, command, result: dict, ref: dict | None
          ) -> tuple[int, int]:
    """(attempted, failed) for one command's result; see module docstring.

    A sweep attempts one unit per graph, an analyze command one unit.
    """
    sweep = is_sweep(workload)
    if sweep:
        ran = result.get("graphs", [])
        expected = ref["graphs"] if ref else ran
        attempted = max(len(ran), len(expected), 1)
    else:
        attempted = 1
    if result.get("rc") != 0:
        return attempted, attempted
    try:
        payload = json.loads(result["stdout"])
    except ValueError:
        return attempted, attempted
    if not isinstance(payload, dict):
        return attempted, attempted
    if not sweep:
        try:
            ok = _valid_witness(payload, command.graph) and (
                report_digest(payload) == ref["report_sha256"]
                if ref is not None else _analyze_ok(payload))
        except (KeyError, TypeError, ValueError):
            ok = False
        return 1, 0 if ok else 1
    if ref is not None and payload_digest(payload) != ref["payload_sha256"]:
        return attempted, attempted
    if payload.get("failures") or payload.get("graphs") != len(ran):
        return attempted, attempted
    return attempted, sum(
        1 for i in range(attempted)
        if i >= len(ran) or i >= len(expected) or ran[i] != expected[i])
