"""Output checks against the generator's references, plus the determinism gate.

Every check reads apprepo's output with the standard library only
(``ElementTree``, ``csv``, ``json``), never with apprepo's own readers, and
returns a list of failure messages; an empty list means the command passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from pathlib import Path

from workloads import Snapshot

HASHED = {"callgraph.xml": "callgraph/callgraph.xml", "model.xml": "gui/model.xml"}


def callgraph_edges(path: Path) -> set[tuple[str, str]]:
    edges = set()
    for method in ET.parse(path).getroot().iter("method"):
        caller = method.get("id")
        edges.update((caller, call.get("target")) for call in method.iter("calls"))
    return edges


class Checker:
    """Checks one run's outputs; remembers the first hash of every artifact."""

    def __init__(self):
        self.hashes: dict[str, str] = {}  # "<version>/<artifact>" -> sha256
        self.edges_verified: set[str] = set()  # callgraph hashes already checked

    def bundle(self, snapshot: Snapshot) -> list[str]:
        """A built project: determinism, generator edges, metrics.csv row."""
        failures = []
        label = snapshot.version.label
        for name, rel in HASHED.items():
            path = snapshot.out / rel
            if not path.is_file():
                failures.append(f"v{label}: {rel} missing")
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.hashes.setdefault(f"{label}/{name}", digest)
            if digest != first:
                failures.append(f"v{label}: {name} sha256 {digest} differs from {first}")
            if name == "callgraph.xml" and digest not in self.edges_verified:
                missing = snapshot.edges - callgraph_edges(path)
                if missing:
                    sample = "; ".join(" -> ".join(e) for e in sorted(missing)[:3])
                    failures.append(f"v{label}: {len(missing)} generator edges missing "
                                    f"from callgraph.xml, e.g. {sample}")
                else:
                    self.edges_verified.add(digest)
        metrics = snapshot.out / "metrics.csv"
        rows = (list(csv.DictReader(io.StringIO(metrics.read_text(encoding="utf-8"))))
                if metrics.is_file() else [])
        if rows != [snapshot.metrics_row]:
            failures.append(f"v{label}: metrics.csv {rows} != {[snapshot.metrics_row]}")
        return failures

    @staticmethod
    def validate(stdout: str, snapshot: Snapshot) -> list[str]:
        """``validate`` output: a clean summary with every handler resolved."""
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return [f"validate printed no JSON summary: {stdout[-200:]!r}"]
        expected = f"{snapshot.version.handler_bindings} resolved / 0 unresolved"
        failures = []
        if summary.get("violations") != 0:
            failures.append(f"validate reported violations: {summary}")
        if summary.get("handlers") != expected:
            failures.append(f"validate handlers {summary.get('handlers')!r} != {expected!r}")
        return failures

    @staticmethod
    def report(stdout: str, snapshots: list[Snapshot]) -> list[str]:
        """``report --csv`` output: one row per version, in timestamp order."""
        rows = list(csv.DictReader(io.StringIO(stdout)))
        expected = [s.metrics_row for s in
                    sorted(snapshots, key=lambda s: (s.version.timestamp, s.version.label))]
        return [] if rows == expected else [f"report rows {rows} != {expected}"]
