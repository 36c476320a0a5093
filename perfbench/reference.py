"""Reference answers for the benchmark, computed apart from the program.

Reads one JSON document on stdin — the targets and patterns as edge
lists plus every answer the program gave — and checks each answer with
networkx (subgraph monomorphism, enumeration, node connectivity) or a
closed form.  Prints ``{"correct": bool, "checked": int, "errors": [...]}``.
It imports nothing of the program, and runs in its own process so that
its memory is not counted in the program's peak RSS.

Run:  python3 perfbench/reference.py < answers.json
"""

from __future__ import annotations

import json
import sys

import networkx as nx
from networkx.algorithms import isomorphism as nxiso


def _graph(spec) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(spec["n"]))
    graph.add_edges_from(map(tuple, spec["edges"]))
    return graph


class Checker:
    def __init__(self, doc) -> None:
        self.targets = {k: _graph(v) for k, v in doc["targets"].items()}
        self.patterns = {k: _graph(v) for k, v in doc["patterns"].items()}
        self._maps = {}
        self.errors = []
        self.checked = 0

    def maps(self, target: str, pattern: str):
        """Every subgraph monomorphism, as pattern -> target dicts."""
        key = (target, pattern)
        if key not in self._maps:
            matcher = nxiso.GraphMatcher(
                self.targets[target], self.patterns[pattern]
            )
            self._maps[key] = [
                {p: t for t, p in m.items()}
                for m in matcher.subgraph_monomorphisms_iter()
            ]
        return self._maps[key]

    def fail(self, check, message: str) -> None:
        self.errors.append(f"{check['op']}: {message}")

    def witness_ok(self, check, witness) -> None:
        target = self.targets[check["target"]]
        pattern = self.patterns[check["pattern"]]
        mapping = {int(p): int(t) for p, t in witness.items()}
        if sorted(mapping) != sorted(pattern.nodes):
            self.fail(check, f"witness does not map every vertex: {mapping}")
        elif len(set(mapping.values())) != len(mapping):
            self.fail(check, f"witness is not injective: {mapping}")
        elif not all(target.has_edge(mapping[u], mapping[v])
                     for u, v in pattern.edges):
            self.fail(check, f"witness misses a target edge: {mapping}")

    def check(self, check) -> None:
        self.checked += 1
        kind = check["kind"]
        if kind == "decide":
            expected = bool(self.maps(check["target"], check["pattern"]))
            if check["found"] != expected:
                self.fail(check, f"found={check['found']}, "
                                 f"networkx says {expected}")
            if check.get("witness") is not None:
                self.witness_ok(check, check["witness"])
            elif check["found"] and check.get("want_witness"):
                self.fail(check, "found without a witness")
        elif kind in ("count", "list"):
            maps = self.maps(check["target"], check["pattern"])
            if check["isomorphisms"] != len(maps):
                self.fail(check, f"{check['isomorphisms']} isomorphisms, "
                                 f"networkx enumerates {len(maps)}")
            images = {frozenset(m.values()) for m in maps}
            if kind == "list":
                got = {frozenset(o) for o in check["occurrences"]}
                if got != images:
                    self.fail(check, f"{len(got)} occurrences listed, "
                                     f"networkx enumerates {len(images)}")
                for witness in check["witnesses"]:
                    self.witness_ok(check, dict(witness))
            closed = check.get("closed_form_images")
            if closed is not None and len(images) != closed:
                self.fail(check, f"{len(images)} images, "
                                 f"closed form {closed}")
            if closed is not None and kind == "list" and \
                    len(check["occurrences"]) != closed:
                self.fail(check, "occurrence count differs from the "
                                 "closed form")
        elif kind == "vc":
            expected = nx.node_connectivity(self.targets[check["target"]])
            if check["kappa"] != expected:
                self.fail(check, f"kappa={check['kappa']}, "
                                 f"networkx says {expected}")
        else:
            self.fail(check, f"unknown check kind {kind!r}")


def main() -> int:
    doc = json.load(sys.stdin)
    checker = Checker(doc)
    for check in doc["checks"]:
        checker.check(check)
    print(json.dumps({
        "correct": not checker.errors,
        "checked": checker.checked,
        "errors": checker.errors,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
