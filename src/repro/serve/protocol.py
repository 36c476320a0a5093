"""Request/response protocol of the query service.

One JSON object in, one JSON object out.  Requests name the target and
pattern by the same spec strings the CLI takes (``grid:16x16``,
``cycle:4`` — see :func:`repro.cli.parse_target`), so a curl transcript
and a CLI invocation read the same.  :func:`parse_query` validates and
normalizes a request into a :class:`QueryRequest` whose
:meth:`~QueryRequest.canonical` form keys request coalescing: two
requests coalesce exactly when their normalized fields agree.  Target
specs are checked by syntax only (:func:`repro.cli.parse_target_spec`):
the session pool builds a target once, when it is not resident.

Responses serialize the driver result dataclasses field-by-field —
verdict/witness/count/connectivity plus the charged ``cost``, the
``cold_equivalent_cost`` and ``amortized`` amortization surface, and
(under ``explain``) the executed :class:`~repro.engine.planner.QueryPlan`
via its own ``as_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import BadRequest

__all__ = [
    "QueryRequest",
    "MODES",
    "parse_query",
    "parse_body",
    "result_to_dict",
    "batch_to_dict",
]

#: Query modes the service exposes, with the session method they call.
MODES = ("decide", "count", "list", "connectivity")

_ENGINES = (None, "parallel", "sequential")
_PLANS = ("auto", "manual")

#: Fields a request may carry, beyond the per-mode required ones.
_KNOWN_FIELDS = frozenset(
    {
        "target", "pattern", "patterns", "seed", "rounds", "engine",
        "plan", "explain",
    }
)

#: Fields a mode's session method takes no parameter for: listing runs
#: until its dry-streak stopping rule, exact counting is deterministic
#: and runs the sequential window DP.
_NOT_FOR_MODE = {"list": ("rounds",), "count": ("rounds", "engine")}


@dataclass(frozen=True)
class QueryRequest:
    """A validated, normalized query (hashable: coalescing keys on it)."""

    mode: str
    target: str
    patterns: Tuple[str, ...]  # empty for connectivity
    seed: int
    rounds: Optional[int]
    engine: Optional[str]
    plan: str
    explain: bool

    def canonical(self) -> str:
        """Canonical JSON string identifying this query for coalescing.

        ``explain`` is excluded: it only changes the response envelope,
        not the computation, so an explain and a non-explain request for
        the same query still share one execution.
        """
        return json.dumps(
            {
                "mode": self.mode,
                "target": self.target,
                "patterns": list(self.patterns),
                "seed": self.seed,
                "rounds": self.rounds,
                "engine": self.engine,
                "plan": self.plan,
            },
            sort_keys=True,
        )


def parse_body(raw: bytes) -> dict:
    """Decode a request body as a JSON object."""
    if not raw:
        raise BadRequest("empty body: send a JSON object")
    try:
        payload = json.loads(raw)
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequest(f"body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    return payload


def _parse_spec(kind: str, spec: object, parser) -> str:
    """Validate one target/pattern spec string with a CLI parser.

    The CLI parsers raise ``SystemExit`` on bad specs (their argparse
    contract); the service maps that to a 400 instead of dying.
    """
    if not isinstance(spec, str) or not spec:
        raise BadRequest(f"{kind!r} must be a non-empty spec string")
    try:
        parser(spec)
    except SystemExit as exc:
        raise BadRequest(str(exc)) from exc
    return spec


def parse_query(mode: str, payload: dict, batch: bool = False) -> QueryRequest:
    """Validate ``payload`` for ``mode`` and normalize defaults.

    ``plan`` defaults to ``"auto"``: the daemon answers every query
    through the cost-based planner unless the client opts out.
    """
    from .. import cli

    unknown = sorted(set(payload) - _KNOWN_FIELDS)
    if unknown:
        raise BadRequest(f"unknown fields: {', '.join(unknown)}")

    if "target" not in payload:
        raise BadRequest("missing required field 'target'")
    target = _parse_spec(
        "target", payload["target"], cli.parse_target_spec
    )

    patterns: Tuple[str, ...] = ()
    if batch:
        raw = payload.get("patterns")
        if not isinstance(raw, list) or not raw:
            raise BadRequest(
                "'patterns' must be a non-empty list of spec strings"
            )
        patterns = tuple(
            _parse_spec("pattern", spec, cli.parse_pattern) for spec in raw
        )
    elif mode == "connectivity":
        if "pattern" in payload or "patterns" in payload:
            raise BadRequest("connectivity takes no pattern")
    else:
        if "pattern" not in payload:
            raise BadRequest("missing required field 'pattern'")
        patterns = (
            _parse_spec("pattern", payload["pattern"], cli.parse_pattern),
        )

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadRequest("'seed' must be an integer")
    for name in _NOT_FOR_MODE.get(mode, ()):
        if name in payload:
            raise BadRequest(f"'{name}' does not apply to {mode} queries")
    rounds = payload.get("rounds")
    if rounds is not None and (
        not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1
    ):
        raise BadRequest("'rounds' must be a positive integer")
    engine = payload.get("engine")
    if engine not in _ENGINES:
        raise BadRequest(
            f"'engine' must be one of {[e for e in _ENGINES if e]}"
        )
    plan = payload.get("plan", "auto")
    if plan not in _PLANS:
        raise BadRequest(f"'plan' must be one of {list(_PLANS)}")
    explain = payload.get("explain", False)
    if not isinstance(explain, bool):
        raise BadRequest("'explain' must be a boolean")
    return QueryRequest(
        mode=mode,
        target=target,
        patterns=patterns,
        seed=seed,
        rounds=rounds,
        engine=engine,
        plan=plan,
        explain=explain,
    )


def _cost_dict(cost) -> Optional[dict]:
    if cost is None:
        return None
    return {"work": int(cost.work), "depth": int(cost.depth)}


def _common_fields(result, explain: bool) -> dict:
    out = {
        "cost": _cost_dict(result.cost),
        "amortized": bool(getattr(result, "amortized", False)),
        "cold_equivalent_cost": _cost_dict(
            getattr(result, "cold_equivalent_cost", None)
        ),
    }
    plan = getattr(result, "plan", None)
    if explain and plan is not None:
        out["plan"] = plan.as_dict()
        out["explain"] = plan.explain()
    return out


def result_to_dict(mode: str, result, explain: bool = False) -> dict:
    """Serialize one driver result for the wire, keyed by query mode."""
    if mode == "decide":
        witness = result.witness
        out = {
            "found": bool(result.found),
            "witness": (
                {str(k): int(v) for k, v in sorted(witness.items())}
                if witness else None
            ),
            "rounds_used": int(result.rounds_used),
            "pieces_examined": int(result.pieces_examined),
        }
    elif mode == "count":
        out = {
            "isomorphisms": int(result.isomorphisms),
            "windows_examined": int(result.windows_examined),
        }
    elif mode == "list":
        occurrences = sorted(
            sorted(int(v) for v in occ) for occ in result.occurrences
        )
        out = {
            "occurrences": occurrences,
            "isomorphisms": len(result.witnesses),
            "iterations": int(result.iterations),
        }
    elif mode == "connectivity":
        cut = result.certificate_cut
        out = {
            "connectivity": int(result.connectivity),
            "certificate_cut": (
                sorted(int(v) for v in cut) if cut is not None else None
            ),
        }
    else:  # pragma: no cover - guarded by parse_query
        raise ValueError(f"unknown mode {mode!r}")
    out.update(_common_fields(result, explain))
    return out


def batch_to_dict(batch, patterns, explain: bool = False) -> dict:
    """Serialize a :class:`~repro.engine.session.BatchResult`."""
    return {
        "results": [
            dict(
                result_to_dict("decide", result, explain=explain),
                pattern=spec,
            )
            for spec, result in zip(patterns, batch.results)
        ],
        "queries": len(batch.results),
        "amortized_queries": int(batch.amortized_queries),
        "deduped_queries": int(batch.deduped_queries),
        "shared": bool(batch.shared),
        "cost": _cost_dict(batch.cost),
        "cold_equivalent_cost": _cost_dict(batch.cold_equivalent_cost),
        "cache_stats": dict(batch.cache_stats),
    }
