"""Unit tests for request validation and the coalescing key."""

import pytest

from repro import cli
from repro.serve.errors import BadRequest
from repro.serve.protocol import parse_body, parse_query


def test_parse_query_normalizes_defaults():
    req = parse_query(
        "decide", {"target": "grid:4x4", "pattern": "cycle:4"}
    )
    assert req.mode == "decide"
    assert req.target == "grid:4x4"
    assert req.patterns == ("cycle:4",)
    assert req.seed == 0
    assert req.rounds is None
    assert req.engine is None
    assert req.plan == "auto"
    assert req.explain is False


def test_parse_query_rejects_unknown_fields():
    with pytest.raises(BadRequest, match="unknown fields: frobnicate"):
        parse_query(
            "decide",
            {"target": "grid:4x4", "pattern": "cycle:4", "frobnicate": 1},
        )


def test_parse_query_requires_target_and_pattern():
    with pytest.raises(BadRequest, match="'target'"):
        parse_query("decide", {"pattern": "cycle:4"})
    with pytest.raises(BadRequest, match="'pattern'"):
        parse_query("decide", {"target": "grid:4x4"})


def test_parse_query_maps_bad_spec_to_bad_request():
    # cli.parse_target raises SystemExit on unknown families; the
    # service must turn that into a 400, never die.
    with pytest.raises(BadRequest):
        parse_query(
            "decide", {"target": "nope:3", "pattern": "cycle:4"}
        )
    with pytest.raises(BadRequest):
        parse_query(
            "decide", {"target": "grid:4x4", "pattern": "nope:3"}
        )


def test_parse_query_checks_target_syntax_without_building(monkeypatch):
    def no_build(spec):
        raise AssertionError(f"parse_query built {spec!r}")

    monkeypatch.setattr(cli, "parse_target", no_build)
    # grid:0x0 is well-formed; only building it fails (in the pool).
    req = parse_query("decide", {"target": "grid:0x0", "pattern": "cycle:4"})
    assert req.target == "grid:0x0"
    for bad in ("grid:4", "grid:ax4", "delaunay", "moebius:5"):
        with pytest.raises(BadRequest, match="bad target spec"):
            parse_query("decide", {"target": bad, "pattern": "cycle:4"})


@pytest.mark.parametrize(
    "mode,field,value",
    [("list", "rounds", 2), ("count", "rounds", 2),
     ("count", "engine", "sequential")],
)
def test_parse_query_rejects_fields_a_mode_does_not_take(mode, field, value):
    payload = {"target": "grid:4x4", "pattern": "cycle:4", field: value}
    with pytest.raises(BadRequest, match=f"'{field}'"):
        parse_query(mode, payload)


def test_parse_query_connectivity_takes_no_pattern():
    req = parse_query("connectivity", {"target": "wheel:6"})
    assert req.patterns == ()
    with pytest.raises(BadRequest, match="no pattern"):
        parse_query(
            "connectivity", {"target": "wheel:6", "pattern": "cycle:4"}
        )


def test_parse_query_batch_requires_pattern_list():
    req = parse_query(
        "batch",
        {"target": "grid:4x4", "patterns": ["cycle:4", "path:3"]},
        batch=True,
    )
    assert req.patterns == ("cycle:4", "path:3")
    for bad in ({}, {"patterns": []}, {"patterns": "cycle:4"}):
        payload = {"target": "grid:4x4", **bad}
        with pytest.raises(BadRequest):
            parse_query("batch", payload, batch=True)


@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", "zero"),
        ("seed", True),
        ("rounds", 0),
        ("rounds", "many"),
        ("engine", "quantum"),
        ("plan", "vibes"),
        ("explain", "yes"),
    ],
)
def test_parse_query_rejects_bad_field_values(field, value):
    payload = {"target": "grid:4x4", "pattern": "cycle:4", field: value}
    with pytest.raises(BadRequest):
        parse_query("decide", payload)


def test_canonical_ignores_explain_but_not_parameters():
    base = {"target": "grid:4x4", "pattern": "cycle:4", "seed": 7}
    a = parse_query("decide", base)
    b = parse_query("decide", {**base, "explain": True})
    assert a.canonical() == b.canonical()
    for change in (
        {"seed": 8},
        {"rounds": 2},
        {"engine": "sequential"},
        {"plan": "manual"},
        {"pattern": "path:3"},
    ):
        other = parse_query("decide", {**base, **change})
        assert other.canonical() != a.canonical()


def test_parse_body_rejects_non_objects():
    with pytest.raises(BadRequest, match="empty body"):
        parse_body(b"")
    with pytest.raises(BadRequest, match="not valid JSON"):
        parse_body(b"{nope")
    with pytest.raises(BadRequest, match="JSON object"):
        parse_body(b"[1, 2]")
