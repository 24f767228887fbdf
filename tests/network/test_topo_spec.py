"""The topology grammar: parse, canonicalize, capacity, rejection."""

import pytest

from repro.network import TopologyError, TopologySpec, parse_topology
from repro.network.spec import DEFAULT_BANYAN_PORTS
from repro.params import SimParams


def test_default_params_select_the_paper_banyan():
    spec = parse_topology(SimParams().topology)
    assert spec.kind == "banyan"
    assert spec.ports == DEFAULT_BANYAN_PORTS == 32
    assert spec.capacity == 32
    assert spec.canonical() == SimParams().topology


@pytest.mark.parametrize("text,kind,capacity", [
    ("banyan", "banyan", 32),
    ("banyan:8", "banyan", 8),
    ("banyan:128", "banyan", 128),
    ("fattree:k=2", "fattree", 2),
    ("fattree:k=4", "fattree", 16),
    ("fattree:k=8", "fattree", 128),
    ("torus:2x2", "torus", 4),
    ("torus:4x4x4", "torus", 64),
    ("torus:3x5", "torus", 15),
    ("torus:4x4x4:adaptive", "torus", 64),
])
def test_parse_kinds_and_capacity(text, kind, capacity):
    spec = parse_topology(text)
    assert spec.kind == kind
    assert spec.capacity == capacity


@pytest.mark.parametrize("text", [
    "banyan:32", "banyan:4", "fattree:k=4", "fattree:k=8",
    "torus:4x4", "torus:2x3x4", "torus:4x4x4:adaptive",
])
def test_canonical_round_trips(text):
    spec = parse_topology(text)
    assert parse_topology(spec.canonical()) == spec


def test_canonical_normalizes_defaults():
    # bare "banyan" and default routing render explicitly / minimally
    assert parse_topology("banyan").canonical() == "banyan:32"
    assert parse_topology("torus:2x2:dor").canonical() == "torus:2x2"
    assert parse_topology("torus:2x2:adaptive").canonical() == \
        "torus:2x2:adaptive"


def test_torus_routing_default_is_dor():
    assert parse_topology("torus:2x2").routing == "dor"
    assert parse_topology("torus:2x2:adaptive").routing == "adaptive"


@pytest.mark.parametrize("bad", [
    "", "  ", "hypercube:5", "banyan:12", "banyan:0", "banyan:x",
    "fattree", "fattree:4", "fattree:k=3", "fattree:k=0", "fattree:k=x",
    "torus:", "torus:4", "torus:4x4x4x4", "torus:0x4", "torus:axb",
    "torus:1x1", "torus:2x2:fancy",
])
def test_malformed_specs_rejected(bad):
    with pytest.raises(TopologyError):
        parse_topology(bad)


def test_non_string_rejected():
    with pytest.raises(TopologyError, match="must be a string"):
        parse_topology(32)


def test_topology_error_is_value_error():
    # callers that catch ValueError (params.validate) keep working
    assert issubclass(TopologyError, ValueError)


def test_spec_is_frozen_pure_data():
    spec = TopologySpec("torus", dims=(4, 4), routing="dor")
    with pytest.raises(Exception):
        spec.kind = "banyan"
