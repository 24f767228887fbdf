"""Unit tests for the metrics registry: counters, gauges, histograms,
scopes and probes."""

import json

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_NS,
    MetricError,
    MetricsRegistry,
    private_scope,
)


# -- counters ------------------------------------------------------------------

def test_counter_increments_and_defaults_to_zero():
    r = MetricsRegistry()
    c = r.counter("hits")
    assert c.value == 0
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_counter_rejects_negative_increment():
    c = MetricsRegistry().counter("hits")
    with pytest.raises(MetricError):
        c.inc(-1)


def test_counter_function_sourced_reads_live_state():
    state = {"n": 0}
    c = MetricsRegistry().counter("hits", fn=lambda: state["n"])
    assert c.value == 0
    state["n"] = 7
    assert c.value == 7


def test_counter_function_sourced_rejects_inc():
    c = MetricsRegistry().counter("hits", fn=lambda: 1)
    with pytest.raises(MetricError):
        c.inc()


def test_counter_get_or_create_returns_same_object():
    r = MetricsRegistry()
    assert r.counter("a.b") is r.counter("a.b")


# -- gauges --------------------------------------------------------------------

def test_gauge_set_and_track_max():
    g = MetricsRegistry().gauge("depth")
    g.set(3)
    g.track_max(10)
    g.track_max(2)          # lower: no effect
    assert g.value == 10
    g.set(1)                # set always overwrites
    assert g.value == 1


def test_gauge_function_sourced_rejects_writes():
    g = MetricsRegistry().gauge("depth", fn=lambda: 5)
    assert g.value == 5
    with pytest.raises(MetricError):
        g.set(1)
    with pytest.raises(MetricError):
        g.track_max(9)


# -- histograms ----------------------------------------------------------------

def test_histogram_buckets_and_overflow():
    h = MetricsRegistry().histogram("lat", buckets=(10, 100, 1000))
    for v in (5, 10, 11, 5000):
        h.observe(v)
    snap = h.value
    assert snap["count"] == 4
    assert snap["sum"] == 5026
    assert snap["buckets"] == {"10": 2, "100": 1, "1000": 0, "+inf": 1}


def test_histogram_rejects_bad_buckets():
    r = MetricsRegistry()
    with pytest.raises(MetricError):
        r.histogram("bad", buckets=())
    with pytest.raises(MetricError):
        r.histogram("bad2", buckets=(10, 10))


def test_histogram_default_buckets_are_latency_spectrum():
    h = MetricsRegistry().histogram("lat")
    assert h.bounds == DEFAULT_LATENCY_BUCKETS_NS
    assert h.bounds[0] == 250.0 and h.bounds[-1] == 1_000_000.0


# -- registry semantics --------------------------------------------------------

def test_histograms_with_equal_buckets_share_bounds():
    r = MetricsRegistry()
    a = r.histogram("a", buckets=(10, 100))
    b = r.scope("s").histogram("b", buckets=[10.0, 100.0])
    assert a.bounds is b.bounds and a.bounds == (10.0, 100.0)
    b.observe(50)
    assert a.value["buckets"] == {"10": 0, "100": 0, "+inf": 0}
    assert b.value == {"count": 1, "sum": 50,
                       "buckets": {"10": 0, "100": 1, "+inf": 0}}
    with pytest.raises(MetricError):
        r.histogram("c", buckets=(100, 10))


def test_kind_conflict_raises():
    r = MetricsRegistry()
    r.counter("x")
    with pytest.raises(MetricError):
        r.gauge("x")
    with pytest.raises(MetricError):
        r.histogram("x")


def test_bad_names_rejected():
    r = MetricsRegistry()
    for bad in ("", ".x", "x."):
        with pytest.raises(MetricError):
            r.counter(bad)


def test_names_filters_by_dotted_prefix():
    r = MetricsRegistry()
    for name in ("node0.nic.hits", "node0.bus.dma", "node10.nic.hits"):
        r.counter(name)
    assert r.names("node0") == ["node0.bus.dma", "node0.nic.hits"]
    # "node1" must not match "node10.*"
    assert r.names("node1") == []
    assert "node0.nic.hits" in r
    assert r.get("nope") is None


def test_snapshot_is_plain_json_safe_data():
    r = MetricsRegistry()
    r.counter("c").inc(2)
    r.gauge("g").set(1.5)
    r.histogram("h", buckets=(10,)).observe(3)
    snap = r.snapshot()
    assert snap["c"] == 2 and snap["g"] == 1.5
    assert snap["h"]["count"] == 1
    json.dumps(snap)  # must not raise


# -- scopes --------------------------------------------------------------------

def test_scope_prefixes_and_nests():
    r = MetricsRegistry()
    node = r.scope("node3")
    nic = node.scope("nic")
    nic.counter("hits").inc()
    node.gauge("qlen").set(2)
    assert r.snapshot() == {"node3.nic.hits": 1, "node3.qlen": 2}


def test_empty_scope_is_transparent():
    r = MetricsRegistry()
    r.scope("").counter("hits").inc()
    assert "hits" in r


def test_bad_scope_prefix_rejected():
    r = MetricsRegistry()
    with pytest.raises(MetricError):
        r.scope(".x")


def test_private_scope_isolates_components():
    a, b = private_scope(), private_scope()
    a.counter("hits").inc()
    b.counter("hits").inc(5)
    assert a.registry.snapshot() == {"hits": 1}
    assert b.registry.snapshot() == {"hits": 5}
