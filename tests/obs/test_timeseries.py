"""Tests for the windowed virtual-time time-series (repro.obs.timeseries)."""

import pytest

from repro.core import ExportedModule
from repro.harness import World
from repro.net.addresses import ProcessAddress
from repro.obs import (TimeSeriesCollector, TimeSeriesRegistry,
                       WindowedCounter, WindowedGauge)


# -- series mechanics ------------------------------------------------------

def test_counter_buckets_by_virtual_time():
    c = WindowedCounter(10.0, 16)
    c.inc(0.0)
    c.inc(9.9)
    c.inc(10.0)
    c.inc(25.0, n=3)
    assert c.points() == [(0.0, 2), (10.0, 1), (20.0, 3)]
    assert c.total() == 6


def test_counter_rate_per_sec():
    c = WindowedCounter(10.0, 16)
    for t in (0.0, 5.0, 12.0, 18.0):
        c.inc(t)
    # 4 events over 2 buckets of 10 virtual ms = 200/s.
    assert c.rate_per_sec() == pytest.approx(200.0)
    # Restricting to the last bucket sees only 2 events in 10 ms.
    assert c.rate_per_sec(last=1) == pytest.approx(200.0)
    assert WindowedCounter(10.0, 16).rate_per_sec() == 0.0


def test_ring_evicts_old_buckets():
    c = WindowedCounter(10.0, capacity=3)
    for bucket in range(5):
        c.inc(bucket * 10.0)
    assert c.evicted == 2
    assert [t for t, _ in c.points()] == [20.0, 30.0, 40.0]
    # total() covers only the retained window.
    assert c.total() == 3


def test_updates_counter_counts_every_cell_touch():
    c = WindowedCounter(10.0, 16)
    c.inc(0.0)
    c.inc(0.0)
    c.inc(15.0)
    g = WindowedGauge(10.0, 16)
    g.set(0.0, 7)
    assert c.updates == 3
    assert g.updates == 1


def test_gauge_keeps_last_value_per_bucket():
    g = WindowedGauge(10.0, 16)
    assert g.last() == 0
    g.set(1.0, 5)
    g.set(2.0, 3)
    g.set(11.0, 9)
    assert g.points() == [(0.0, 3), (10.0, 9)]
    assert g.last() == 9


# -- registry --------------------------------------------------------------

def test_registry_get_or_create_and_type_conflict():
    reg = TimeSeriesRegistry()
    a = reg.counter("net.packets_sent")
    assert reg.counter("net.packets_sent") is a
    assert reg.counter("x", host="a") is not reg.counter("x", host="b")
    with pytest.raises(TypeError):
        reg.gauge("net.packets_sent")


def test_registry_family_resolves_one_series_per_label_set():
    reg = TimeSeriesRegistry(bucket_ms=10.0)
    family = reg.family(WindowedCounter, "pm.retransmits", "endpoint")
    addr = ProcessAddress("host1", 7)
    series = family.labels(addr)
    assert family.labels("host1:7") is series
    assert reg.counter("pm.retransmits", endpoint=addr) is series
    series.inc(1.0)
    family.labels("host1:7").inc(2.0)
    assert list(reg.snapshot()) == ["pm.retransmits{endpoint=host1:7}"]
    assert series.points() == [(0.0, 2)]
    unhashable = reg.family(WindowedCounter, "x", "tags").labels([1, 2])
    assert reg.counter("x", tags=[1, 2]) is unhashable


def test_registry_snapshot_excludes_wall_anchors():
    reg = TimeSeriesRegistry(bucket_ms=10.0)
    reg.counter("calls").inc(5.0)
    reg.anchor(5.0)
    assert reg.wall_anchors            # side table populated...
    snap = reg.snapshot()
    assert "calls" in snap
    assert snap["calls"]["points"] == [[0.0, 1]]
    # ...but nothing wall-clock-dependent reaches the snapshot.
    assert "wall_anchors" not in str(sorted(snap))


def test_registry_wall_points_pair_virtual_with_wall():
    reg = TimeSeriesRegistry(bucket_ms=10.0)
    reg.anchor(3.0)
    reg.anchor(7.0)                    # same bucket: first anchor wins
    reg.anchor(25.0)
    points = reg.wall_points()
    assert [t for t, _ in points] == [0.0, 20.0]
    assert all(isinstance(w, float) for _, w in points)


# -- the collector over a real run -----------------------------------------

def _echo_module():
    def echo(ctx, args):
        yield from ctx.compute(1.0)
        return b"echo:" + args
    return ExportedModule("echo", {0: echo})


def _run_collected(calls=4, seed=21):
    world = World(machines=4, seed=seed)
    troupe, _ = world.make_troupe("echo", _echo_module, degree=3)
    client = world.make_client()

    def body():
        for i in range(calls):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    with TimeSeriesCollector(world.sim.bus, bucket_ms=10.0) as collector:
        world.run(body())
    return world, collector.registry


def test_collector_builds_per_troupe_series():
    calls = 4
    world, reg = _run_collected(calls=calls)
    started = reg.series("rpc.calls_started", troupe="echo")
    completed = reg.series("rpc.calls_completed", troupe="echo",
                           outcome="ok")
    assert started.total() == calls
    assert completed.total() == calls
    hist = reg.series("rpc.call_ms", troupe="echo")
    cells = list(hist.cells.values())
    assert sum(cell.count for cell in cells) == calls
    assert min(cell.min for cell in cells) > 1.0  # the 1 ms of compute
    # Calls are sequential, so every bucket saw at most one in flight
    # and the gauge is back to zero at the end.
    assert reg.series("rpc.open_calls").last() == 0
    assert reg.series("net.packets_sent").total() == world.net.packets_sent


def test_collector_detaches_and_run_stays_virtual_time_identical():
    world, _ = _run_collected()
    assert not world.sim.bus.active
    observed_end = world.sim.now

    # The same seeded run, unobserved: byte-identical virtual time.
    world2 = World(machines=4, seed=21)
    troupe, _ = world2.make_troupe("echo", _echo_module, degree=3)
    client = world2.make_client()

    def body():
        for i in range(4):
            yield from client.call_troupe(troupe, 0, 0, b"ping %d" % i)

    world2.run(body())
    assert world2.sim.now == observed_end


def test_collector_series_are_deterministic_across_runs():
    _, reg1 = _run_collected(seed=33)
    _, reg2 = _run_collected(seed=33)
    assert reg1.snapshot() == reg2.snapshot()
    assert reg1.updates() == reg2.updates()
