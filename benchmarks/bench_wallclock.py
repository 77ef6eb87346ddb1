"""Wall-clock throughput of the simulator itself (not virtual time).

Every other benchmark in this suite reports *virtual-time* results —
the paper's milliseconds, identical on every machine.  This one measures
how fast the simulator's wall clock spins: kernel events/sec, paired
message packets/sec, end-to-end replicated calls/sec, and the cost of
attaching the invariant monitors.

Wall-clock rows are machine-dependent and are **never** compared against
a committed baseline.  The CI gate uses the deterministic tables
(built once, in ``repro.bench.gated``, shared with ``repro perf
--compare``) compared against ``BENCH_PERF.json``:

    PYTHONPATH=src python -m pytest benchmarks/bench_wallclock.py -q \
        --bench-json perf_results.json
    PYTHONPATH=src python benchmarks/compare.py perf_results.json \
        --baseline BENCH_PERF.json --threshold 5 --require-all

or, in one command:

    PYTHONPATH=src python -m repro perf --compare
"""

import pytest

from repro.bench import gated, perf
from repro.bench.report import Table, register_table


def test_proxy_metric_is_deterministic_and_gated():
    """The CI-gated table: kernel work per replicated call.

    The seed row is frozen data from the unoptimized kernel, so the
    table itself documents the optimization trajectory; the live row is
    what ``BENCH_PERF.json`` gates at 5%.
    """
    table, aux = gated.kernel_proxy_table(iterations=200)
    metrics, seed = aux["metrics"], aux["seed"]
    assert metrics == aux["again"], "proxy metric must be deterministic"
    register_table(table)

    # The message-path pass swapped per-transfer retransmit daemons for
    # one scheduler and its wake signals — a near-exact callback wash
    # (±0.1% of the seed), while the allocation savings must hold.
    assert (abs(metrics["callbacks_per_call"] - seed["callbacks_per_call"])
            <= 0.001 * seed["callbacks_per_call"])
    # The acceptance criterion for the hot-path pass: >= 20% less kernel
    # work per call than the seed (the freelist alone removes ~50%).
    assert metrics["proxy"] <= 0.8 * seed["proxy"]


def test_batched_dispatch_is_deterministic_and_gated():
    """The batched-dispatch table: same-timestamp callbacks drain
    through the ready lane (no heap push+pop per entry) while the total
    callback count stays pinned — batching cheapens dispatch, it never
    reorders or adds work.
    """
    table, aux = gated.dispatch_table(iterations=200)
    metrics, seed = aux["metrics"], aux["seed"]
    assert metrics == aux["again"], "dispatch metric must be deterministic"
    register_table(table)

    # Batching must not change how many callbacks run per call.
    assert metrics["callbacks_per_call"] == seed["callbacks_per_call"]
    # The lane must actually be used: a meaningful share of dispatches
    # bypasses the heap on the circus workload.
    assert metrics["ready_per_call"] > 0
    assert metrics["lane_share_pct"] >= 10.0


def test_message_path_proxy_metric_is_deterministic_and_gated():
    """The second CI-gated table: message-path work per replicated call.

    ``msg_proxy`` (segment encodes + endpoint daemons spawned per call)
    is what the encode-once/scheduler pass optimizes; the packets column
    is pinned to the seed because the pass must not change what goes on
    the wire (the virtual-time tables gate that too).
    """
    table, aux = gated.message_path_table(iterations=200)
    metrics, seed = aux["metrics"], aux["seed"]
    assert metrics == aux["again"], "message-path metric must be deterministic"
    register_table(table)

    # Wire-faithfulness: the same packets at the same times.
    assert metrics["packets_per_call"] == seed["packets_per_call"]
    # The acceptance criterion for the message-path pass: >= 40% less
    # encode + daemon work per call than the seed.
    assert metrics["msg_proxy"] <= 0.6 * seed["msg_proxy"]


def test_delayed_ack_coalescing_row():
    """Deterministic delayed-acks ablation on the lossy paired-message
    exchange: coalescing must cut ack packets without breaking delivery
    (the default row is pinned to the seed numbers — delayed acks stay
    opt-in and change nothing when off)."""
    table, aux = gated.delayed_ack_table()
    off, on, seed = aux["off"], aux["on"], aux["seed"]
    register_table(table)

    assert off["packets_per_transfer"] == seed["packets_per_transfer"]
    assert off["ms_per_transfer"] == seed["ms_per_transfer"]
    assert on["acks_per_transfer"] < off["acks_per_transfer"]
    assert on["packets_per_transfer"] < off["packets_per_transfer"]


def test_zero_copy_bytes_are_deterministic_and_gated():
    """The zero-copy table: payload+header bytes materialized on the
    message path per call must sit far below the recorded seed rows
    (the copying path measured before this pass).
    """
    table, aux = gated.zero_copy_table(iterations=200)
    metrics = aux["metrics"]
    assert metrics == aux["again"], "bytes_copied must be deterministic"
    register_table(table)

    # The zero-copy acceptance criterion: at least 40% fewer bytes
    # materialized per call than the copying path on both workloads.
    circus_seed = perf.SEED_ZERO_COPY["circus-200"]["bytes_copied_per_call"]
    lossy_seed = perf.SEED_ZERO_COPY["pm-loss15"]["bytes_copied_per_transfer"]
    assert metrics["bytes_copied_per_call"] <= 0.6 * circus_seed
    assert aux["lossy"]["bytes_copied_per_transfer"] <= 0.6 * lossy_seed


def test_kernel_events_per_sec():
    """Raw kernel throughput on the three canonical waitable shapes."""
    table = Table(
        "Wall-clock: kernel events/sec (machine-dependent, not gated)",
        ["workload", "events/sec", "allocs", "callbacks"],
        formats=[None, "%.0f", None, None],
        notes="timer = Sleep wake-ups; pingpong = queue put/get pairs; "
              "select = AnyOf(event, timeout) with a cancelled branch "
              "per round.  Best of 3 runs.")
    for kind in ("timer", "pingpong", "select"):
        rate, snapshot = perf.kernel_events_per_sec(
            kind, procs=100, steps=500)
        table.add_row(kind, rate, snapshot.get("calls_allocated", 0),
                      snapshot.get("callbacks_run", 0))
        assert rate > 0
    register_table(table)


def test_paired_message_packets_per_sec():
    rate = perf.paired_message_packets_per_sec(transfers=100)
    table = Table(
        "Wall-clock: paired-message packets/sec (machine-dependent)",
        ["workload", "packets/sec"], formats=[None, "%.0f"],
        notes="2 KB calls through the segmented paired-message protocol "
              "(acks, windowing, retransmission timers armed and "
              "cancelled per transfer).")
    table.add_row("pm-2KB", rate)
    register_table(table)
    assert rate > 0


def test_replicated_calls_and_monitor_overhead():
    plain, watched, ratio = perf.monitor_overhead_ratio(iterations=60)
    table = Table(
        "Wall-clock: replicated calls/sec (machine-dependent)",
        ["configuration", "calls/sec", "overhead ratio"],
        formats=[None, "%.0f", "%.2f"],
        notes="Circus(3) echo troupe.  The ratio is unobserved time "
              "over monitored time spent per call: what the full "
              "invariant-monitor suite costs when attached.")
    table.add_row("unobserved", plain, 1.0)
    table.add_row("with-monitors", watched, ratio)
    register_table(table)
    assert plain > 0 and watched > 0
    # Monitors cost something but must stay within an order of magnitude.
    assert ratio < 10.0


def test_observability_work_is_deterministic_and_budgeted():
    """The telemetry CI-gated table: work per replicated call.

    The counters (bus events delivered, time-series cell updates,
    critical-path milestones, clock stamps and vector-clock copies per
    call) and the attribution quality are deterministic and gated at
    5%; the wall-clock overhead ratio rides along informationally
    (``gate_columns`` keeps it out of the gate).
    ``virtual end (ms)`` is pinned to the unobserved run — a telemetry
    subscriber that perturbs the simulation moves it and fails the gate
    even if its work counters happen to match.
    """
    table, aux = gated.observability_table(iterations=200,
                                           overhead_iterations=60)
    work, history = aux["work"], aux["history"]
    assert work == aux["again"], "observability work must be deterministic"
    # The history recorder is a pure reader: attaching it must leave
    # every deterministic telemetry counter (and virtual time) alone.
    assert history == work, (
        "the history recorder perturbed the telemetry counters")
    register_table(table)

    wall = Table(
        "Wall-clock: telemetry overhead (machine-dependent, not gated)",
        ["configuration", "calls/sec"],
        formats=[None, "%.0f"],
        notes="active-bus = one no-op subscriber (the shared price of "
              "publishing events at all); with-telemetry adds the "
              "time-series collector and critical-path analyzer.")
    wall.add_row("unobserved", aux["plain"])
    wall.add_row("active-bus", aux["active"])
    wall.add_row("with-telemetry", aux["observed"])
    register_table(wall)

    # Copy-on-merge clocks: every event is stamped, but a vector clock
    # is copied only at a merge — under a quarter of the eager
    # stamper's per-event (and per-edge) copies.
    eager = perf.EAGER_CLOCKS["circus-200"]
    assert work["stamped_per_call"] == eager["stamped_per_call"]
    assert work["snapshots_per_call"] < 0.25 * eager["snapshots_per_call"]
    # Critical-path acceptance: >= 95% of latency lands in named stages.
    assert work["attributed_pct"] >= 95.0
    assert work["residual_pct"] < 5.0
    # The telemetry budget: <10% incremental wall cost on an active bus
    # in steady state; allow slack for noisy shared CI runners.
    assert aux["plain"] > 0 and aux["active"] > 0 and aux["observed"] > 0
    assert aux["ratio"] < 1.5
    # The recorder's correlation is two dict lookups per rpc event.
    assert aux["history_ratio"] < 1.5


def test_elastic_grow_shrink_is_deterministic_and_gated():
    """The elastic grow-shrink table: the autoscaled §6.4.2 availability
    experiment must land the same calls, the same membership churn, and
    the same troupe uptime on every machine (virtual time only), and
    the autoscaler must actually reconfigure — joins beyond the two
    founding members, removes beyond zero.
    """
    table, aux = gated.elastic_table()
    metrics = aux["metrics"]
    assert metrics == aux["again"], "elastic metrics must be deterministic"
    register_table(table)

    assert metrics["calls_ok"] > 0
    # Churn happened: the founding bootstrap+join plus at least one
    # load- or failure-driven reconfiguration in each direction.
    assert metrics["joins"] > 2
    assert metrics["removes"] > 0
    assert 0.0 < metrics["troupe_availability"] <= 1.0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
