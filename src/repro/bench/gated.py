"""The deterministic, CI-gated benchmark tables, built in one place.

``benchmarks/bench_wallclock.py`` registers these tables (plus its
machine-dependent wall-clock ones) under ``--bench-json`` for the CI
perf job, and ``repro perf --compare`` rebuilds exactly the same tables
locally and runs the same 5% drift verdict against ``BENCH_PERF.json``
— one command instead of the two-step pytest + ``benchmarks/compare.py``
dance.

Every builder returns ``(table, aux)``: the :class:`Table` with the
gated rows (titles and row labels must match ``BENCH_PERF.json``
byte-for-byte — they are the join keys the comparator matches on) and
an ``aux`` dict carrying the raw metrics for the benchmark's
acceptance asserts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bench import perf
from repro.bench.report import Table


def kernel_proxy_table(iterations: int = 200) -> Tuple[Table, Dict]:
    metrics = perf.proxy_metrics(iterations=iterations)
    again = perf.proxy_metrics(iterations=iterations)
    table = Table(
        "Kernel hot-path proxy metric (work per replicated call)",
        ["workload", "callbacks/call", "allocs/call",
         "proxy (callbacks+allocs)"],
        formats=[None, "%.2f", "%.2f", "%.2f"],
        notes="Deterministic (machine-independent); CI gates the live "
              "row against BENCH_PERF.json at 5%.  The seed row is the "
              "unoptimized kernel, kept as the trajectory reference.")
    seed = perf.SEED_PROXY["circus-200"]
    table.add_row("circus-200 (seed)", seed["callbacks_per_call"],
                  seed["allocs_per_call"], seed["proxy"])
    table.add_row("circus-200", metrics["callbacks_per_call"],
                  metrics["allocs_per_call"], metrics["proxy"])
    return table, {"metrics": metrics, "again": again, "seed": seed}


def message_path_table(iterations: int = 200) -> Tuple[Table, Dict]:
    metrics = perf.message_path_metrics(iterations=iterations)
    again = perf.message_path_metrics(iterations=iterations)
    table = Table(
        "Message-path proxy metric (work per replicated call)",
        ["workload", "encodes/call", "daemons/call", "packets/call",
         "msg proxy (encodes+daemons)"],
        formats=[None, "%.2f", "%.2f", "%.2f", "%.2f"],
        notes="Deterministic (machine-independent); CI gates the live "
              "row against BENCH_PERF.json at 5%.  The seed row is the "
              "pre-optimization protocol stack: one encode per "
              "transmission and one retransmit daemon per transfer.")
    seed = perf.SEED_MESSAGE_PATH["circus-200"]
    table.add_row("circus-200 (seed)", seed["encodes_per_call"],
                  seed["daemons_per_call"], seed["packets_per_call"],
                  seed["msg_proxy"])
    table.add_row("circus-200", metrics["encodes_per_call"],
                  metrics["daemons_per_call"], metrics["packets_per_call"],
                  metrics["msg_proxy"])
    return table, {"metrics": metrics, "again": again, "seed": seed}


def delayed_ack_table() -> Tuple[Table, Dict]:
    off = perf.lossy_transfer_metrics(delayed_acks=False)
    on = perf.lossy_transfer_metrics(delayed_acks=True)
    table = Table(
        "Message-path: delayed-ack coalescing (pm-loss15, deterministic)",
        ["configuration", "ms/transfer", "packets/transfer",
         "acks/transfer", "acks coalesced/transfer"],
        formats=[None, "%.4f", "%.3f", "%.3f", "%.3f"],
        notes="13-segment (6 KB) calls at 15% seeded loss.  delayed_acks "
              "holds the highest cumulative ack per message and flushes "
              "one batch per 10 ms interval; probe replies stay "
              "immediate so crash detection is unchanged.")
    for label, row in (("immediate-acks", off), ("delayed-acks", on)):
        table.add_row(label, row["ms_per_transfer"],
                      row["packets_per_transfer"], row["acks_per_transfer"],
                      row["acks_coalesced_per_transfer"])
    return table, {"off": off, "on": on,
                   "seed": perf.SEED_MESSAGE_PATH["pm-loss15"]}


def zero_copy_table(iterations: int = 200) -> Tuple[Table, Dict]:
    metrics = perf.zero_copy_metrics(iterations=iterations)
    again = perf.zero_copy_metrics(iterations=iterations)
    lossy = perf.lossy_transfer_metrics(delayed_acks=False)
    table = Table(
        "Message-path zero-copy (bytes copied per call)",
        ["workload", "bytes copied per call/transfer"],
        formats=[None, "%.3f"],
        notes="bytes_copied counts payload+header bytes written into "
              "fresh message-path buffers: one wire per segment, one "
              "marked wire per retransmitted segment, one join per "
              "delivered message; decode and reassembly are memoryviews "
              "and contribute zero.  The seed rows are the copying path "
              "(encode copied the payload twice, decode sliced it, "
              "wire_marked copied the whole wire twice).  Deterministic "
              "and CI-gated at 5%.")
    table.add_row("circus-200 (seed)",
                  perf.SEED_ZERO_COPY["circus-200"]["bytes_copied_per_call"])
    table.add_row("circus-200", metrics["bytes_copied_per_call"])
    table.add_row("pm-loss15 (seed)",
                  perf.SEED_ZERO_COPY["pm-loss15"][
                      "bytes_copied_per_transfer"])
    table.add_row("pm-loss15", lossy["bytes_copied_per_transfer"])
    return table, {"metrics": metrics, "again": again, "lossy": lossy}


def dispatch_table(iterations: int = 200) -> Tuple[Table, Dict]:
    metrics = perf.dispatch_metrics(iterations=iterations)
    again = perf.dispatch_metrics(iterations=iterations)
    table = Table(
        "Kernel batched dispatch (per replicated call)",
        ["workload", "callbacks/call", "ready lane/call", "lane share %"],
        formats=[None, "%.2f", "%.3f", "%.2f"],
        notes="Same-timestamp callbacks drain through a ready lane that "
              "bypasses the heap (no push+pop per entry).  callbacks/call "
              "must stay pinned — batching reorders nothing, it only "
              "cheapens dispatch; the lane share is how many dispatches "
              "took the batched path.  Deterministic and CI-gated at 5%.")
    seed = perf.SEED_DISPATCH["circus-200"]
    table.add_row("circus-200 (seed)", seed["callbacks_per_call"],
                  seed["ready_per_call"], seed["lane_share_pct"])
    table.add_row("circus-200", metrics["callbacks_per_call"],
                  metrics["ready_per_call"], metrics["lane_share_pct"])
    return table, {"metrics": metrics, "again": again, "seed": seed}


def observability_table(iterations: int = 200,
                        overhead_iterations: int = 60) -> Tuple[Table, Dict]:
    work = perf.obs_work_metrics(iterations=iterations)
    again = perf.obs_work_metrics(iterations=iterations)
    history = perf.history_work_metrics(iterations=iterations)
    plain, active, observed, ratio = perf.observability_overhead_ratio(
        iterations=overhead_iterations)
    _active_h, _recorded_h, history_ratio = perf.history_overhead_ratio(
        iterations=overhead_iterations)
    table = Table(
        "Observability telemetry (work per replicated call + overhead)",
        ["workload", "events/call", "ts updates/call", "milestones/call",
         "attributed %", "residual %", "virtual end (ms)",
         "overhead ratio (wall)", "stamped/call", "vc copies/call"],
        formats=[None, "%.2f", "%.2f", "%.2f", "%.2f", "%.2f", "%.3f",
                 "%.3f", "%.2f", "%.2f"],
        gate_columns=["events/call", "ts updates/call", "milestones/call",
                      "attributed %", "residual %", "virtual end (ms)",
                      "stamped/call", "vc copies/call"],
        notes="Time-series collector + critical-path analyzer attached "
              "to the circus workload, with causal clocks stamping every "
              "event.  Work columns are deterministic "
              "and CI-gated at 5%; the wall ratio (telemetry time over "
              "active-bus time per call) is machine-dependent and "
              "informational.  virtual end (ms) must equal the "
              "unobserved run's — subscribers never move virtual time.  "
              "The +history row adds the operation-history recorder; its "
              "work columns must equal the base row exactly (the "
              "recorder is a pure reader) and its wall ratio is the "
              "recorder's incremental cost on an active bus.  The "
              "eager-clocks row is the stamper before copy-on-merge "
              "vector clocks (one clock copy per event and per recorded "
              "edge), kept as the trajectory reference.")
    eager = perf.EAGER_CLOCKS["circus-200"]
    table.add_row("circus-200 (eager clocks)", "-", "-", "-", "-", "-",
                  "-", "-", eager["stamped_per_call"],
                  eager["snapshots_per_call"])
    table.add_row("circus-200", work["events_per_call"],
                  work["ts_updates_per_call"], work["milestones_per_call"],
                  work["attributed_pct"], work["residual_pct"],
                  work["virtual_end_ms"], ratio, work["stamped_per_call"],
                  work["snapshots_per_call"])
    table.add_row("circus-200+history", history["events_per_call"],
                  history["ts_updates_per_call"],
                  history["milestones_per_call"],
                  history["attributed_pct"], history["residual_pct"],
                  history["virtual_end_ms"], history_ratio,
                  history["stamped_per_call"],
                  history["snapshots_per_call"])
    return table, {"work": work, "again": again, "history": history,
                   "plain": plain, "active": active, "observed": observed,
                   "ratio": ratio, "history_ratio": history_ratio}


def elastic_table() -> Tuple[Table, Dict]:
    """The elastic grow-shrink table: the §6.4.2 availability experiment
    with the autoscaler reconfiguring the troupe through the §6.4.1
    protocols while an exponential failure process churns the pool.
    Every column is virtual-time-deterministic."""
    metrics = perf.elastic_metrics()
    again = perf.elastic_metrics()
    table = Table(
        "Elastic troupe grow-shrink (autoscaled availability experiment)",
        ["workload", "calls ok", "joins", "removes", "p99 ms",
         "troupe avail", "virtual end (ms)"],
        formats=[None, None, None, None, "%.3f", "%.6f", "%.3f"],
        notes="4-machine member pool, 12 s virtual, mttf 8 s / mttr "
              "1.2 s; the autoscaler grows on burst load, shrinks in "
              "quiet phases, and replaces fail-stopped members through "
              "§6.4.1 state transfer.  Every column is deterministic "
              "(virtual time only) and CI-gated at 5%: joins/removes "
              "pin the reconfiguration cadence, troupe avail is the "
              "uptime the M/M/n/n machine model cannot see.")
    table.add_row("elastic-pool4", metrics["calls_ok"], metrics["joins"],
                  metrics["removes"], metrics["p99_ms"],
                  metrics["troupe_availability"],
                  metrics["virtual_end_ms"])
    return table, {"metrics": metrics, "again": again}


#: every gated builder, in BENCH_PERF.json order.
GATED_BUILDERS = (
    kernel_proxy_table,
    dispatch_table,
    message_path_table,
    delayed_ack_table,
    zero_copy_table,
    observability_table,
    elastic_table,
)

#: builders with a fixed workload (no iterations knob).
_FIXED_WORKLOAD_BUILDERS = (delayed_ack_table, elastic_table)


def all_gated_tables(iterations: int = 200) -> List[Table]:
    """Build every CI-gated table (the ``repro perf --compare`` set)."""
    tables = []
    for builder in GATED_BUILDERS:
        if builder in _FIXED_WORKLOAD_BUILDERS:
            table, _aux = builder()
        else:
            table, _aux = builder(iterations=iterations)
        tables.append(table)
    return tables
