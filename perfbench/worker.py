"""Run one workload in this interpreter and print its measurements.

``run.py`` starts this script in a fresh interpreter for every trial,
so imports count toward set-up time, peak RSS is this trial's own, and
no trial runs on a heap an earlier one left behind.  It prints one JSON
object on its last line of output::

    PYTHONPATH=src python3 perfbench/worker.py --workload circus \\
        --seed 1 --mode trial

Modes:

``setup``
    Build the workload and stop at its first call; report
    ``time.monotonic()`` at that moment.
``trial``
    Build the workload and run it once.  Report ``time.monotonic()`` at
    the first call, calls completed and the host seconds they took,
    virtual latency, peak RSS, digests of everything that must repeat
    exactly for the seed, and any correctness problem: a wrong reply or
    a monitor finding.
``trace``
    Run one trial plain, one under the layer profiler and one with the
    critical-path analyzer attached, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time

import repro

from workloads import WORKLOADS

#: the checkout's source tree, which the trial must measure.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(
    __file__))), "src")


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def virtual_metrics(outcome) -> dict:
    latencies = sorted(outcome.latencies_ms)
    return {
        "virt_p50_ms": percentile(latencies, 50),
        "virt_p99_ms": percentile(latencies, 99),
        "virt_goodput_cps": 1000.0 * outcome.completed / outcome.end_ms,
    }


def counters(world) -> dict:
    """The program's own deterministic work counters after a trial."""
    snapshot = world.sim.perf_snapshot()
    syscalls = collections.Counter()
    kernel_ms = 0.0
    for runtime in world.runtimes:
        syscalls.update(runtime.process.syscall_counts)
        kernel_ms += runtime.process.kernel_time
    net = world.net
    endpoint = world.endpoint_stats()
    return {
        "callbacks": snapshot["callbacks_run"],
        "allocs": snapshot["calls_allocated"],
        "ready": snapshot["ready_dispatched"],
        "syscalls": sum(syscalls.values()),
        "sendmsg": syscalls["sendmsg"],
        "recvmsg": syscalls["recvmsg"],
        "select": syscalls["select"],
        "setitimer": syscalls["setitimer"],
        "kernel_ms": kernel_ms,
        "packets": net.packets_sent,
        "bytes": net.bytes_sent,
        "dropped": net.packets_dropped,
        "duplicated": net.packets_duplicated,
        "encodes": endpoint["segment_encodes"],
        "daemons": endpoint["daemons_spawned"],
        "bytes_copied": endpoint["bytes_copied"],
        "retransmit_rounds": endpoint["retransmit_rounds"],
        "acks": endpoint["acks_sent"],
    }


def fingerprint(trial, outcome) -> dict:
    """Everything about a trial that must repeat exactly for its seed."""
    return {"latencies_ms": outcome.latencies_ms, "end_ms": outcome.end_ms,
            "completed": outcome.completed, "errors": outcome.errors,
            "counters": counters(trial.world)}


def outcome_problems(outcome) -> list:
    problems = list(outcome.problems)
    if outcome.wrong:
        problems.append("%d replies failed the correctness check"
                        % outcome.wrong)
    if not outcome.latencies_ms:
        problems.append("no call completed")
    return problems


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


class _FirstCall(Exception):
    """Stops a ``setup`` run at its first call."""


def setup_mode(build, seed: int, calls: int) -> dict:
    @contextlib.contextmanager
    def stop():
        raise _FirstCall(time.monotonic())
        yield

    try:
        build(seed, calls).run(around=stop)
    except _FirstCall as first:
        return {"first_call_monotonic": first.args[0]}
    raise RuntimeError("the workload issued no call")


def trial_mode(build, seed: int, calls: int) -> dict:
    first_call = []

    def mark():
        first_call.append(time.monotonic())
        return contextlib.nullcontext()

    trial = build(seed, calls)
    outcome = trial.run(around=mark)
    exact = fingerprint(trial, outcome)
    return {
        "first_call_monotonic": first_call[0],
        "completed": outcome.completed,
        "host_s": outcome.host_s,
        "virtual": virtual_metrics(outcome),
        "virtual_digest": digest([exact["latencies_ms"], exact["end_ms"]]),
        "digest": digest(exact),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": outcome_problems(outcome),
    }


def trace_mode(build, seed: int, calls: int) -> dict:
    # Imported here, not at the top: set-up time must not count modules
    # that only the traced run needs.
    from repro.obs import CritPathAnalyzer
    from repro.obs.critpath import STAGES

    from layertrace import LAYERS, OTHER, LayerTracer

    plain = build(seed, calls)
    plain_outcome = plain.run()
    reference = fingerprint(plain, plain_outcome)
    problems = outcome_problems(plain_outcome)

    tracer = LayerTracer()
    traced = build(seed, calls)
    traced_outcome = traced.run(around=lambda: tracer)
    if fingerprint(traced, traced_outcome) != reference:
        problems.append("the traced run differs from the untraced run")

    staged = build(seed, calls)
    with CritPathAnalyzer(staged.world.sim) as analyzer:
        staged_outcome = staged.run()
    if (staged_outcome.latencies_ms != reference["latencies_ms"]
            or staged_outcome.end_ms != reference["end_ms"]):
        problems.append("the critical-path run moved virtual time")
    report = analyzer.report()

    done = plain_outcome.completed
    count = reference["counters"]
    seen = tracer.counts
    traced_s = tracer.traced_s
    metrics = {
        "sim.callbacks_per_call": (count["callbacks"] / done, "count/call"),
        "sim.allocs_per_call": (count["allocs"] / done, "count/call"),
        "sim.ready_share": (count["ready"] / count["callbacks"], "fraction"),
        "host.syscalls_per_call": (count["syscalls"] / done, "count/call"),
        "host.sendmsg_per_call": (count["sendmsg"] / done, "count/call"),
        "host.recvmsg_per_call": (count["recvmsg"] / done, "count/call"),
        "host.select_per_call": (count["select"] / done, "count/call"),
        "host.setitimer_per_call": (count["setitimer"] / done, "count/call"),
        "host.kernel_ms_per_call": (count["kernel_ms"] / done, "ms/call"),
        "net.packets_per_call": (count["packets"] / done, "count/call"),
        "net.bytes_per_call": (count["bytes"] / done, "bytes/call"),
        "net.drop_share": (count["dropped"] / count["packets"], "fraction"),
        "net.dup_per_call": (count["duplicated"] / done, "count/call"),
        "pairedmsg.encodes_per_call": (count["encodes"] / done, "count/call"),
        "pairedmsg.daemons_per_call": (count["daemons"] / done, "count/call"),
        "pairedmsg.bytes_copied_per_call": (count["bytes_copied"] / done,
                                            "bytes/call"),
        "pairedmsg.retransmit_rounds_per_call": (
            count["retransmit_rounds"] / done, "count/call"),
        "pairedmsg.acks_per_call": (count["acks"] / done, "count/call"),
        "pairedmsg.useful_share": (
            seen["segments_split"] / seen["data_segments_sent"], "fraction"),
        "rpc.bytes_per_call": (seen["rpc_bytes"] / done, "bytes/call"),
        "core.replies_per_call": (seen["collator_adds"] / done, "count/call"),
        "obs.events_per_call": (seen["bus_emits"] / done, "count/call"),
        "failed_share": (plain_outcome.failed / plain_outcome.attempted,
                         "fraction"),
        "trace.overhead_ratio": (traced_outcome.host_s / plain_outcome.host_s,
                                 "ratio"),
    }
    # The hook inflates time per Python call, so the traced run gives
    # each layer's *share*; milliseconds are that share of the untraced
    # run's host time per call.
    plain_ms = 1000.0 * plain_outcome.host_s / done
    for layer in LAYERS + (OTHER,):
        share = tracer.self_s[layer] / traced_s
        metrics["%s.self_share" % layer] = (share, "fraction")
        metrics["%s.self_ms_per_call" % layer] = (share * plain_ms, "ms/call")
    stages = report["stages"]
    for stage in STAGES:
        total = stages[stage]["total_ms"] if stage in stages else 0.0
        metrics["stage.%s_ms" % stage] = (total / report["calls"], "ms")
    return {"metrics": metrics, "attempted": plain_outcome.attempted,
            "failed": plain_outcome.failed, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "trial", "trace"))
    parser.add_argument("--calls", type=int, default=None,
                        help="calls per trial (default: the workload's)")
    args = parser.parse_args(argv)
    if not os.path.realpath(repro.__file__).startswith(SRC + os.sep):
        print("repro imported from %s, not from %s"
              % (repro.__file__, SRC), file=sys.stderr)
        return 2
    build, calls = WORKLOADS[args.workload]
    calls = args.calls or calls
    if args.mode == "setup":
        result = setup_mode(build, args.seed, calls)
    elif args.mode == "trial":
        result = trial_mode(build, args.seed, calls)
    else:
        result = trace_mode(build, args.seed, calls)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
