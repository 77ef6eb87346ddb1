"""The benchmark's four workloads, built only from repro's public API.

Each workload is a function ``build(seed, calls) -> Trial``.  Building
makes a fresh :class:`~repro.harness.World` with its troupes and
clients (the set-up); :meth:`Trial.run` then issues the traffic, drains
it, and returns an :class:`Outcome`.  Every input the program sees --
arguments, arrival times, cell choices -- comes from the benchmark's
own ``random.Random`` seeded with ``--seed``; the same seed also seeds
the world's wire.  Troupe IDs are pinned (``troupe_id_base``) so two
trials of one seed in one process are identical.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import random
import time
from typing import Callable, List, Optional

from repro.core import ExportedModule, ReplicatedCallError, RuntimeConfig
from repro.harness import World
from repro.net import NetworkConfig
from repro.pairedmsg import PairedMessageConfig
from repro.rpc import ThreadId
from repro.sim import SimulationError, Sleep

#: troupe IDs start here in every world, so repeated trials match.
TROUPE_ID_BASE = 1


@dataclasses.dataclass
class Outcome:
    """What one trial did.  Latencies are virtual milliseconds."""

    attempted: int
    completed: int = 0
    errors: int = 0           # calls that raised ReplicatedCallError
    wrong: int = 0            # replies that failed the correctness check
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    end_ms: float = 0.0       # virtual time when the run ended
    host_s: float = 0.0       # host seconds from first call to drained
    problems: List[str] = dataclasses.field(default_factory=list)

    @property
    def unfinished(self) -> int:
        return self.attempted - self.completed - self.errors

    @property
    def failed(self) -> int:
        return self.errors + self.unfinished


class Trial:
    """A built world plus the traffic that :meth:`run` will issue."""

    def __init__(self, world: World, drive: Callable, attempted: int):
        self.world = world
        self._drive = drive
        self.attempted = attempted

    def run(self, around: Optional[Callable] = None) -> Outcome:
        """Issue the traffic and drain it.  ``around`` is a context
        manager factory entered just before the first call is issued and
        left once the run has drained; the host time between the two is
        :attr:`Outcome.host_s`."""
        outcome = Outcome(attempted=self.attempted)

        def timed(fn: Callable[[], object]) -> None:
            with (around() if around is not None
                  else contextlib.nullcontext()):
                start = time.perf_counter()
                fn()
                outcome.host_s = time.perf_counter() - start

        self._drive(outcome, timed)
        outcome.end_ms = self.world.sim.now
        return outcome


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("perfbench/%s/%d" % (workload, seed))


def _echo_module() -> ExportedModule:
    return ExportedModule("echo", {0: lambda ctx, args: bytes(args)})


def _reverse_module() -> ExportedModule:
    return ExportedModule("reverse", {0: lambda ctx, args: bytes(args)[::-1]})


# ---------------------------------------------------------------------------
# circus / circus-observed: the Table 4.1 Circus(3) closed loop
# ---------------------------------------------------------------------------

def build_circus(seed: int, calls: int, observed: bool = False) -> Trial:
    """One unreplicated client, back-to-back 1-segment calls to a
    3-member echo troupe over a clean wire.  ``observed`` attaches the
    six monitors, causal clocks and flight recorder (``World.watch``)
    and metrics, time-series and critical path (``World.observe``)."""
    rng = _rng("circus", seed)
    args = [rng.randbytes(rng.randint(16, 256)) for _ in range(calls)]
    world = World(machines=4, seed=seed, troupe_id_base=TROUPE_ID_BASE)
    troupe, _ = world.make_troupe("echo", _echo_module, degree=3)
    client = world.make_client()

    def body(outcome: Outcome):
        sim = world.sim
        for arg in args:
            start = sim.now
            try:
                reply = yield from client.call_troupe(troupe, 0, 0, arg)
            except ReplicatedCallError:
                outcome.errors += 1
                continue
            outcome.latencies_ms.append(sim.now - start)
            outcome.completed += 1
            if reply != arg:
                outcome.wrong += 1

    def drive(outcome: Outcome, timed) -> None:
        if not observed:
            timed(lambda: world.run(body(outcome)))
            return
        with world.watch() as probe, world.observe():
            timed(lambda: world.run(body(outcome)))
        for violation in probe.violations:
            outcome.problems.append("invariant violation: %s" % (violation,))
        for error in probe.recorder.monitor_errors:
            outcome.problems.append("mon.error: %s" % (error,))

    return Trial(world, drive, calls)


def build_circus_observed(seed: int, calls: int) -> Trial:
    return build_circus(seed, calls, observed=True)


# ---------------------------------------------------------------------------
# capacity: open-loop Pareto arrivals over Zipf-popular cells
# ---------------------------------------------------------------------------

CAPACITY_CELLS = 4
#: client hosts, and client processes (sessions) spread over them.
CAPACITY_CLIENT_HOSTS = 8
CAPACITY_CLIENTS = 96
#: offered load, calls per virtual second, over all cells.
CAPACITY_RATE = 250.0
CAPACITY_PARETO_ALPHA = 2.5
CAPACITY_ZIPF_S = 1.1
#: arrivals per block over which the offered load is exact.
CAPACITY_BLOCK = 10
#: virtual time allowed after the last arrival before a call counts as
#: unfinished.
CAPACITY_DRAIN_MS = 60000.0


def build_capacity(seed: int, calls: int) -> Trial:
    """Seeded Pareto arrivals, each call on its own ThreadId from one of
    several clients, to 3-member echo troupes in several cells; the cell
    is picked by Zipf popularity.  The paired-message profile tolerates
    queueing (retransmit 800 ms, crash timeout 20 s).  Latency is timed
    from when each call was due."""
    rng = _rng("capacity", seed)
    weights = [1.0 / rank ** CAPACITY_ZIPF_S
               for rank in range(1, CAPACITY_CELLS + 1)]
    cdf = [sum(weights[:i + 1]) for i in range(len(weights))]
    gaps = [rng.paretovariate(CAPACITY_PARETO_ALPHA) for _ in range(calls)]
    # Scale each block of arrivals so the offered load over it is exactly
    # CAPACITY_RATE: bursts vary with the seed, the load does not.
    for start in range(0, calls, CAPACITY_BLOCK):
        block = gaps[start:start + CAPACITY_BLOCK]
        scale = len(block) * 1000.0 / CAPACITY_RATE / sum(block)
        gaps[start:start + CAPACITY_BLOCK] = [gap * scale for gap in block]
    schedule = []
    due = 0.0
    for index, gap in enumerate(gaps):
        due += gap
        cell = bisect.bisect_left(cdf, rng.random() * cdf[-1])
        schedule.append((due, cell, index % CAPACITY_CLIENTS,
                         rng.randbytes(rng.randint(16, 256))))

    tolerant = RuntimeConfig(
        execution="parallel",
        paired=PairedMessageConfig(retransmit_interval=800.0,
                                   probe_interval=2000.0,
                                   crash_timeout=20000.0))
    world = World(machines=3 * CAPACITY_CELLS + CAPACITY_CLIENT_HOSTS,
                  seed=seed, runtime_config=tolerant,
                  troupe_id_base=TROUPE_ID_BASE)
    troupes = [world.make_troupe("cell-%d" % cell, _echo_module, degree=3)[0]
               for cell in range(CAPACITY_CELLS)]
    hosts = [machine.name for machine in world.machines[3 * CAPACITY_CELLS:]]
    clients = [world.make_client(hosts[index % len(hosts)])
               for index in range(CAPACITY_CLIENTS)]

    def one_call(outcome: Outcome, index: int):
        due, cell, client, arg = schedule[index]
        sim = world.sim
        try:
            reply = yield from clients[client].call_troupe(
                troupes[cell], 0, 0, arg,
                thread_id=ThreadId("arrival", index))
        except ReplicatedCallError:
            outcome.errors += 1
            return
        outcome.latencies_ms.append(sim.now - due)
        outcome.completed += 1
        if reply != arg:
            outcome.wrong += 1

    def arrivals(outcome: Outcome):
        sim = world.sim
        calls_in_flight = []
        for index, (due, _, _, _) in enumerate(schedule):
            if due > sim.now:
                yield Sleep(due - sim.now)
            calls_in_flight.append(
                sim.spawn(one_call(outcome, index), name="call-%d" % index))
        for call in calls_in_flight:
            yield call

    def drive(outcome: Outcome, timed) -> None:
        deadline = schedule[-1][0] + CAPACITY_DRAIN_MS

        def issue():
            try:
                world.run(arrivals(outcome), until=deadline)
            except SimulationError:
                # Calls still running at the deadline count as
                # unfinished; any other stop is a crash of the program.
                if world.sim.now < deadline:
                    raise
        timed(issue)

    return Trial(world, drive, calls)


# ---------------------------------------------------------------------------
# lossy-bulk: replicated client troupe, 4 KiB arguments, a lossy wire
# ---------------------------------------------------------------------------

BULK_ARG_BYTES = 4096
BULK_LOSS = 0.08
BULK_DUPLICATION = 0.02


def build_lossy_bulk(seed: int, calls: int) -> Trial:
    """A 3-member client troupe calls a 3-member reversing server troupe
    with 4 KiB arguments over a wire with 8% loss and 2% duplication;
    one server member fail-stops after half of the calls."""
    rng = _rng("lossy-bulk", seed)
    args = [rng.randbytes(BULK_ARG_BYTES) for _ in range(calls)]
    world = World(machines=6, seed=seed, troupe_id_base=TROUPE_ID_BASE,
                  net_config=NetworkConfig(
                      loss_probability=BULK_LOSS,
                      duplicate_probability=BULK_DUPLICATION))
    names = [machine.name for machine in world.machines]
    server, _ = world.make_troupe("reverse", _reverse_module, degree=3,
                                  on_machines=names[3:])
    _, members = world.make_client_troupe("bulk-client", 3,
                                          on_machines=names[:3])
    victim = world.machine(names[5])
    #: per logical call: first issue, last return, returns, and verdicts.
    starts: List[Optional[float]] = [None] * calls
    ends = [0.0] * calls
    returned = [0] * calls
    raised = [False] * calls
    wrong = [False] * calls

    def member_body(rank: int, runtime):
        sim = world.sim
        for index, arg in enumerate(args):
            if starts[index] is None:
                starts[index] = sim.now
            try:
                reply = yield from runtime.call_troupe(server, 0, 0, arg)
            except ReplicatedCallError:
                raised[index] = True
                continue
            ends[index] = sim.now
            returned[index] += 1
            wrong[index] |= reply != arg[::-1]
            if rank == 0 and index == calls // 2:
                victim.crash()

    def driver():
        procs = [world.spawn(member_body(rank, runtime),
                             name="bulk-client-%d" % rank)
                 for rank, runtime in enumerate(members)]
        for proc in procs:
            yield proc

    def drive(outcome: Outcome, timed) -> None:
        timed(lambda: world.run(driver()))
        outcome.wrong = sum(wrong)
        for index in range(calls):
            if raised[index]:
                outcome.errors += 1
            elif returned[index] == len(members):
                outcome.completed += 1
                outcome.latencies_ms.append(ends[index] - starts[index])

    return Trial(world, drive, calls)


#: name -> (builder, calls per trial).  Every workload issues at least
#: 1000 calls, so its p99 latency has at least ten samples beyond it.
WORKLOADS = {
    "circus": (build_circus, 1000),
    "circus-observed": (build_circus_observed, 1000),
    "capacity": (build_capacity, 3000),
    "lossy-bulk": (build_lossy_bulk, 1000),
}
