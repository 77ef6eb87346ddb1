"""Workload generators for capacity experiments.

The paper's measurements are closed-loop (one client, back-to-back calls).
Downstream users also want open-loop and multi-client workloads, so this
module provides both:

- :class:`ClosedLoopClient` — N clients, each issuing the next call as
  soon as the previous returns (the Figure 4.5-4.7 pattern, generalized);
- :class:`OpenLoopGenerator` — open-loop arrivals (fixed, Poisson, or
  heavy-tailed Pareto interarrivals) at a configurable offered load,
  each call in its own thread (measures queueing behaviour);
- :func:`run_load_sweep` — throughput and latency of a troupe across a
  range of offered loads.

All randomness is drawn from seed-derived :class:`RandomStream`\\ s, so
traffic patterns are deterministic.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List

from repro.core.runtime import ExportedModule, RuntimeConfig
from repro.core.troupe import TroupeDescriptor
from repro.harness import World
from repro.pairedmsg.endpoint import PairedMessageConfig
from repro.rpc.threads import ThreadId
from repro.sim.kernel import Sleep
from repro.sim.rng import RandomStream


#: supported interarrival processes for open-loop generators.
ARRIVAL_KINDS = ("fixed", "poisson", "pareto")


def interarrival_ms(kind: str, rng: RandomStream, rate: float,
                    pareto_alpha: float = 1.5) -> float:
    """One interarrival gap (ms) for an offered load of ``rate``
    calls/second.

    - ``fixed``: the deterministic mean gap;
    - ``poisson``: exponential gaps (memoryless arrivals);
    - ``pareto``: heavy-tailed gaps via inverse-CDF sampling, scaled so
      the mean matches ``rate`` (finite for ``pareto_alpha > 1``) —
      bursts of close arrivals separated by long quiet stretches, the
      shape real user traffic has.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    mean = 1000.0 / rate
    if kind == "fixed":
        return mean
    if kind == "poisson":
        return rng.expovariate(rate / 1000.0)
    if kind == "pareto":
        if pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must exceed 1 for a finite "
                             "mean (got %r)" % pareto_alpha)
        scale = mean * (pareto_alpha - 1.0) / pareto_alpha
        u = 1.0 - rng.random()          # in (0, 1]: never divides by zero
        return scale / u ** (1.0 / pareto_alpha)
    raise ValueError("unknown arrival kind %r (expected one of %s)"
                     % (kind, ", ".join(ARRIVAL_KINDS)))


class ZipfSampler:
    """Zipf(s) popularity over ranks ``0..n-1`` (rank 0 most popular),
    sampled by bisecting a precomputed CDF — O(log n) per draw, no
    rejection, deterministic under :class:`RandomStream`."""

    def __init__(self, n: int, s: float = 1.1):
        if n < 1:
            raise ValueError("need at least one rank")
        self.n = n
        self.s = s
        cdf = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank ** s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, rng: RandomStream) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


@dataclasses.dataclass
class WorkloadResult:
    """Aggregate outcome of a workload run."""

    offered_rate: float          # calls/second offered (0 = closed loop)
    completed: int
    duration_ms: float
    latencies: List[float]

    @property
    def throughput(self) -> float:
        """Completed calls per second of virtual time."""
        if self.duration_ms <= 0:
            return 0.0
        return 1000.0 * self.completed / self.duration_ms

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile_latency(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class ClosedLoopClient:
    """N independent clients issuing back-to-back calls."""

    def __init__(self, world: World, troupe: TroupeDescriptor,
                 clients: int = 1, calls_per_client: int = 20,
                 procedure: int = 0, payload: bytes = b"w"):
        self.world = world
        self.troupe = troupe
        self.clients = clients
        self.calls_per_client = calls_per_client
        self.procedure = procedure
        self.payload = payload

    def run(self) -> WorkloadResult:
        world = self.world
        latencies: List[float] = []
        done: List[int] = []

        def client_body(runtime):
            def body():
                for _ in range(self.calls_per_client):
                    start = world.sim.now
                    yield from runtime.call_troupe(
                        self.troupe, 0, self.procedure, self.payload)
                    latencies.append(world.sim.now - start)
                done.append(1)
            return body

        start = world.sim.now
        for _ in range(self.clients):
            world.spawn(client_body(world.make_client())())
        world.sim.run(stop_when=lambda: len(done) == self.clients)
        return WorkloadResult(0.0, len(latencies),
                              world.sim.now - start, latencies)


class OpenLoopGenerator:
    """Open-loop arrivals at ``rate`` calls/second, one thread per call.

    ``arrival`` picks the interarrival process (:data:`ARRIVAL_KINDS`);
    the default is the historical Poisson behaviour."""

    def __init__(self, world: World, troupe: TroupeDescriptor,
                 rate: float, total_calls: int = 50,
                 procedure: int = 0, payload: bytes = b"w", seed: int = 0,
                 arrival: str = "poisson", pareto_alpha: float = 1.5):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if arrival not in ARRIVAL_KINDS:
            raise ValueError("unknown arrival kind %r (expected one of %s)"
                             % (arrival, ", ".join(ARRIVAL_KINDS)))
        self.world = world
        self.troupe = troupe
        self.rate = rate
        self.total_calls = total_calls
        self.procedure = procedure
        self.payload = payload
        self.arrival = arrival
        self.pareto_alpha = pareto_alpha
        self.rng = RandomStream(seed, "open-loop")

    def run(self) -> WorkloadResult:
        world = self.world
        latencies: List[float] = []
        finished: List[int] = []
        client = world.make_client()
        serial = [0]

        def one_call():
            # Each arrival runs on its own logical thread so calls overlap.
            serial[0] += 1
            thread_id = ThreadId("open-loop", serial[0])

            def body():
                start = world.sim.now
                yield from client.call_troupe(
                    self.troupe, 0, self.procedure, self.payload,
                    thread_id=thread_id)
                latencies.append(world.sim.now - start)
                finished.append(1)
            return body

        def arrivals():
            for _ in range(self.total_calls):
                world.spawn(one_call()())
                yield Sleep(interarrival_ms(self.arrival, self.rng,
                                            self.rate, self.pareto_alpha))

        start = world.sim.now
        world.spawn(arrivals())
        world.sim.run(
            stop_when=lambda: len(finished) == self.total_calls)
        return WorkloadResult(self.rate, len(latencies),
                              world.sim.now - start, latencies)


def echo_troupe(world: World, degree: int,
                service_ms: float = 2.0) -> TroupeDescriptor:
    """A troupe whose procedure costs ``service_ms`` of user CPU."""
    def factory():
        def serve(ctx, args):
            yield from ctx.compute(service_ms)
            return b"ok"
        return ExportedModule("load-echo", {0: serve})

    troupe, _ = world.make_troupe("load-echo", factory, degree=degree)
    return troupe


def run_load_sweep(rates: List[float], degree: int = 3,
                   total_calls: int = 40, seed: int = 0,
                   arrival: str = "poisson", pareto_alpha: float = 1.5):
    """Open-loop throughput/latency of a troupe across offered loads.

    ``arrival`` selects the interarrival process (``fixed``, ``poisson``
    or heavy-tailed ``pareto``); gaps are seed-derived either way.
    Returns a list of WorkloadResults, one per offered rate.
    """
    results = []
    for rate in rates:
        paired = PairedMessageConfig(retransmit_interval=800.0,
                                     probe_interval=2000.0,
                                     crash_timeout=20000.0)
        world = World(machines=degree + 1, seed=seed,
                      runtime_config=RuntimeConfig(execution="parallel",
                                                   paired=paired))
        troupe = echo_troupe(world, degree)
        generator = OpenLoopGenerator(world, troupe, rate,
                                      total_calls=total_calls, seed=seed,
                                      arrival=arrival,
                                      pareto_alpha=pareto_alpha)
        results.append(generator.run())
    return results
