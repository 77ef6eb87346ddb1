"""Extension — troupe capacity under open-loop load.

Not a table from the paper: the dissertation measures closed-loop latency
only and lists performance evaluation of alternatives as future work
(§8.2).  This bench characterizes what a 1985 reviewer would have asked
next: how does a replicated service behave as offered load rises?  The
syscall cost model bounds a member's service capacity (a call costs
~15 ms of server CPU), so latency should stay flat well below saturation
and grow sharply near it.

The sweep is overridable from the environment so ad-hoc runs can reuse
it at other scales:

- ``REPRO_CAPACITY_RATES``  — comma-separated offered loads (calls/s);
- ``REPRO_CAPACITY_CALLS``  — calls per rate (default 120: enough
  samples per rate for a stable tail estimate — the old 30-call sweep
  made the p99 column a coin flip);
- ``REPRO_CAPACITY_ARRIVAL`` — ``fixed`` | ``poisson`` | ``pareto``.
"""

import os

import pytest

from repro.bench.report import Table, register_table
from repro.bench.workloads import ARRIVAL_KINDS, run_load_sweep


def _env_rates(default):
    raw = os.environ.get("REPRO_CAPACITY_RATES")
    if not raw:
        return default
    return [float(rate) for rate in raw.split(",") if rate.strip()]


RATES = _env_rates([5.0, 20.0, 40.0, 80.0])   # calls/second offered
TOTAL_CALLS = int(os.environ.get("REPRO_CAPACITY_CALLS", "120"))
ARRIVAL = os.environ.get("REPRO_CAPACITY_ARRIVAL", "poisson")
DEGREE = 3

assert ARRIVAL in ARRIVAL_KINDS, "REPRO_CAPACITY_ARRIVAL=%s" % ARRIVAL


@pytest.fixture(scope="module")
def sweep():
    return run_load_sweep(RATES, degree=DEGREE, total_calls=TOTAL_CALLS,
                          arrival=ARRIVAL)


def test_capacity_sweep(benchmark, sweep):
    benchmark.pedantic(lambda: run_load_sweep([5.0], degree=1,
                                              total_calls=3),
                       rounds=1, iterations=1)
    table = Table(
        "Extension: open-loop load sweep (3-member troupe)",
        ["offered calls/s", "throughput calls/s", "mean latency ms",
         "p90 latency ms", "p99 latency ms"],
        notes="Closed-loop measurements (Table 4.1) hide queueing; this "
              "sweep shows the latency knee as offered load approaches "
              "the per-member CPU capacity.  %d %s-arrival calls per "
              "rate." % (TOTAL_CALLS, ARRIVAL))
    for result in sweep:
        table.add_row(result.offered_rate, result.throughput,
                      result.mean_latency, result.percentile_latency(0.9),
                      result.percentile_latency(0.99))
    register_table(table)

    latencies = [r.mean_latency for r in sweep]
    # Low-load latency is near the closed-loop per-call time...
    assert latencies[0] < 120.0
    # ...and latency grows monotonically toward saturation.
    assert latencies[-1] > 1.5 * latencies[0]
    # Throughput is monotone non-decreasing until saturation.
    throughputs = [r.throughput for r in sweep]
    assert throughputs[1] > throughputs[0]
