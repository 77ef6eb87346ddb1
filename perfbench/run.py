"""The Circus simulator benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload circus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every trial runs in a fresh
interpreter (``worker.py``), so set-up time includes imports and peak
RSS belongs to the workload alone.

``--trace 0`` runs trials, each a fresh world of the same seed in a
fresh interpreter, for ``--seconds`` (at least three; no trial starts
that should end after them), and prints the end-to-end metrics: host
calls/s over all the trials together; the medians over trials of set-up
time and peak RSS; and the virtual latency and goodput, which every
trial must repeat exactly.  ``--trace 1`` runs the workload under the
layer profiler and prints the per-layer metrics instead.  Either way the last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
#: bytecode for the trials' interpreters, kept inside the checkout, so
#: that set-up time measures imports from cached bytecode, as a user's
#: runs do, whatever the environment says about writing bytecode.
PYCACHE = os.path.join(ROOT, ".perfbench-pycache")

WORKLOADS = ("circus", "circus-observed", "capacity", "lossy-bulk")
#: the seed baselines are taken on, and one held out to check a claimed
#: gain on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
#: trials per run at the least, whatever ``--seconds`` says.
MIN_TRIALS = 3
#: set-up times per run at the least; runs with fewer trials start
#: interpreters that stop at the first call to make up the number.
MIN_SETUPS = 7
#: a run, set-up probes included, must end within this many seconds.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "calls_per_s": "calls/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "virt_p50_ms": "ms",
    "virt_p99_ms": "ms",
    "virt_goodput_cps": "calls/s",
}


class WorkerFailed(Exception):
    pass


def run_worker(args, deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return the JSON of its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    command = [sys.executable, WORKER] + args
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker timed out: %s" % " ".join(args))
    if proc.returncode != 0:
        raise WorkerFailed("worker exited %d: %s"
                           % (proc.returncode, " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed nothing: %s" % " ".join(args))
    return json.loads(lines[-1])


def end_to_end(workload: str, options, seconds: float,
               deadline: float) -> dict:
    """Trials, each in a fresh interpreter, until ``seconds`` have passed
    (at least :data:`MIN_TRIALS`).  Every trial of the seed must repeat
    the first one's virtual times and counters exactly."""
    common = ["--workload", workload] + options
    trials = []
    problems = []
    started = time.monotonic()
    longest = 0.0
    # After MIN_TRIALS, a trial starts only if it should end in time.
    while (len(trials) < MIN_TRIALS
           or time.monotonic() - started + longest <= seconds):
        launched = time.monotonic()
        trial = run_worker(common + ["--mode", "trial"], deadline)
        longest = max(longest, time.monotonic() - launched)
        trial["setup_s"] = trial["first_call_monotonic"] - launched
        problems += trial["problems"]
        if trials and trial["digest"] != trials[0]["digest"]:
            problems.append("trial %d differs from trial 1 of the seed"
                            % (len(trials) + 1))
        trials.append(trial)
    if workload == "circus-observed":
        # Observers must not move virtual time: the same seed without
        # them gives the identical latencies and end time.
        plain = run_worker(["--workload", "circus"] + options
                           + ["--mode", "trial"], deadline)
        if plain["virtual_digest"] != trials[0]["virtual_digest"]:
            problems.append("observed virtual times differ from circus")
    setup_s = [trial["setup_s"] for trial in trials]
    while len(setup_s) < MIN_SETUPS:
        launched = time.monotonic()
        probe = run_worker(common + ["--mode", "setup"], deadline)
        setup_s.append(probe["first_call_monotonic"] - launched)
    values = dict(trials[0]["virtual"])
    values["setup_s"] = statistics.median(setup_s)
    # Calls over host seconds of all trials together: a shared host's
    # speed changes from one second to the next, and a median of a few
    # trials lands on a fast or a slow one where the pooled rate
    # averages over the whole run.
    values["calls_per_s"] = (sum(trial["completed"] for trial in trials)
                             / sum(trial["host_s"] for trial in trials))
    values["peak_rss_mb"] = statistics.median(
        trial["peak_rss_mb"] for trial in trials)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return {"problems": problems,
            "attempted": sum(trial["attempted"] for trial in trials),
            "failed": sum(trial["failed"] for trial in trials),
            "metrics": metrics}


def per_layer(workload: str, options, deadline: float) -> dict:
    result = run_worker(["--workload", workload] + options
                        + ["--mode", "trace"], deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    return {"problems": result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calls", type=int, default=None,
                        help="calls per trial, for quick tests (default: "
                             "the workload's own)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("no program to measure: %s/repro is missing" % SRC,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    options = ["--seed", str(args.seed)]
    if args.calls is not None:
        options += ["--calls", str(args.calls)]
    try:
        if args.trace:
            result = per_layer(args.workload, options, deadline)
        else:
            result = end_to_end(args.workload, options, args.seconds,
                                deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print("INCORRECT: %s" % problem, file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
