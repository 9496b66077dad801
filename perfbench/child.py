"""Run one workload body in this (fresh) interpreter and write a JSON result.

Started by ``run.py``, never by hand.  The result file holds:

- ``ready``: ``time.monotonic()`` once ``lrbsplines`` is imported and the
  inputs are made; the parent subtracts its spawn time to get set-up time;
- ``setup_speed``: how fast the host ran this interpreter right after
  set-up, relative to a quiet host (see ``HostSpeed``); the parent scales
  set-up time by it;
- ``total_s``, ``build_s`` and ``analyse_s``: time of the body, of its
  space-building calls, and of the rest, on the ``HostSpeed`` clock: the
  time a quiet host would have taken;
- ``wall_s`` and ``speed``: the body's wall time, without the time spent
  sampling the host, and ``total_s`` over it (information only);
- ``rss_mib``: the process's maximum resident set after the body;
- ``rusage``: CPU time, context switches and page faults during the body,
  to tell contention on the host from a slower program;
- ``failures``: output-check failures, or the traceback of an error;
- ``artifacts``: sha256 of every file the body wrote (information only);
- ``layers``: per-layer metrics, when ``--mode trace``.

With ``--mode setup`` it stops after ``setup_speed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import workloads

# The reference loop's time on a quiet host (2-core x86-64, Python 3.11).
REFERENCE_S = 0.0024
SAMPLE_INTERVAL_S = 0.1  # between two timings of the reference loop during a body
SETUP_SAMPLES = 20  # timings of the reference loop right after set-up


class _Point:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def _reference_loop() -> int:
    """A few milliseconds of fixed pure-Python work, independent of the package.

    Tuples as dict keys, small objects, float sums and a keyed sort: the
    kind of work that dominates ``lrbsplines``, so a busy host slows it
    about as much as it slows a body.  Everything it allocates is freed
    before it returns.
    """
    table: dict = {}
    for i in range(2000):
        point = _Point((i % 97, i // 97), i * 0.5)
        table[point.key] = table.get(point.key, 0.0) + point.weight
    return len(sorted(table.items(), key=lambda item: (item[1], item[0])))


class HostSpeed:
    """A clock that runs at the speed a quiet host would have shown.

    The host's speed changes by up to a factor of two within a minute, as
    other tenants come and go.  Each sample times the reference loop; its
    speed is ``REFERENCE_S`` over that time.  Inside ``with``, a timer
    interrupts the body every ``SAMPLE_INTERVAL_S`` to take a sample.
    ``clock()`` is wall time without the time spent sampling, each stretch
    between two samples counted at the speed of the first: the time the
    body would have taken on a quiet host.  ``wall()`` is the same without
    the scaling.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0  # wall time spent sampling
        self.held_wall = 0.0  # wall() at the last sample
        self.held_clock = 0.0  # clock() at the last sample

    def sample(self, *_signal) -> None:
        self.held_clock = self.clock()
        self.held_wall = self.wall()
        start = time.perf_counter()
        _reference_loop()
        seconds = time.perf_counter() - start
        self.spent += seconds
        self.speeds.append(REFERENCE_S / seconds)

    def wall(self) -> float:
        return time.perf_counter() - self.spent

    def clock(self) -> float:
        speed = self.speeds[-1] if self.speeds else 1.0
        return self.held_clock + (self.wall() - self.held_wall) * speed

    def mean(self) -> float:
        return sum(self.speeds) / len(self.speeds)

    def __enter__(self) -> HostSpeed:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _artifacts(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def _usage() -> dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "nvcsw": usage.ru_nvcsw,
        "nivcsw": usage.ru_nivcsw,
        "majflt": usage.ru_majflt,
        "minflt": usage.ru_minflt,
    }


def _run(args, inputs: dict, host: HostSpeed) -> dict:
    body, check = workloads.WORKLOADS[args.workload]
    build = workloads.Stopwatch(host.clock)
    before = _usage()
    if args.mode == "trace":  # no sampling: the profile holds the package only
        import cProfile

        profiler = cProfile.Profile()
        start, wall = host.clock(), host.wall()
        profiler.enable()
        try:
            result = body(inputs, build)
        finally:
            profiler.disable()
    else:
        with host:
            start, wall = host.clock(), host.wall()
            result = body(inputs, build)
    total = host.clock() - start
    wall = host.wall() - wall
    after = _usage()

    doc = {
        "total_s": total,
        "build_s": build.seconds,
        "analyse_s": total - build.seconds,
        "wall_s": wall,
        "speed": total / wall,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rusage": {key: after[key] - before[key] for key in after},
        "failures": check(result, inputs),
        "artifacts": _artifacts(inputs["out"]),
    }
    if args.mode == "trace":
        import pstats

        import layers

        doc["layers"] = layers.from_stats(pstats.Stats(profiler).stats)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    inputs = workloads.prepare(args.workload, args.seed, args.size, args.out)
    doc = {"ready": time.monotonic()}
    host = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        host.sample()
    doc["setup_speed"] = host.mean()
    status = 0
    if args.mode != "setup":
        try:
            doc.update(_run(args, inputs, host))
        except Exception:  # reported to the parent, which counts the run as failed
            doc["failures"] = [traceback.format_exc()]
            status = 1
    args.result.write_text(json.dumps(doc))
    return status


if __name__ == "__main__":
    sys.exit(main())
