"""Benchmark of lrbsplines: one workload per invocation.

    python3 perfbench/run.py --workload diagonal --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the package from ``src``.
One closed-loop client runs the workload again and again until
``--seconds`` have passed (at least once).  Every iteration starts a
fresh interpreter (``child.py``), because the package keeps process-wide
caches that a command-line user pays for cold on every call.  Each run
also starts a few interpreters that only import the package and make the
inputs, to measure set-up time.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json,
each the median over the run's interpreters.  The times are seconds on a
quiet host: the host this benchmark runs on is shared, and its speed
changes by up to a factor of two from one minute to the next.  So every
interpreter times a fixed reference loop of the benchmark's own right
after set-up and every tenth of a second during the body, and counts
time at the speed those samples show relative to a quiet host
(``child.HostSpeed``).  A faster program still reads faster; a busier
host does not.  The unscaled times are in the information line.  With
``--trace 1`` it runs the workload once untraced and once under
``cProfile`` and reports the per-layer metrics of BENCHMARK.json,
computed in ``layers.py``, plus the tracing overhead.  Outputs are
checked after every timed body.

Standard output ends with one JSON object, ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` counts every interpreter the
run started and ``failed`` those that crashed or failed an output check.
The line before it holds the sample counts and quartiles, the unscaled
times, the host speed, CPU time, context switches and page faults of
every timed body, the environment, and the sha256 of the artifacts.
Temporary files go to ``.perfbench_tmp/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_tmp"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# One BLAS thread: the numerics are small and mostly Python-bound, and a
# single thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
SETUP_SAMPLES = 2  # set-up-only interpreters per run, besides those of the bodies
TIMES = ("total_s", "build_s", "analyse_s")
RUN_LIMIT_S = 170.0  # no child may end later than this after the run starts


class Runner:
    """Starts child interpreters for one run and collects their results."""

    def __init__(self, args, run_dir: Path):
        self.args = args
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.started = 0
        threads = str(BLAS_THREADS)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
            TMPDIR=str(run_dir),
        )

    def spawn(self, mode: str) -> dict:
        """Run one child to completion; a crash or timeout shows in ``failures``."""
        self.started += 1
        out = self.run_dir / f"out{self.started}"
        result = self.run_dir / f"result{self.started}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, "--mode", mode,
            "--out", str(out), "--result", str(result),
        ]  # fmt: skip
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start),
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            return {"failures": [f"{mode} interpreter did not finish within the run's limit"]}
        doc = json.loads(result.read_text()) if result.is_file() else {}
        if proc.returncode != 0 and not doc.get("failures"):
            doc["failures"] = [f"{mode} interpreter exited {proc.returncode}: {proc.stderr[-2000:]}"]
        if "ready" in doc:
            doc["setup_s"] = doc["ready"] - start
        else:
            doc.setdefault("failures", ["interpreter never became ready"])
        shutil.rmtree(out, ignore_errors=True)
        return doc


def _summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _untraced(runner: Runner, seconds: float) -> tuple[list[dict], dict, dict]:
    setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES)]
    runs: list[dict] = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        began = time.monotonic()
        runs.append(runner.spawn("run"))
        now = time.monotonic()
        if now + (now - began) > runner.deadline:  # another iteration would not fit
            break
    timed = [r for r in runs if "total_s" in r]
    ready = [d for d in setups + runs if "setup_s" in d and "setup_speed" in d]
    samples = {name: [r[name] for r in timed] for name in TIMES}
    samples["setup_s"] = [d["setup_s"] * d["setup_speed"] for d in ready]
    samples["peak_rss_mib"] = [r["rss_mib"] for r in timed]
    missing = [name for name, values in samples.items() if not values]
    if missing:
        raise RuntimeError(f"no sample of {', '.join(missing)}: {_failures(setups + runs)[:3]}")
    metrics = {
        m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]} for m in SPEC["end_to_end"]
    }
    spread = {name: _summary(values) for name, values in samples.items()}
    spread["unscaled"] = {
        "total_s": _summary([r["wall_s"] for r in timed]),
        "setup_s": _summary([d["setup_s"] for d in ready]),
    }
    spread["host_speed"] = _summary([r["speed"] for r in timed])
    spread["rusage"] = [r["rusage"] for r in timed]
    return setups + runs, metrics, spread


def _traced(runner: Runner) -> tuple[list[dict], dict, dict]:
    plain = runner.spawn("run")
    traced = runner.spawn("trace")
    if "layers" not in traced or "total_s" not in plain:
        raise RuntimeError(f"traced run failed: {_failures([plain, traced])[:3]}")
    values = dict(traced["layers"], trace_overhead=traced["total_s"] / plain["total_s"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["per_layer"]}
    spread = {
        "untraced_total_s": plain["total_s"],
        "traced_total_s": traced["total_s"],
        "rusage": [plain["rusage"], traced["rusage"]],
    }
    return [plain, traced], metrics, spread


def _failures(docs: list[dict]) -> list[str]:
    return [f for d in docs for f in d.get("failures", [])]


def _environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown ({exc})"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "pythonhashseed": 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny is for selftest.py")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lrbsplines" / "__init__.py").is_file():
        print(f"error: no lrbsplines sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        runner = Runner(args, run_dir)
        if args.trace:
            docs, metrics, spread = _traced(runner)
        else:
            docs, metrics, spread = _untraced(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(1 for d in docs if d.get("failures"))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "samples": spread,
        "environment": _environment(),
        "artifacts_sha256": next((d["artifacts"] for d in docs if "artifacts" in d), {}),
        "failures": _failures(docs)[:10],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(docs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
