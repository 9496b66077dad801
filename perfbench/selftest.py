"""Self-test of the benchmark on small inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through ``run.py --size tiny``,
once untraced and twice traced, and checks that:

- every run passes its output checks;
- each run emits exactly the metric names and units of BENCHMARK.json,
  every end-to-end value above zero;
- the ``.calls`` counts of the two traced runs are identical;
- every target pair in ``layers.py`` names an end-to-end metric and a
  workload of BENCHMARK.json;
- ``run.py`` fails without printing a result in a directory that holds
  only the benchmark.

Prints one line per problem and exits 1 if there is any, else 0.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_tmp"


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess, what: str, units: dict, problems: list) -> dict:
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{what}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        info = json.loads(proc.stdout.splitlines()[-2])["info"]
        problems.append(f"{what}: output checks failed: {info['failures'][:3]}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(f"{what}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, metric in metrics.items():
        value = metric["value"]
        if metric["unit"] != units.get(name) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{what}: bad metric {name}: {metric}")
    return metrics


def _check_workload(workload: str, spec: dict, problems: list) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = _result(_bench(ROOT, workload, 0), f"{workload} untraced", e2e, problems)
    for name, metric in metrics.items():
        if not metric["value"] > 0:
            problems.append(f"{workload}: end-to-end metric {name} is {metric['value']}")
    first, second = (_result(_bench(ROOT, workload, 1), f"{workload} traced", per_layer, problems) for _ in range(2))
    for name in per_layer:
        if name.endswith(".calls") and first.get(name) != second.get(name):
            problems.append(f"{workload}: {name} differs between traced runs: {first.get(name)} vs {second.get(name)}")


def _check_bare_directory(tmp: Path, problems: list) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    proc = _bench(bare, "diagonal", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def _check_targets(spec: dict, problems: list) -> None:
    import layers

    e2e = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    for metric, targets in layers.TARGETS.items():
        for target in targets:
            name, _, workload = target.partition("@")
            if name not in e2e or workload not in names:
                problems.append(f"{metric}: target {target} names no end-to-end metric and workload")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    _check_targets(spec, problems)
    for workload in spec["workloads"]:
        _check_workload(workload["name"], spec, problems)
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR))
    try:
        _check_bare_directory(tmp, problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    for problem in problems:
        print(problem)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
