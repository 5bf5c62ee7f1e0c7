"""Self-tests of the benchmark at a tiny scale.

Run from the repository root::

    python3 perfbench/selftest.py

Checks, for every workload, untraced and traced:

* the run exits 0, reports ``correct`` and prints every metric of
  ``BENCHMARK.json`` by name with its unit;
* each span's children nest inside it and share its operation id;
* self times are non-negative and, with ``other.self_s`` (the root's own
  time), sum to the operation's traced wall time;
* wrappers are installed only inside traced operations (function identity);
* the 429.mcf seed rule still predicts the generated working set;
* without the package (only ``BENCHMARK.json`` and ``perfbench``) the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
sys.dont_write_bytecode = True

SCALE, SECONDS = "0.03", "1"
#: The service run needs 1000 requests whatever the scale (bodies are fixed
#: at 32k addresses), so it gets long enough to reach them.
SERVICE_SECONDS = "20"
FAILURES = []


def expect(condition, message) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def run(workload, trace, results):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", SERVICE_SECONDS if workload == "service_mixed" else SECONDS,
        "--trace", str(trace), "--scale", SCALE, "--results", str(results),
    ]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_output(workload, trace, proc, spec) -> None:
    label = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{label}: not correct")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, unit = line.split()
            printed[name] = unit
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        expect(printed.get(name) == unit, f"{label}: {name} not printed with unit {unit}")
        expect(result["metrics"].get(name, {}).get("unit") == unit, f"{label}: {name} missing in result")


def check_spans(workload, report) -> None:
    spans = {span[0]: span for span in report["spans"]}
    children = defaultdict(list)
    for span in spans.values():
        span_id, parent_id, op, name, start, end = span
        expect(end >= start, f"{workload}: span {name} ends before it starts")
        if parent_id:
            parent = spans.get(parent_id)
            expect(parent is not None, f"{workload}: span {name} has no recorded parent")
            if parent is None:
                continue
            children[parent_id].append(span)
            expect(parent[2] == op, f"{workload}: {name} op {op} != parent {parent[3]} op {parent[2]}")
            expect(
                parent[4] - 1e-6 <= start and end <= parent[5] + 1e-6,
                f"{workload}: {name} [{start}, {end}] outside parent {parent[3]}",
            )
    self_time = {
        span_id: (span[5] - span[4]) - sum(c[5] - c[4] for c in children[span_id])
        for span_id, span in spans.items()
    }
    per_op = defaultdict(float)
    for span_id, value in self_time.items():
        expect(value >= -1e-6, f"{workload}: negative self time {value} of {spans[span_id][3]}")
        per_op[spans[span_id][2]] += value
    roots = [s for s in spans.values() if s[3] in ("op", "service.request", "setup")]
    expect(roots, f"{workload}: no operation spans")
    for root in roots:
        wall = root[5] - root[4]
        expect(
            abs(per_op[root[2]] - wall) <= 1e-6 + 1e-9 * wall,
            f"{workload}: op {root[2]} self times sum to {per_op[root[2]]}, traced wall {wall}",
        )


def check_identity() -> None:
    import tracer

    expect(tracer.wrapped_entry_points() == [], "wrappers present before install")
    tracer.install()
    wrapped = tracer.wrapped_entry_points()
    expect(len(wrapped) == len(tracer._patch_table()), f"install left originals: {len(wrapped)}")
    tracer.uninstall()
    expect(tracer.wrapped_entry_points() == [], "uninstall left wrappers behind")


def check_mcf_seed_rule() -> None:
    import numpy as np

    import repro.traces.spec_like as spec_like
    import workloads

    seed = workloads.program_seed("429.mcf", 3)
    data = spec_like.get_workload("429.mcf").build_data(250_000, seed)
    fraction = workloads.mcf_cycle_fraction(seed)
    expect(
        np.unique(data).size == round(fraction * workloads.MCF_NODES),
        "429.mcf working set differs from the seed rule's prediction",
    )


def check_missing_package() -> None:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bs1_lossless", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0, "run without the package exited 0")
        expect('"correct"' not in proc.stdout, "run without the package printed a result")
    finally:
        shutil.rmtree(bare)
        try:
            work.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_identity()
    check_mcf_seed_rule()
    check_missing_package()
    results = HERE / "_results" / "selftest"
    try:
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                proc = run(workload, trace, results)
                check_output(workload, trace, proc, spec)
                if trace:
                    report = json.loads((results / f"{workload}-seed3-trace1.json").read_text())
                    check_spans(workload, report)
                print(f"ok {workload} trace={trace}", flush=True)
    finally:
        shutil.rmtree(results)
    expect(not (ROOT / ".perfbench_work").exists(), "a work directory was left behind")
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
