"""Repository benchmark: one command, four workloads, checked outputs.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no wrapper installed; ``--trace 1`` is the separate traced
run that reports per-layer metrics and the tracing overhead.  Human-readable
lines (build stamp, every metric with its unit) come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed check makes the exit code 1.
Workload definitions, the layer map and recorded figures are in
``perfbench/definitions.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Minimum requests per service run (p99 then has >= 10 samples beyond it);
#: the closed loop runs past ``--seconds`` until it has them.
MIN_REQUESTS = 1000
#: In-process ``peak_rss_mb`` is read after this many passes over the
#: programs, so it covers a fixed amount of work: the resident set grows
#: with the number of operations a run fits (see ``rss_growth_mb``).
RSS_PASSES = 2
WORKLOADS = ("bs1_lossless", "online_lossy", "service_mixed", "k6_interop")


def load_package():
    """Import the system from the checkout's ``src``; exit 2 if absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401

    return repro


def stamp(repro) -> dict:
    import importlib.util

    import numpy

    try:
        # The ceiling stops git from reporting an enclosing repository's HEAD
        # when the checkout itself is not a git repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "repro_version": repro.__version__,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list."""
    index = max(int(-(-fraction * len(sorted_values) // 1)) - 1, 0)
    return sorted_values[min(index, len(sorted_values) - 1)]


# -- in-process workloads -------------------------------------------------------------------
def in_process_metrics(results):
    """Per-program medians, combined: rates are sum of addresses over the
    sum of per-program median times, so the op count in a run does not
    change the program mix.  The first op of a program is a warm-up and
    left out of the medians when the program has more than one."""
    programs = sorted({result.program for result in results})
    by_program = {p: [r for r in results if r.program == p] for p in programs}
    by_program = {p: rs[1:] if len(rs) > 1 else rs for p, rs in by_program.items()}
    encode = sum(median([r.encode_s for r in rs]) for rs in by_program.values())
    decode = sum(median([r.decode_s for r in rs]) for rs in by_program.values())
    first = [rs[0] for rs in by_program.values()]
    return {
        "encode_maddr_s": sum(r.addrs_in for r in first) / encode / 1e6,
        "decode_maddr_s": sum(r.addrs_out for r in first) / decode / 1e6,
        "bits_per_addr": sum(r.bits for r in first) / sum(r.coded for r in first),
        "op_ms": 1000.0 * statistics.mean(median([r.wall_s for r in rs]) for rs in by_program.values()),
    }


def run_in_process(workload, args, workdir, tracer):
    import workloads

    errors, setup_times = [], []
    workloads.program_seed("429.mcf", args.seed)  # the seed rule, outside set-up timing
    reps = 1 if args.trace else SETUP_REPS
    state = None
    for rep in range(reps):
        state = None
        start = time.perf_counter()
        if args.trace:
            tracer.install()
            with tracer.TRACER.span("setup", op_id="setup"):
                state = workload.setup(args.seed, workdir)
            tracer.uninstall()
            tracer.TRACER.counts.clear()
        else:
            state = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - start)

    programs = len(workload.programs)
    results, traced_ops, walls = [], 0, {True: {}, False: {}}
    rss_fixed = None
    deadline = time.perf_counter() + args.seconds
    index = 0
    # Untraced: programs in turn.  Traced: each program untraced, then traced.
    minimum = 2 * programs if args.trace else programs
    while index < minimum or time.perf_counter() < deadline:
        traced = bool(args.trace) and index % 2 == 1
        program = (index // 2 if args.trace else index) % programs
        if tracer.wrapped_entry_points():
            errors.append("wrappers installed during an untraced operation")
        try:
            if traced:
                tracer.install()
                with tracer.TRACER.span("op", op_id=index):
                    result = workload.op(state, program, index, workdir)
                tracer.uninstall()
                traced_ops += 1
            else:
                result = workload.op(state, program, index, workdir)
        except Exception as error:  # a failed operation, counted and reported
            tracer.uninstall()
            traceback.print_exc()
            errors.append(f"op {index}: {type(error).__name__}: {error}")
            index += 1
            continue
        errors.extend(result.errors)
        results.append(result)
        walls[traced].setdefault(program, []).append(result.wall_s)
        index += 1
        if index == RSS_PASSES * programs:
            rss_fixed = peak_rss_mb()

    check = workload.verify(state, results, workdir)
    errors.extend(check.get("errors", []))
    bits = {}
    for result in results:
        if bits.setdefault(result.program, result.bits) != result.bits:
            errors.append(f"{result.program}: container size differs between operations")
    metrics = in_process_metrics(results) if results else {}
    metrics["peak_rss_mb"] = rss_fixed or peak_rss_mb()
    metrics["rss_growth_mb"] = peak_rss_mb() - metrics["peak_rss_mb"]
    if check.get("lossy_mr_err") is not None:
        metrics["lossy_mr_err"] = check["lossy_mr_err"]
    overhead = None
    if args.trace and walls[True] and walls[False]:
        ratios = [
            median(walls[True][p]) / median(walls[False][p]) - 1.0
            for p in walls[True]
            if p in walls[False]
        ]
        overhead = statistics.mean(ratios)
    return {
        "setup_times": setup_times,
        "ops": [(r.program, r.encode_s, r.decode_s) for r in results],
        "attempted": index,
        "errors": errors,
        "metrics": metrics,
        "traced_ops": traced_ops,
        "overhead": overhead,
        "dump": tracer.TRACER.dump() if args.trace else None,
    }


# -- service workload -----------------------------------------------------------------------
def service_metrics(requests, elapsed):
    """Client-side metrics of a closed-loop run.

    The gated figures come from per-kind median latencies weighted by the
    designed mix (60 hit : 15 fresh : 25 decompress), so neither one slow
    request nor where the overall median falls between the kinds moves
    them; p50/p99 are over all requests, a failed one counting as missing
    any limit (infinite latency).
    """
    import service_load

    latencies = sorted(r.latency_s if not r.error else float("inf") for r in requests)
    kind = {
        k: median([r.latency_s for r in requests if r.kind == k and not r.error])
        for k in ("hit", "fresh", "decompress")
    }
    body = service_load.BODY_ADDRESSES
    return {
        "encode_maddr_s": body / (0.8 * kind["hit"] + 0.2 * kind["fresh"]) / 1e6,
        "decode_maddr_s": body / kind["decompress"] / 1e6,
        "op_ms": 1000.0 * (0.60 * kind["hit"] + 0.15 * kind["fresh"] + 0.25 * kind["decompress"]),
        "svc_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "svc_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "svc_rps": len(requests) / elapsed,
        "svc_hit_p50_ms": 1000.0 * kind["hit"],
        "svc_fresh_p50_ms": 1000.0 * kind["fresh"],
        "svc_decompress_p50_ms": 1000.0 * kind["decompress"],
    }


def stop_server(server, errors, label):
    code = server.stop()
    if code != 0:
        errors.append(f"{label} server exited {code} on SIGTERM (expected a clean drain, 0)")


def run_service(workload, args, workdir, tracer):
    import service_load

    errors, setup_times = [], []
    if args.trace:
        tracer.install()
        with tracer.TRACER.span("setup", op_id="setup"):
            inputs = workload.inputs(args.seed)
        tracer.uninstall()
        client_dump = tracer.TRACER.dump()
        phases = {}
        for traced in (False, True):
            spans_file = workdir / "server-spans.json" if traced else None
            server, containers = workload.start(workdir, f"trace{int(traced)}", inputs[1], spans_file)
            started = time.perf_counter()
            requests = workload.load(args.seed, server.port, inputs, containers, args.seconds / 2)
            elapsed = time.perf_counter() - started
            snapshot = service_load.get_json(server.port, "/v1/metrics")
            stop_server(server, errors, "traced" if traced else "untraced")
            phases[traced] = (requests, elapsed, snapshot)
        server_dump = json.loads(spans_file.read_text())
        requests = phases[False][0] + phases[True][0]
        mean = lambda rs: statistics.mean(r.latency_s for r in rs)
        overhead = mean(phases[True][0]) / mean(phases[False][0]) - 1.0
        snapshot = phases[True][2]
        counts = server_dump["counts"]
        for key, metric in (("hits", "svc_cache.hits"), ("lookups", "svc_cache.lookups"),
                            ("integrity_evictions", "svc_cache.integrity_evictions")):
            if snapshot["cache"][key] != counts.get(metric, 0):
                errors.append(f"/v1/metrics cache.{key}={snapshot['cache'][key]} but traced {metric}={counts.get(metric, 0)}")
        if snapshot["queue_depth"] != 0:
            errors.append(f"/v1/metrics queue_depth={snapshot['queue_depth']} after the load stopped")
        # Span ids restart in every process: shift the server's past the client's.
        shift = 1 + max((s[0] for s in client_dump["spans"]), default=0)
        server_spans = [
            (s[0] + shift, s[1] + shift if s[1] else 0, *s[2:]) for s in server_dump["spans"]
        ]
        dump = {
            "spans": client_dump["spans"] + server_spans,
            "counts": counts,
        }
        traced_ops = sum(1 for s in server_dump["spans"] if s[3] == "service.request")
        metrics = service_metrics(phases[True][0], phases[True][1])
        metrics["svc_cache.hit_rate"] = snapshot["cache"]["hit_rate"]
    else:
        server = None
        for rep in range(SETUP_REPS):
            if server is not None:
                stop_server(server, errors, f"set-up {rep}")
            start = time.perf_counter()
            inputs = workload.inputs(args.seed)
            server, containers = workload.start(workdir, f"rep{rep}", inputs[1])
            setup_times.append(time.perf_counter() - start)
        started = time.perf_counter()
        requests = workload.load(args.seed, server.port, inputs, containers, args.seconds, MIN_REQUESTS)
        elapsed = time.perf_counter() - started
        snapshot = service_load.get_json(server.port, "/v1/metrics")
        rss = server.peak_rss_mb()
        stop_server(server, errors, "measured")
        metrics = service_metrics(requests, elapsed)
        metrics["peak_rss_mb"] = rss
        if snapshot["queue_depth"] != 0:
            errors.append(f"/v1/metrics queue_depth={snapshot['queue_depth']} after the load stopped")
        if len(requests) < MIN_REQUESTS:
            errors.append(f"only {len(requests)} requests completed (at least {MIN_REQUESTS} needed for p99)")
        overhead, dump, traced_ops = None, None, 0
    metrics["bits_per_addr"] = 8.0 * sum(map(service_load.container_bytes, containers)) / (
        len(containers) * service_load.BODY_ADDRESSES
    )
    errors.extend(r.error for r in requests if r.error)
    leftovers = sorted(p.name for p in (workdir / "tmp").glob("repro-serve-*"))
    if leftovers:
        errors.append(f"server left temporary directories behind: {leftovers}")
    return {
        "setup_times": setup_times,
        "attempted": len(requests),
        "errors": errors,
        "metrics": metrics,
        "traced_ops": traced_ops,
        "overhead": overhead,
        "dump": dump,
    }


# -- entry point ----------------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (self-tests)")
    parser.add_argument("--results", default=str(HERE / "_results"), help="per-run report directory")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    repro = load_package()
    import tracer
    import workloads

    import_s = time.perf_counter() - STARTED
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    (workdir / "tmp").mkdir()
    tempfile.tempdir = str(workdir / "tmp")
    shm_before = shm_entries()
    if args.workload == "service_mixed":
        import service_load

        workload = service_load.ServiceMixed(args.scale)
        runner = run_service
    else:
        workload = workloads.IN_PROCESS[args.workload](args.scale)
        runner = run_in_process
    try:
        outcome = runner(workload, args, workdir, tracer)
    except Exception as error:  # the run fails; report it and clean up
        traceback.print_exc()
        outcome = {"errors": [f"{type(error).__name__}: {error}"], "attempted": 1}
    finally:
        tracer.uninstall()
        alive = workload.shutdown() if hasattr(workload, "shutdown") else []
    errors = outcome["errors"]
    if alive:
        errors.append(f"server processes still alive: {alive}")
    tempfile.tempdir = None
    shutil.rmtree(workdir, ignore_errors=True)
    if workdir.exists():
        errors.append(f"work directory {workdir} could not be removed")
    try:
        work_root.rmdir()
    except OSError:
        pass  # another run still owns a work directory
    new_shm = sorted(shm_entries() - shm_before)
    if new_shm:
        errors.append(f"new /dev/shm segments remain: {new_shm}")

    attempted = max(int(outcome["attempted"]), 1)
    failed = min(len(errors), attempted)
    metrics = dict(outcome.get("metrics", {}))
    if outcome.get("setup_times"):
        metrics["setup_s"] = import_s + median(outcome["setup_times"])
    metrics["fail_ratio"] = failed / attempted
    splits = {}
    if args.trace and outcome.get("dump") is not None:
        dump = outcome["dump"]
        metrics.update(tracer.layer_metrics(dump["spans"], dump["counts"], outcome["traced_ops"]))
        metrics["tracing.overhead"] = outcome["overhead"]
        splits["operation"] = tracer.layer_split(dump["spans"])
        splits["encode"] = tracer.layer_split(dump["spans"], within="atc.encode")
        if args.workload == "service_mixed":
            splits["dedup_hits"] = tracer.layer_split(dump["spans"], ops=tracer.hit_ops(dump["spans"]))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        errors.append(f"metrics not measured: {missing}")

    info = stamp(repro)
    print("stamp " + json.dumps(info, sort_keys=True))
    for error in errors:
        print(f"FAIL {error}")
    for name in sorted(metrics):
        print(f"metric {name:32s} {metrics[name]!r:>24} {unit_of(name, units)}")
    for scope, split in splits.items():
        total = sum(seconds for _, seconds in split) or 1.0
        top = ", ".join(f"{name} {100 * seconds / total:.1f}%" for name, seconds in split[:5])
        print(f"split {scope}: {top}")

    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "stamp": info, "errors": errors, "metrics": metrics,
              "setup_times": outcome.get("setup_times"), "ops": outcome.get("ops"), "splits": splits}
    if args.trace and outcome.get("dump") is not None:
        report["spans"] = outcome["dump"]["spans"]
        report["counts"] = outcome["dump"]["counts"]
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report))

    correct = not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed if errors else 0,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if metrics.get(m["name"]) is not None
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def unit_of(name, units) -> str:
    if name in units:
        return units[name]
    if name in EXTRA_UNITS:
        return EXTRA_UNITS[name]
    return "s" if name.endswith("_s") else "count"


#: Units of metrics printed but not gated (see ``definitions.json``).
EXTRA_UNITS = {
    "fail_ratio": "failed/attempted",
    "lossy_mr_err": "pp",
    "svc_p50_ms": "ms",
    "svc_p99_ms": "ms",
    "svc_rps": "1/s",
    "svc_hit_p50_ms": "ms",
    "svc_fresh_p50_ms": "ms",
    "svc_decompress_p50_ms": "ms",
    "svc_cache.hit_rate": "ratio",
    "rss_growth_mb": "MiB",
    "tracing.overhead": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
