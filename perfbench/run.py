"""Serving benchmark of the GTS reproduction: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --describe

``--trace 0`` serves the workload's streams for ``--seconds`` of host time
and prints the end-to-end metrics; ``--trace 1`` serves the first four
streams once untraced and once traced, checks that both runs agree exactly, and prints
the per-layer metrics with self times and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in its own process and prints each one's report.  ``--describe``
prints every workload's settings and what each per-layer metric should move.

Requests are served in simulated device time (the ``sim_*`` metrics and
``device_peak_mib`` are deterministic for a seed); ``setup_s``, ``host_rps``
and ``host_rss_mib`` are measured on the host.  ``setup_s`` and ``host_rps``
are scaled to a reference machine speed by a probe timed around every round
(:func:`perfbench.harness.probe_seconds`); the unscaled figures are printed
beside them.  The benchmark runs in one process with one thread, and imports
the program from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = Path(".perfbench")


def _pin_allocator() -> None:
    """Fix glibc malloc's mmap and trim thresholds, where glibc is the allocator.

    By default glibc adapts both thresholds to the allocation history; on a
    2-vCPU x86-64 Linux VM that made every other serving round of the same
    stream about 45% slower than the rest (fresh pages faulted in for each
    large array).  Fixed thresholds make host timings measure the program
    rather than the allocator's state.
    """
    name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(name) if name else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_mmap_threshold, 32 << 20)  # glibc's largest allowed value


def _import_program() -> None:
    """Set up the process, then put the checkout's ``src/`` first on the path, or fail."""
    # one thread: numerical libraries must not fan out (read when NumPy loads)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _pin_allocator()
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SOURCE / 'repro'}; run from a full checkout")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SOURCE}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def _print_metrics(title: str, metrics: dict, extra: dict = None) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        tail = f"  [{extra[name]}]" if extra and name in extra else ""
        print(f"  {name:<34} {value:>16.6g} {unit}{tail}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import harness
    from perfbench.workloads import CLIENTS, WORKLOADS, make_inputs

    config = WORKLOADS[name]
    inputs = make_inputs(config, seed)
    print(f"workload {name} seed {seed}: {config.why}")
    print(
        f"  open loop, {CLIENTS} Poisson clients at {config.rate:g} req/s offered; "
        "arrivals precomputed in simulated time, so the generator is never late (lateness 0 s)"
    )
    if not trace:
        checked, rss_mib = harness.run_untraced(inputs, seconds)
        metrics, samples = harness.end_to_end(inputs, checked, rss_mib)
        _print_metrics(
            "end-to-end metrics",
            metrics,
            {
                "setup_s": (
                    f"median of {samples['rounds']} builds; "
                    f"unscaled {samples['raw_setup_s']:.6g} s"
                ),
                "host_rps": (
                    f"{samples['rounds']} rounds, median per stream; "
                    f"unscaled {samples['raw_host_rps']:.6g} "
                    f"req/s, speed probe {samples['probe_ms']:.4g} ms"
                ),
                "device_peak_mib": f"mean over {samples['streams']} streams of the max over shards",
                "sim_p50_us": f"{samples['latency_samples']} samples",
                "sim_p99_us": f"{samples['latency_samples']} samples, {samples['beyond_p99']} beyond",
                "sim_query_p99_us": (
                    f"{samples['query_samples']} samples, {samples['query_beyond_p99']} beyond"
                ),
            },
        )
        print(f"  {'error_rate':<34} {samples['error_rate']:>16.6g} fraction")
        properties = harness.workload_properties(inputs, checked.rounds)
    else:
        checked, untraced, traced, tracer = harness.run_traced(inputs)
        metrics, readable = harness.per_layer(inputs, traced, untraced, tracer)
        units = {"_s": "s", "_us": "us"}
        _print_metrics(
            "per-layer host seconds (self time where named self) and printed-only figures",
            {k: (v, units.get(k[k.rfind("_"):], "count")) for k, v in readable.items()},
            {k: "moves %s on %s" % harness.layer_target(k) for k in readable},
        )
        _print_metrics(
            "per-layer metrics",
            metrics,
            {k: "moves %s on %s" % harness.layer_target(k) for k in metrics},
        )
        agree = all(r.results is not None and r.reproduced and not r.diverged for r in traced)
        print(
            f"  tracing overhead: untraced host_rps is {metrics['tracing.overhead'][0]:+.1%} "
            f"over traced; traced answers and simulated accounting "
            f"{'identical' if agree else 'NOT identical'} to the untraced run"
        )
        OUTPUT.mkdir(exist_ok=True)
        path = OUTPUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {path}")
        properties = harness.workload_properties(inputs, untraced)
    print(
        "workload properties: "
        + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in properties.items())
    )
    for note in checked.notes:
        print(f"  CHECK FAILED: {note}")
    print(_result_line(not checked.failed, checked.attempted, checked.failed, metrics))
    return 1 if checked.failed else 0


def run_all(args) -> int:
    """Run every workload in its own process (so each has its own peak RSS)."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        print(completed.stdout, end="", flush=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def describe() -> int:
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    print(
        json.dumps(
            {
                "workloads": {
                    name: {"why": config.why, **config.describe()} for name, config in WORKLOADS.items()
                },
                "layer_targets": [
                    {"prefix": prefix, "moves": moves, "on": on}
                    for prefix, moves, on in harness.LAYER_TARGETS
                ],
            },
            indent=2,
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.describe:
        return describe()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
