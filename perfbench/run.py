"""Layered cold benchmark of the dispersion simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload static-dense --seed 1 --seconds 20 --trace 0

Workloads: static-dense, churn-sweep, model-variants, store-cycle, lint-all
(see ``workloads.WHY``).  The program is imported from ``src/`` next to
this directory; nothing is built or installed, and no store or cache of a
previous run is reused.

A run has three parts:

1. **Set-up**, done ``SETUP_REPEATS`` times: a fresh interpreter imports the
   layers the workload calls and loads the component registry, then this
   process generates the inputs from ``--seed``.  ``setup_s`` is the median.
2. **Untraced repeats** of the workload while the next one would still end
   within ``--seconds`` (within half of it with ``--trace 1``), and at least
   ``MIN_REPEATS`` of them with ``--trace 0``.  End-to-end numbers come only
   from these: ``wall_s`` is the median repeat's timed section, the sum of
   its operations' times.
3. With ``--trace 1``, **traced repeats** for the rest of the time: the
   wrappers of ``tracer.WRAP_TARGETS`` record spans and a ``PhaseTimer`` is
   attached to every engine (which makes the engine build a record every
   round, so traced repeats are heavier by construction).  The spans and
   the per-repeat layer tables go to ``perfbench/_out/`` when the run ends;
   ``layerdiff.py`` compares two such files.

Every repeat checks its outputs (``workloads``); a failed operation counts
in ``failed``, as does a repeat whose exact counts differ from the first.
The last stdout line is the JSON result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from tracer import Tracer, layer_of
from workloads import BACKENDS, PHASES, VFS_OPS, WORKLOADS

SETUP_REPEATS = 3
#: Untraced repeats a ``--trace 0`` run makes even past ``--seconds``.
MIN_REPEATS = 3
OUT_DIR = pathlib.Path("perfbench") / "_out"
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Self time is reported for every layer, as ``self_s.<layer>``.
LAYERS = ("engine", "spec", "graph", "ref", "obs", "vec", "core", "store", "traceio", "lint")
LINT_STAGES = ("index", "callgraph", "effects", "taint", "contracts", "robot_model", "fork_safety")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def filesystem_type(path: pathlib.Path) -> str:
    """The type of the filesystem holding ``path``, from the mount table."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def environment(out_dir: pathlib.Path) -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "out_dir_fs": filesystem_type(out_dir),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def set_up(workload: Any, name: str, seed: int, out_dir: pathlib.Path) -> Tuple[Any, float]:
    """Inputs, and the median of ``SETUP_REPEATS`` timed set-ups."""
    workload.load()
    probe = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", name, "--probe"]
    samples = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run(probe, check=True, timeout=120, stdout=subprocess.DEVNULL)
        imported = time.perf_counter() - began
        began = time.perf_counter()
        inputs = workload.prepare(seed, out_dir)
        samples.append(imported + time.perf_counter() - began)
    return inputs, statistics.median(samples)


def check_counts(repeats: Sequence[Any]) -> List[str]:
    """Every count must read the same in every repeat that reports it."""
    seen: Dict[str, int] = {}
    problems = []
    for index, rep in enumerate(repeats):
        for key, value in rep.counts.items():
            if seen.setdefault(key, value) != value:
                problems.append(f"repeat {index}: count {key} is {value}, was {seen[key]}")
    return problems


def layer_metrics(tracer: Any, rep: Any, keep: Callable[[int], bool]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of traced repeat ``rep``, as ``(value, unit)``;
    span metrics cover the ops ``keep`` accepts."""
    table = tracer.table(keep)
    m: Dict[str, Tuple[float, str]] = {}

    def total(name: str, metric: str = "") -> None:
        m[metric or f"{name}_s"] = (table.get(name, {}).get("total_s", 0.0), "s")

    def self_time(name: str, metric: str) -> None:
        m[metric] = (table.get(name, {}).get("self_s", 0.0), "s")

    def calls(name: str) -> int:
        m[f"{name}_calls"] = (int(table.get(name, {}).get("calls", 0)), "count")
        return m[f"{name}_calls"][0]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    for phase in PHASES:
        for backend in BACKENDS:
            key = f"engine.{phase}_s.{backend}"
            m[key] = (rep.layer.get(key, 0.0), "s")
    for count in ("rounds", "robot_rounds", "packets_broadcast", "packets_delivered"):
        m[f"engine.{count}"] = (rep.counts.get(count, 0), "count")
    for name in ("graph.snapshot", "graph.validate", "vec.csr", "obs.build_packets"):
        total(name)
        calls(name)
    total("vec.subgraph_edges")
    self_time("vec.observe", "vec.observe_self_s")
    total("vec.compute")
    fallbacks = tracer.parent_counts("ref.compute", "vec.compute", keep)
    computes = table.get("vec.compute", {}).get("calls", 0)
    observes = table.get("vec.observe", {}).get("calls", 0)
    lazy = table.get("vec.lazy_packets", {}).get("calls", 0)
    m["vec.fallback_compute_frac"] = (ratio(fallbacks, computes), "ratio")
    m["vec.packet_materialize_frac"] = (ratio(lazy, observes), "ratio")
    total("obs.observations")
    for stage in ("components", "spanning_tree", "disjoint_paths", "sliding"):
        total(f"core.{stage}")
        calls(f"core.{stage}")
    builds = table.get("spec.build_engine", {})
    m["spec.build_engine_s"] = (ratio(builds.get("total_s", 0.0), builds.get("calls", 0)), "s")
    digests = table.get("spec.digest", {})
    m["spec.digest_us"] = (ratio(digests.get("total_s", 0.0) * 1e6, digests.get("calls", 0)), "us")
    puts = [table.get(f"store.put.{mode}", {}).get("total_s", 0.0) for mode in ("fast", "strict")]
    m["store.put_s"] = (sum(puts), "s")
    total("store.get")
    for op in VFS_OPS:
        calls(f"store.vfs.{op}")
        total(f"store.vfs.{op}")
    m["store.bytes_written"] = (rep.layer.get("store.bytes_written", 0), "bytes")
    total("traceio.to_dict")
    total("traceio.from_dict")
    for stage in LINT_STAGES:
        total(f"lint.{stage}")
        calls(f"lint.{stage}")
    self_time("lint.main", "lint.shallow_s")
    for layer in LAYERS:
        seconds = sum(row["self_s"] for name, row in table.items() if layer_of(name) == layer)
        m[f"self_s.{layer}"] = (seconds, "s")
    return m


def layer_table(tracer: Any, repeat: int, group: str) -> List[str]:
    """Printable rows of one traced repeat, for the ops whose label ends in
    ``group`` (a backend, a durability mode, ...)."""

    def keep(op: int) -> bool:
        label, rep = tracer.ops[op]
        return rep == repeat and label.split("/")[-1] == group

    table = tracer.table(keep)
    # Self times partition the operations' root spans, so they sum to the
    # traced time of the group.
    traced_s = sum(row["self_s"] for row in table.values())
    lines = [f"  {'span':<24}{'calls':>9}{'total_s':>11}{'self_s':>11}{'self%':>8}"]
    layers: Dict[str, float] = {}
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + row["self_s"]
        lines.append(
            f"  {name:<24}{int(row['calls']):>9}{row['total_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{100 * row['self_s'] / traced_s:>7.1f}%"
        )
    lines.append(
        "  self time by layer: "
        + ", ".join(f"{k} {v:.4f}s" for k, v in sorted(layers.items(), key=lambda i: -i[1]))
    )
    return lines


def repeat_until(
    workload: Any, inputs: Any, tracer: Any, deadline: float, at_least: int, out: List[Any]
) -> None:
    """Append repeats to ``out`` while the next one, as long as the median so
    far, would end by ``deadline``; always at least ``at_least`` of them."""
    while len(out) < at_least or (
        time.perf_counter() + statistics.median(rep.wall_s for rep in out) <= deadline
    ):
        gc.collect()
        if tracer is not None:
            tracer.repeat = len(out)
        rep = workload.repeat(inputs, tracer)
        if tracer is not None:
            for name, row in tracer.table(lambda op: tracer.ops[op][1] == tracer.repeat).items():
                rep.counts[f"calls.{name}"] = int(row["calls"])
        out.append(rep)


def run(args: argparse.Namespace) -> Dict[str, Any]:
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    inputs, setup_s = set_up(workload, args.workload, args.seed, out_dir)
    tracer = Tracer()

    untraced: List[Any] = []
    traced: List[Any] = []
    start = time.perf_counter()
    if not args.trace:
        repeat_until(workload, inputs, None, start + args.seconds, MIN_REPEATS, untraced)
        pool_ms = None
    else:
        repeat_until(workload, inputs, None, start + args.seconds / 2, 1, untraced)
        pool_ms = workload.pool_overhead_ms(inputs)
        tracer.install()
        try:
            repeat_until(workload, inputs, tracer, start + args.seconds, 1, traced)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_counts(untraced + traced)
    attempted = sum(rep.ops for rep in untraced + traced)
    failures = [f"{key}: {why}" for rep in untraced + traced for key, why in rep.failures.items()]
    failed = len(failures) + len(problems)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"why: {workload.why}")
    print(f"environment: {json.dumps(environment(out_dir))}")
    wall = statistics.median(rep.wall_s for rep in untraced)
    print(f"setup_s      {setup_s:.4f} s   (median of {SETUP_REPEATS} set-ups)")
    print(f"wall_s       {wall:.4f} s   (median of {len(untraced)} untraced repeats)")
    for backend in untraced[0].parts:
        part = statistics.median(rep.parts[backend] for rep in untraced)
        print(f"wall_s.{backend:<11}{part:.4f} s")
    for stem in untraced[0].samples:
        samples = [x for rep in untraced for x in rep.samples[stem]]
        print(
            f"{stem}.p50 {percentile(samples, 50):.4f} ms   {stem}.p95 "
            f"{percentile(samples, 95):.4f} ms   (n={len(samples)})"
        )
    print(f"fail_frac    {failed / attempted:.4f}   ({failed} of {attempted} operations)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"exact counts: {json.dumps(untraced[0].counts, sort_keys=True)}")
    for line in failures + problems:
        print(f"FAILED {line}")

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = traced_metrics(args, tracer, untraced, traced, pool_ms, out_dir)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_metrics(
    args: argparse.Namespace,
    tracer: Any,
    untraced: List[Any],
    traced: List[Any],
    pool_ms: Optional[float],
    out_dir: pathlib.Path,
) -> Dict[str, Tuple[float, str]]:
    per_repeat = [
        layer_metrics(tracer, rep, lambda op, i=index: tracer.ops[op][1] == i)
        for index, rep in enumerate(traced)
    ]
    metrics: Dict[str, Tuple[float, str]] = {
        name: (statistics.median(m[name][0] for m in per_repeat), unit)
        for name, (_value, unit) in per_repeat[0].items()
    }
    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    traced_wall = statistics.median(rep.wall_s for rep in traced)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    metrics["runner.pool_overhead_ms"] = (pool_ms or 0.0, "ms")

    print(f"traced: {len(traced)} repeats, median wall_s {traced_wall:.4f} s, "
          f"overhead {metrics['trace.overhead_frac'][0]:+.3f} of untraced")
    if pool_ms is not None:
        print(f"runner.pool_overhead_ms {pool_ms:.3f} ms per spec")
    groups = sorted({label.split("/")[-1] for label, _ in tracer.ops.values()})
    cells = sorted({label.split("/")[0] for label, _ in tracer.ops.values() if "/" in label})
    for group in groups:
        print(f"layer table, traced repeat 0, ops '{group}':")
        for line in layer_table(tracer, 0, group):
            print(line)
    if len(cells) > 1:
        print("per cell (traced repeat 0): vec.fallback_compute_frac, vec.packet_materialize_frac")
        for cell in cells:
            m = layer_metrics(
                tracer, traced[0], lambda op, c=cell: tracer.ops[op] == (f"{c}/vectorized", 0)
            )
            print(
                f"  {cell:<14}{m['vec.fallback_compute_frac'][0]:>8.3f}"
                f"{m['vec.packet_materialize_frac'][0]:>8.3f}"
            )
    print(f"exact counts (traced): {json.dumps(traced[0].counts, sort_keys=True)}")

    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(out_dir),
        "untraced_wall_s": [rep.wall_s for rep in untraced],
        "traced_wall_s": [rep.wall_s for rep in traced],
        "repeats": [
            {
                "metrics": {name: value for name, (value, _unit) in m.items()},
                "layers": tracer.table(lambda op, i=index: tracer.ops[op][1] == i),
            }
            for index, m in enumerate(per_repeat)
        ],
        "spans": tracer.export(),
    }
    path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only import what the workload calls (times set-up)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.probe:
        WORKLOADS[args.workload].load()
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
