"""Metrics from the pooled raw figures of a run's processes.

A run measures in several fresh processes (see ``run.py``); each prints
its raw samples, counts and trace aggregates, and this module pools
them.  Metric names and units are those ``BENCHMARK.json`` declares.
Timings are medians and nearest-rank percentiles of the pooled samples.

Every per-layer ``*_s`` metric is a layer's *self* time (its spans'
duration less their child spans) per operation of its path: per
compile for the compile layers, per program run for the run layers.
Counts are per the same operations, so on a workload whose operations
repeat exactly they repeat exactly too.  A layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

import json
import math
import os
import statistics

from tracer import PASSES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)

WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
#: name -> unit, in the order ``BENCHMARK.json`` lists them.
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: The named layers of the run path, under ``runtime.run`` (the
#: ``Executable.run`` call).  Their self times against the runs' total
#: time is ``trace.coverage``; ``runtime.run``'s own self time is what
#: no named layer claims.
RUN_LAYERS = ("runtime.host", "runtime.comm", "runtime.reduce",
              "machine.dispatch", "machine.kernel", "machine.kernel_build",
              "machine.alloc")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pooled(raws: list[dict], key: str) -> list:
    return [x for raw in raws for x in raw[key]]


def end_to_end(raws: list[dict]) -> dict:
    latencies = pooled(raws, "latencies")
    m = {
        "op_s": statistics.median(latencies),
        "op_s_p90": percentile(latencies, 90),
        "ops_per_s": len(latencies) / sum(raw["busy_s"] for raw in raws),
        # Every process runs the same programs: the first one's figures.
        "sim_gflops": raws[0]["flops"] / raws[0]["sim_seconds"] / 1e9,
        "setup_s": statistics.median(raw["setup_s"] for raw in raws),
        "peak_rss_mb": statistics.median(raw["rss_mb"] for raw in raws),
    }
    return {name: (m[name], unit) for name, unit in END_TO_END.items()}


def per_layer(raws: list[dict]) -> dict:
    t = Tracer()
    for raw in raws:
        t.merge(raw["trace"])
    c = t.counters
    k: dict[str, float] = {}
    for raw in raws:
        for key, value in raw["counts"].items():
            k[key] = k.get(key, 0) + value
    compiles = c.get("op.compile", 0)
    runs = c.get("op.run", 0)

    def per_compile(span: str) -> float:
        return _ratio(t.seconds(span), compiles)

    def per_run(span: str) -> float:
        return _ratio(t.seconds(span), runs)

    m: dict[str, float] = {
        "frontend.lex_s": per_compile("frontend.lex"),
        "frontend.parse_s": per_compile("frontend.parse"),
        "frontend.tokens_per_s": _ratio(c.get("frontend.tokens", 0),
                                        t.seconds("frontend.lex", 1)),
        "lowering.lower_s": per_compile("lowering.lower"),
        "lowering.check_s": per_compile("lowering.check"),
        "lowering.nir_nodes": _ratio(c.get("lowering.nir_nodes", 0),
                                     c.get("lowering.lowered", 0)),
        "transform.optimize_s": per_compile("transform.optimize"),
        "transform.trace_ratio": _ratio(
            sum(t.seconds(f"transform.{p}", 1) for p in PASSES),
            c.get("transform.pipeline_trace_ns", 0) / 1e9),
        "backend.compile_s": per_compile("backend.compile"),
        "backend.phase_s": per_compile("backend.phase"),
        "backend.phases": _ratio(t.calls("backend.phase"),
                                 c.get("backend.programs", 0)),
        "backend.peac_instrs": _ratio(c.get("backend.peac_instrs", 0),
                                      c.get("backend.programs", 0)),
        "backend.spills": _ratio(c.get("backend.spills", 0),
                                 c.get("backend.programs", 0)),
        "store.get_s": per_compile("store.get"),
        "store.put_s": per_compile("store.put"),
        "store.head_s": per_compile("store.head"),
        # Store counters cover every compile of compile-edit's window,
        # traced or not; so does the divisor.
        "store.bytes_written": _ratio(k.get("store.bytes_written", 0),
                                      len(pooled(raws, "latencies"))),
        "runtime.comm_s": per_run("runtime.comm"),
        "runtime.comm_calls": _ratio(c.get("runtime.comm_calls", 0), runs),
        "runtime.comm_bytes": _ratio(c.get("runtime.comm_bytes", 0), runs),
        "runtime.reduce_s": per_run("runtime.reduce"),
        "runtime.host_self_s": per_run("runtime.host"),
        "machine.dispatch_s": per_run("machine.dispatch"),
        "machine.kernel_s": per_run("machine.kernel"),
        "machine.kernel_native_frac": _ratio(
            c.get("machine.kernel_native_ns", 0) / 1e9,
            t.seconds("machine.kernel", 1)),
        "machine.alloc_s": per_run("machine.alloc"),
        "machine.alloc_bytes": _ratio(c.get("machine.alloc_bytes", 0), runs),
        "machine.megakernel_builds": _ratio(
            k.get("machine.megakernel_builds", 0), len(raws)),
        "trace.coverage": _ratio(sum(t.seconds(s) for s in RUN_LAYERS),
                                 t.seconds("runtime.run", 1)),
    }
    for p in PASSES:
        m[f"transform.{p}_s"] = per_compile(f"transform.{p}")
        m[f"transform.{p}_ir"] = _ratio(c.get(f"transform.{p}_ir", 0),
                                        c.get(f"transform.{p}_runs", 0))
    for kind in ("front", "pass", "backend", "phase"):
        m[f"store.{kind}.hit_ratio"] = _ratio(
            k.get(f"store.{kind}.hits", 0),
            k.get(f"store.{kind}.lookups", 0))
    for name in ("node", "comm", "call", "host"):
        m[f"machine.{name}_cycles"] = _ratio(
            c.get(f"machine.{name}_cycles", 0), runs)

    # The service layer, from the server's own {"op":"metrics"} figures
    # (service-mix only).
    requests = k.get("service.requests", 0)
    queue = k.get("service.queue_wait_total", 0.0)
    comp = k.get("service.compile_total", 0.0)
    run = k.get("service.run_total", 0.0)
    m.update({
        "service.queue_wait_s": _ratio(queue, k.get("service.queue_wait_n")),
        "service.compile_s": _ratio(comp, k.get("service.compile_n")),
        "service.run_s": _ratio(run, k.get("service.run_n")),
        "service.overhead_s": _ratio(
            k.get("service.latency_total", 0.0) - queue - comp - run,
            requests),
        "service.cache_hit_ratio": _ratio(
            k.get("service.cache_hits", 0),
            k.get("service.cache_hits", 0)
            + k.get("service.cache_misses", 0)),
        "service.singleflight_hit_ratio": _ratio(
            k.get("service.sf_hits", 0),
            k.get("service.sf_hits", 0) + k.get("service.sf_leaders", 0)),
        "service.rejected": k.get("service.rejected", 0),
        "service.pool_jobs": _ratio(k.get("service.pool_jobs", 0),
                                    requests),
    })

    # Tracing overhead: traced against untraced operations, interleaved
    # in each process.  service-mix traces nothing in the benchmark's
    # process (its work runs in pool workers), so it reads 0.
    traced = pooled(raws, "traced")
    untraced = pooled(raws, "untraced")
    m["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if traced and untraced else 0.0)
    return {name: (m[name], unit) for name, unit in PER_LAYER.items()}
