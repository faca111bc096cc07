"""One benchmark process: set up one workload, measure it, check it.

``run.py`` starts this file in several fresh processes per run, each
with a clean environment and an empty cache directory; each prints one
JSON line of raw figures, which ``run.py`` pools.

Each workload measures its own traffic and nothing else, and defines
what one *operation* is; the end-to-end metrics are the operations'
latencies and rate:

* ``swe-steady``   -- one run of the paper's SWE at 512x512x8 on cm2
  with the fused engine, compiled and warmed in set-up;
* ``compile-edit`` -- one compile that yields an executable: the cold
  compile of a program into a fresh store, or an incremental recompile
  after one edit of its seeded chain;
* ``service-mix``  -- one request to an in-process ``ReproServer`` over
  a ``WorkerPool`` of ``nproc`` workers, from ``nproc`` closed-loop
  connections, in the request mix of ``repro loadgen``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import socket
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from programs import INVALID_EDITS, draw_chains, families  # noqa: E402
from tracer import TRACER, instrument  # noqa: E402

#: Tolerance against the independent numpy reference interpreter: the
#: compiled pipeline and the reference evaluate the same double
#: precision expressions, so only the last bits may differ.
RTOL = 1e-9
ATOL = 1e-12


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)
            print(f"perfbench: FAILED {reason}", file=sys.stderr)


def is_typed(exc: BaseException) -> bool:
    """A repro diagnostic, as opposed to a raw Python exception."""
    return type(exc).__module__.startswith("repro.")


def same_bits(a: dict, b: dict) -> bool:
    """Bit-identical arrays (NaNs included), without copying them."""
    return a.keys() == b.keys() and all(
        a[n].dtype == b[n].dtype and a[n].shape == b[n].shape
        and np.array_equal(a[n].view(np.uint8), b[n].view(np.uint8))
        for n in a)


def arrays_digest(arrays: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def arrays_match_reference(arrays: dict, ref) -> str | None:
    for name, expected in ref.arrays.items():
        got = arrays.get(name)
        if got is None:
            return f"array {name} missing"
        if not np.allclose(got, expected, rtol=RTOL, atol=ATOL):
            return f"array {name} differs from the reference"
    return None


def fused_run(exe):
    from repro.targets import build_machine

    machine = build_machine(exe.options.target, exec_mode="fused")
    return exe.run(machine=machine), machine


class Workload:
    """The figures every workload reports, and its measuring loop."""

    def __init__(self, seed: int, root: str, workdir: str,
                 trace: bool) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.trace = trace
        self.ledger = Ledger()
        self.latencies: list[float] = []   # one per operation
        self.busy_s = 0.0                  # time the operations took
        self.traced: list[float] = []
        self.untraced: list[float] = []
        #: Simulated flops and seconds of the workload's run programs,
        #: each program counted once (for ``sim_gflops``).
        self.flops = 0
        self.sim_seconds = 0.0
        self.counts: dict[str, float] = {}
        self.extra: dict = {}
        #: Counts and results that every process of one seed must
        #: repeat exactly; ``run.py`` compares their digests.
        self.signature: list = []

    def setup(self) -> None:
        """Imports, compiles, native builds, pool spawn: up to ready."""

    def prepare(self) -> None:
        """Oracles needed inside the window (after set-up, untimed)."""

    def step(self, traced: bool) -> None:
        """Operations, each timed into ``latencies``."""
        raise NotImplementedError

    def more(self) -> bool:
        """Whether steps must continue past the deadline."""
        return False

    def check(self) -> None:
        """Oracles after the window."""

    def close(self) -> None:
        pass

    def draw(self) -> object:
        """Everything the seed drew (digested for the smoke test)."""
        return self.seed

    def timed(self, traced: bool, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` timed as one operation; raises what
        it raises."""
        TRACER.enabled = traced
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            TRACER.enabled = False
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.busy_s += dt
        (self.traced if traced else self.untraced).append(dt)
        return result

    def measure(self, seconds: float) -> None:
        """Steps until ``seconds`` have passed (and :meth:`more` is
        false).  A traced run alternates traced and untraced steps, so
        the tracing overhead is measured on the same operations in the
        same process.  The garbage collector runs between steps, never
        inside a timed operation.
        """
        gc.collect()
        gc.disable()
        try:
            deadline = time.perf_counter() + seconds
            steps = 0
            while time.perf_counter() < deadline or self.more():
                self.step(self.trace and steps % 2 == 0)
                steps += 1
                gc.collect()
        finally:
            gc.enable()

    def raw(self) -> dict:
        signature = json.dumps(self.signature, sort_keys=True, default=str)
        return {
            "draw": hashlib.sha256(json.dumps(
                self.draw(), default=str).encode()).hexdigest(),
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "reasons": self.ledger.reasons,
            "latencies": self.latencies,
            "busy_s": self.busy_s,
            "traced": self.traced,
            "untraced": self.untraced,
            "flops": self.flops,
            "sim_seconds": self.sim_seconds,
            "counts": self.counts,
            "extra": self.extra,
            "signature": hashlib.sha256(signature.encode()).hexdigest(),
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "trace": TRACER.export() if self.trace else None,
        }


# -- swe-steady --------------------------------------------------------------


class SweSteady(Workload):
    """The paper's SWE, compiled and warmed once, then run repeatedly.

    The grid is the paper's 512x512 with 8 steps: run layers do the
    work (communication copies and native kernels), compile and store
    none.  The seed draws the amplitude of the initial pressure wave
    (the paper's ``a = 1000000.0d0`` scaled by 0.9 to 1.1), which
    changes every value computed but not the work done.
    """

    N = 512
    STEPS = 8
    WARM_RUNS = 3
    AMPLITUDE = "a = 1000000.0d0"

    def setup(self) -> None:
        import random

        from repro import compile_source
        from repro.programs.swe import swe_source

        self.amplitude = 1e6 * random.Random(self.seed).uniform(0.9, 1.1)
        source = swe_source(self.N, self.STEPS)
        assert self.AMPLITUDE in source
        self.source = source.replace(self.AMPLITUDE,
                                     f"a = {self.amplitude:.3f}d0", 1)
        self.exe = compile_source(self.source, cache=False,
                                  incremental=False)
        builds = 0
        # The first runs record plan specializations and build the
        # native mega-kernels.
        for _ in range(self.WARM_RUNS):
            _result, machine = fused_run(self.exe)
            builds += machine.fusion_metrics["megakernel_builds"]
        self.counts["machine.megakernel_builds"] = builds
        self.first = None

    def step(self, traced: bool) -> None:
        try:
            result, machine = self.timed(traced, fused_run, self.exe)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            self.ledger.fail(f"swe run: {type(exc).__name__}: {exc}")
            return
        stats = result.stats.to_dict()
        if self.first is None:
            self.first = (stats, result.arrays)
            self.flops = result.stats.flops
            self.sim_seconds = result.stats.seconds(machine.model.clock_hz)
            self.signature = [stats, arrays_digest(result.arrays)]
            self.ledger.ok()
        elif stats != self.first[0]:
            self.ledger.fail("swe run: RunStats differ between runs")
        elif not same_bits(result.arrays, self.first[1]):
            self.ledger.fail("swe run: arrays differ between runs")
        else:
            self.ledger.ok()

    def draw(self) -> object:
        return self.amplitude

    def check(self) -> None:
        """Bit-identical to the ``interp`` engine, and close to the
        reference interpreter."""
        from repro import parse_program, run_reference
        from repro.targets import build_machine

        if self.first is None:
            return  # every run failed, and was counted
        arrays = self.first[1]
        try:
            oracle = self.exe.run(machine=build_machine(
                self.exe.options.target, exec_mode="interp"))
            ref = run_reference(parse_program(self.source))
        except Exception as exc:  # noqa: BLE001 - a failed check
            self.ledger.fail(f"swe oracle: {type(exc).__name__}: {exc}")
            return
        if same_bits(oracle.arrays, arrays):
            self.ledger.ok()
        else:
            self.ledger.fail("swe run: fused arrays differ from interp")
        problem = arrays_match_reference(arrays, ref)
        if problem:
            self.ledger.fail(f"swe run: {problem}")
        else:
            self.ledger.ok()


# -- compile-edit ------------------------------------------------------------


class CompileEdit(Workload):
    """Cold compiles into a fresh store, then seeded edit chains.

    A round is the seed's draw of chains, one per family of the pool
    (``programs.py``); rounds repeat until the window closes, and the
    round in progress is finished, so per-round counts stay whole.
    Every compiled result runs once, untimed, against the oracles.
    """

    def setup(self) -> None:
        import repro  # noqa: F401 - the compiler's imports are set-up
        from repro.service.store import ArtifactStore  # noqa: F401

        self.chains = draw_chains(families(self.root), self.seed)
        self.cold: list[float] = []
        self.recompile: list[float] = []
        self.expected: dict[str, tuple] = {}   # source -> (stats, ref)
        self.stores = 0
        self.done = 0                           # chains compiled
        self.round_signature: list = []
        for kind in ("front", "pass", "backend", "phase"):
            self.counts[f"store.{kind}.hits"] = 0
            self.counts[f"store.{kind}.lookups"] = 0
        self.counts["store.bytes_written"] = 0

    def prepare(self) -> None:
        """Per source: RunStats of a cold non-incremental compile and
        the reference interpreter's result."""
        from repro import compile_source, parse_program, run_reference

        for chain in self.chains:
            sources = [chain.family.source] + [
                source for kind, source in chain.edits
                if kind not in INVALID_EDITS]
            for source in sources:
                if source in self.expected:
                    continue
                exe = compile_source(source, cache=False, incremental=False)
                result, _machine = fused_run(exe)
                self.expected[source] = (
                    result.stats.to_dict(),
                    run_reference(parse_program(source)))

    def draw(self) -> object:
        return [(c.family.name, c.edits) for c in self.chains]

    def _compile(self, source: str, store, traced: bool, cold: bool):
        from repro import compile_source

        exe = self.timed(traced, compile_source, source, cache=False,
                         incremental=True, store=store)
        (self.cold if cold else self.recompile).append(self.latencies[-1])
        return exe

    def _check(self, label: str, source: str, exe, traced: bool,
               cold: bool) -> None:
        """Run the result once (untimed) against the oracles."""
        stats, ref = self.expected[source]
        TRACER.enabled = traced
        try:
            result, machine = fused_run(exe)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            self.ledger.fail(f"{label}: run: {type(exc).__name__}: {exc}")
            return
        finally:
            TRACER.enabled = False
        problem = arrays_match_reference(result.arrays, ref)
        if problem:
            self.ledger.fail(f"{label}: {problem}")
        elif result.stats.to_dict() != stats:
            self.ledger.fail(f"{label}: RunStats differ from a cold compile")
        else:
            self.ledger.ok()
        if cold and self.done < len(self.chains):
            # sim_gflops: the pool's programs as first compiled.
            self.flops += result.stats.flops
            self.sim_seconds += result.stats.seconds(
                machine.model.clock_hz)
        self.round_signature.append((
            label, result.stats.to_dict(), arrays_digest(result.arrays),
            json.dumps(exe.transformed.trace.artifacts, sort_keys=True,
                       default=str),
            sorted((n, len(r.body)) for n, r in exe.routines.items())))

    def _chain(self, chain, traced: bool) -> None:
        from repro.service.store import ArtifactStore

        fam = chain.family
        self.stores += 1
        store = ArtifactStore(os.path.join(self.workdir, "stores",
                                           str(self.stores)))
        try:
            exe = self._compile(fam.source, store, traced, cold=True)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            self.ledger.fail(f"cold {fam.name}: {type(exc).__name__}: {exc}")
        else:
            self.ledger.ok()
            self._check(f"{fam.name}/cold", fam.source, exe, traced, True)
            for kind, source in chain.edits:
                self._edit(f"{fam.name}/{kind}", kind, source, store, traced)
        footprint = store.stats()
        for kind in ("front", "pass", "backend", "phase"):
            counts = footprint["kinds"][kind]
            self.counts[f"store.{kind}.hits"] += counts["hits"]
            self.counts[f"store.{kind}.lookups"] += (counts["hits"]
                                                     + counts["misses"])
        self.counts["store.bytes_written"] += footprint["bytes"]
        shutil.rmtree(store.root, ignore_errors=True)

    def _edit(self, label: str, kind: str, source: str, store,
              traced: bool) -> None:
        from repro import compile_source

        if kind in INVALID_EDITS:
            # Untimed: an invalid edit is a correctness check, not an
            # operation that yields an executable.
            try:
                compile_source(source, cache=False, incremental=True,
                               store=store)
            except Exception as exc:  # noqa: BLE001 - classified below
                if is_typed(exc):
                    self.ledger.ok()
                    self.round_signature.append((label,
                                                 type(exc).__name__))
                else:
                    self.ledger.fail(f"{label}: untyped "
                                     f"{type(exc).__name__}: {exc}")
            else:
                self.ledger.fail(f"{label}: invalid edit compiled")
            return
        try:
            exe = self._compile(source, store, traced, cold=False)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            self.ledger.fail(f"{label}: {type(exc).__name__}: {exc}")
            return
        self.ledger.ok()
        self._check(label, source, exe, traced, False)

    def step(self, traced: bool) -> None:
        """The next chain of the draw.  Every round of one seed must
        repeat the first round's counts exactly.  A traced run traces
        every other round, not every other chain, so that traced and
        untraced compiles are of the same programs."""
        rounds, index = divmod(self.done, len(self.chains))
        if index == 0:
            self.round_signature = []
        self._chain(self.chains[index], self.trace and rounds % 2 == 0)
        self.done += 1
        if index == len(self.chains) - 1:
            if not self.signature:
                self.signature = self.round_signature
            elif self.round_signature != self.signature:
                self.ledger.fail("compile: counts differ between rounds "
                                 "of one seed")

    def more(self) -> bool:
        return self.done % len(self.chains) != 0

    def raw(self) -> dict:
        self.extra = {"cold": self.cold, "recompile": self.recompile}
        return super().raw()


# -- service-mix -------------------------------------------------------------


class ServiceMix(Workload):
    """``nproc`` closed-loop connections to an in-process server.

    The requests are ``repro loadgen``'s mix (``loadgen.build_workload``
    with its defaults: 96 requests a round, 8 distinct programs, two
    tenants, one compile in three, runs at 64 PEs), so the benchmark
    measures the traffic the repository already defines.  Each round
    takes a fresh nonce drawn from the seed: a program's first request
    in a round misses every cache (or coalesces with a concurrent one),
    and its repeats hit.  Each connection walks its own rounds, waiting
    for every reply before sending the next request; no barrier joins
    the connections.
    """

    REQUESTS = 96
    DISTINCT = 8
    TENANTS = 2

    def setup(self) -> None:
        from repro import compile_source
        from repro.service import loadgen
        from repro.service.cache import CompileCache
        from repro.service.jobs import build_machine
        from repro.service.pool import WorkerPool
        from repro.service.server import ReproServer

        self.loadgen = loadgen
        self.workers = os.cpu_count() or 1
        self.per_client = max(1, self.REQUESTS // self.workers)
        # Expected replies per program slot, from in-process compiles
        # and runs on the machine the server builds for the request.
        # Running twice also builds the native kernels before the
        # workers fork, so they inherit them.
        self.expected: dict[tuple[int, str], dict] = {}
        run_request = next(r for r in loadgen.build_workload(
            0, 3, tenants=1, distinct=1, nonce="") if r["op"] == "run")
        for slot in range(self.DISTINCT):
            source = loadgen._program(slot, "expected")
            exe = compile_source(source, cache=False, incremental=False)
            for _ in range(2):
                machine = build_machine(run_request,
                                        target=exe.options.target)
                result = exe.run(machine)
            self.expected[(slot, "compile")] = {
                "routines": sorted(exe.routines)}
            self.expected[(slot, "run")] = json.loads(json.dumps({
                "stats": result.stats.to_dict(),
                "output": list(result.output)}))
            self.flops += result.stats.flops
            self.sim_seconds += result.stats.seconds(
                machine.model.clock_hz)
        self.pool = WorkerPool(self.workers, cache=CompileCache(
            os.path.join(self.workdir, "service-cache")))
        self.server = ReproServer(pool=self.pool)
        self.server.start()
        # Warm every worker once, so pool start-up is set-up, not
        # service latency.
        self.pool.map([{"op": "ping"}] * self.workers)
        self.lock = threading.Lock()
        self.requests = 0

    def nonce(self, round_: int) -> str:
        return f"{self.seed}-{round_}"

    def draw(self) -> object:
        return [self.loadgen.build_workload(
            c, self.per_client, tenants=self.TENANTS,
            distinct=self.DISTINCT, nonce=self.nonce(0))
            for c in range(self.workers)]

    def call(self, conn, request: dict) -> dict:
        conn.sendall(json.dumps(request).encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            data += chunk
        return json.loads(data)

    def metrics(self) -> dict:
        with socket.create_connection(self.server.address) as conn:
            return self.call(conn, {"op": "metrics"})["metrics"]

    def _problem(self, reply: dict, request: dict) -> str | None:
        if not reply.get("ok"):
            error = reply.get("error") or {}
            return f"error reply {error.get('type')}: {error.get('message')}"
        # loadgen names each slot's program ``load<slot>``.
        slot = int(request["source"].split()[1][len("load"):])
        expected = self.expected[(slot, request["op"])]
        for key, value in expected.items():
            if reply.get(key) != value:
                return f"{key} differ"
        return None

    def _client(self, client: int, deadline: float) -> None:
        with socket.create_connection(self.server.address) as conn:
            round_ = 0
            while time.perf_counter() < deadline:
                requests = self.loadgen.build_workload(
                    client, self.per_client, tenants=self.TENANTS,
                    distinct=self.DISTINCT, nonce=self.nonce(round_))
                for request in requests:
                    if time.perf_counter() >= deadline:
                        return
                    t0 = time.perf_counter()
                    try:
                        reply = self.call(conn, request)
                    except (OSError, ValueError) as exc:
                        with self.lock:
                            self.ledger.fail(f"{request['id']}: {exc}")
                        return
                    dt = time.perf_counter() - t0
                    problem = self._problem(reply, request)
                    with self.lock:
                        self.requests += 1
                        self.latencies.append(dt)
                        if problem:
                            self.ledger.fail(f"{request['id']} "
                                             f"{request['op']}: {problem}")
                        else:
                            self.ledger.ok()
                round_ += 1

    def measure(self, seconds: float) -> None:
        """The closed loop, for ``seconds``; the server's own figures
        are the ``{"op":"metrics"}`` difference over it."""
        before = self.metrics()
        jobs = self.pool.jobs_dispatched
        t0 = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(c, t0 + seconds))
                   for c in range(self.workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        self.busy_s = time.perf_counter() - t0
        after = self.metrics()
        delta = self.loadgen._metrics_delta(before, after)
        c = self.counts
        for name in ("queue_wait", "compile", "run"):
            count0, total0 = _latency_total(before, name)
            count1, total1 = _latency_total(after, name)
            c[f"service.{name}_n"] = count1 - count0
            c[f"service.{name}_total"] = total1 - total0
        c["service.cache_hits"] = (after["cache"]["hits"]
                                   - before["cache"]["hits"])
        c["service.cache_misses"] = (after["cache"]["misses"]
                                     - before["cache"]["misses"])
        c["service.sf_hits"] = delta["singleflight"]["hits"]
        c["service.sf_leaders"] = delta["singleflight"]["leaders"]
        c["service.rejected"] = delta["admission"]["rejected"]
        c["service.pool_jobs"] = self.pool.jobs_dispatched - jobs
        c["service.requests"] = self.requests
        c["service.latency_total"] = sum(self.latencies)

    def close(self) -> None:
        if hasattr(self, "server"):
            self.server.stop()
            self.server.server_close()
        if hasattr(self, "pool"):
            self.pool.close()


def _latency_total(snapshot: dict, name: str) -> tuple[int, float]:
    stat = snapshot["latency_seconds"][name]
    count = stat.get("count", 0)
    return count, stat.get("mean", 0.0) * count


WORKLOADS = {"swe-steady": SweSteady, "compile-edit": CompileEdit,
             "service-mix": ServiceMix}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time the parent started this process")
    args = ap.parse_args(argv)

    if args.trace:
        instrument()
    bench = WORKLOADS[args.workload](args.seed, args.root, args.workdir,
                                     bool(args.trace))
    try:
        bench.setup()
        setup_s = time.time() - args.t0
        bench.prepare()
        bench.measure(args.seconds)
        bench.check()
    finally:
        bench.close()
    print(json.dumps({"setup_s": setup_s, **bench.raw()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
