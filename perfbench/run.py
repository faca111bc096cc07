"""The repository's benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload swe-steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each measured run is a fresh ``perfbench/workloads.py`` process with a
fresh cache directory, temporary directory and home directory under
``.perfbench_runs/`` in the checkout, and with every inherited
``REPRO_*`` switch cleared (and recorded), so nothing outside the run
can change the program being measured.  A run is several such
processes, each measuring a share of the window; their samples are
pooled, and ``setup_s`` is the median of their times from start to
ready.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it are a human report: every metric by name and unit,
``fail_frac``, and the environment the figures were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
ROOT = os.path.dirname(HERE)

import metrics  # noqa: E402

WORKLOADS = metrics.WORKLOADS

#: Fresh processes per run.  Each measures an equal share of the
#: window and the parent pools their samples, so one process's luck
#: (memory placement, a noisy neighbour) moves a median less; each
#: process's start-to-ready time is one ``setup_s`` sample.
PROCESSES = 3
#: Every workload's processes must have finished this many seconds
#: after its first one started.
BUDGET_S = 170


def _clean_env(workdir: str) -> tuple[dict, dict]:
    """The child environment, and the ``REPRO_*`` switches it drops."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    cleared = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for sub in ("cache", "tmp", "home"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "REPRO_CACHE_DIR": os.path.join(workdir, "cache"),
        "TMPDIR": os.path.join(workdir, "tmp"),
        "HOME": os.path.join(workdir, "home"),
        "PYTHONHASHSEED": "0",
    })
    return env, cleared


def _command_output(cmd: list[str]) -> str | None:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=10, cwd=ROOT, env={
                                  **os.environ,
                                  "GIT_CEILING_DIRECTORIES":
                                      os.path.dirname(ROOT)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip().splitlines()[0] if proc.stdout.strip() else None


def environment(seed: int, cleared: dict) -> dict:
    """Where the figures were taken: machine, toolchain, code, seed."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": _command_output(["cc", "--version"]),
        "git_commit": _command_output(["git", "rev-parse", "HEAD"]),
        "seed": seed,
        "cleared_repro_env": cleared,
    }


def _child(workload: str, args, workdir: str, env: dict,
           seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--root", ROOT, "--t0", repr(time.time())]
    # A session of its own, so a timeout stops the pool workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} process timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} process exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args, processes: int = PROCESSES) -> dict:
    """Measure ``workload`` in ``processes`` fresh processes; pool them.

    The processes of one seed must agree exactly on the counts and
    results their workload signs (RunStats, array digests, compile
    artifacts).  A disagreement is a failed operation.
    """
    deadline = time.time() + BUDGET_S
    base = os.path.join(ROOT, ".perfbench_runs",
                        f"{workload}-{args.seed}-{os.getpid()}")
    raws = []
    try:
        for i in range(processes):
            workdir = os.path.join(base, str(i))
            env, cleared = _clean_env(workdir)
            raws.append(_child(workload, args, workdir, env,
                               args.seconds / processes, deadline))
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(base))  # only when no run is left
        except OSError:
            pass
    attempted = sum(raw["attempted"] for raw in raws)
    failed = sum(raw["failed"] for raw in raws)
    reasons = [r for raw in raws for r in raw["reasons"]]
    for raw in raws[1:]:
        attempted += 1
        if raw["signature"] != raws[0]["signature"]:
            failed += 1
            reasons.append("counts or results differ between processes "
                           "of one seed")
    return {"raws": raws, "attempted": attempted, "failed": failed,
            "reasons": reasons, "cleared": cleared,
            "draw": raws[0]["draw"]}


def metrics_of(result: dict, trace: bool) -> dict:
    table = (metrics.per_layer if trace else metrics.end_to_end)(
        result["raws"])
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in table.items()}


def report(workload: str, result: dict, metrics: dict, env: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    raws = result["raws"]
    ops = sum(len(raw["latencies"]) for raw in raws)
    print(f"== {workload}  ({len(raws)} processes, {ops} operations)")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    for key in sorted(raws[0]["extra"]):
        samples = [x for raw in raws for x in raw["extra"][key]]
        if samples:
            print(f"  ({key}: {len(samples)} operations, median "
                  f"{statistics.median(samples):.6g} s)")
    print(f"  {'fail_frac':<34} {failed / max(1, attempted):>16.6g} "
          f"ratio  ({failed}/{attempted})")
    for reason in result["reasons"]:
        print(f"  failure: {reason}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no compiler sources under {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
    env = environment(args.seed, next(iter(results.values()))["cleared"])
    out_metrics = {}
    for name, result in results.items():
        out_metrics[name] = metrics_of(result, bool(args.trace))
        report(name, result, out_metrics[name], env)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": (out_metrics[names[0]] if len(names) == 1
                    else out_metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
