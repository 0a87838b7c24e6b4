"""pzeta benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The package is imported from ``src/``.

With ``--trace 0`` the run measures set-up (the median over fresh
interpreters that import pzeta and run the workload's warm-up case), then
repeats whole rounds of cases for at least S seconds and prints
``setup_s``, ``cases_per_s``, ``latency_p50_ms`` and ``peak_rss_mb``.
Every time is rescaled to a reference host speed (see ``HostSpeed``).
With ``--trace 1`` it runs a fixed number of rounds with every layer
wrapped, runs them again untraced, and prints the per-layer metrics.

Outputs are checked against ``reference.py`` in a separate process, so the
memory and time measured here are the program's alone.  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the versions, CPU count and commit.  Raw results go to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from importlib import metadata
from time import perf_counter

from spans import Tracer
from workloads import (
    CLI_WARMUP,
    THREAD_VARS,
    WORKLOADS,
    cli_property,
    library_output,
    library_property,
    result_json,
    run_cli_case,
    run_library_case,
)

os.environ.update(THREAD_VARS)  # before pzeta brings in numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ALL_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 15
#: Iterations of the calibration chunk, and the reference times of the two
#: probes: the chunk's and a bare ``python -c pass``'s medians on the 2-CPU
#: machine the README's figures come from.
CAL_ITERS = 1500
CHUNK_REF_S = 1.0e-3
START_REF_S = 0.07
#: Library cases are grouped into blocks of at least this much wall time,
#: with one probe after each block.
BLOCK_S = 0.02
TRACE_SETUP_REPEATS = 5
#: Most cases a plain run hands to the reference checker; a seeded sample
#: is drawn when a run attempts more.
CHECK_CAP = {"high-k": 60, "plane": 150, "identities": 60, "cli-oneshot": 80}
#: Per-layer metrics: name -> unit.  Layers a workload never calls read 0.
PER_LAYER = {
    "partitions.enumerated": "count",
    "partitions.self_s": "s",
    "exact.partition_zeta_exact.self_s": "s",
    "exact.bernoulli_numbers.self_s": "s",
    "numeric.riemann_zeta.calls": "count",
    "numeric.riemann_zeta.terms": "count",
    "numeric.riemann_zeta.self_s": "s",
    "numeric.partition_zeta_family.self_s": "s",
    "numeric.direct_sum_truncated.self_s": "s",
    "numeric.euler_product_eval.self_s": "s",
    "numeric.pole_order_estimate.self_s": "s",
    "numeric.est_error_violations": "count",
    "qseries.macmahon_exact_identity.self_s": "s",
    "qseries.macmahon_series.self_s": "s",
    "qseries.faa_di_bruno_check.self_s": "s",
    "qseries.restricted_genfun_coeffs.self_s": "s",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.main_s": "s",
    "cli.python_start_s": "s",
    "trace.overhead_pct": "%",
}


def _chunk() -> tuple[complex, int]:
    """Fixed interpreter work: complex and integer arithmetic in a loop."""
    z, n = 0j, 0
    for i in range(1, CAL_ITERS):
        z = z * 0.5 + complex(i, -i) / i
        n = (n * 31 + i) % 1000003
    return z, n


class HostSpeed:
    """The host's current speed, from a fixed probe timed between stretches of work.

    This machine's speed drifts by a third within seconds: a fixed loop's
    time per call moved that much between consecutive 10 s windows, in CPU
    time as in wall time, and whole runs fall in slow phases, so no run
    length averages it out.  Each stretch of program work is timed between
    two probes, and its wall time is multiplied by the probe's reference
    time over the mean of the two probe times.  At the reference speed that
    leaves the wall time as it was.

    Work in this process is probed with ``_chunk``.  Work in child
    processes is probed with a bare interpreter start: process start moves
    with the host differently from a loop, and rescaled by the chunk, set-up
    and CLI times still spread 0.09-0.12 over 6 s windows, against 0.03-0.04
    rescaled by a bare start.
    """

    def __init__(self, probe, ref_s: float):
        self.probe, self.ref_s = probe, ref_s
        probe()  # warm-up
        self.samples = array("d")
        self.last = self._sample()

    @classmethod
    def chunk(cls) -> "HostSpeed":
        return cls(_chunk, CHUNK_REF_S)

    @classmethod
    def start(cls, env: dict, root: str) -> "HostSpeed":
        return cls(lambda: _wall([sys.executable, "-c", "pass"], env, root), START_REF_S)

    def _sample(self) -> float:
        start = perf_counter()
        self.probe()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def factor(self) -> float:
        """Reference seconds per wall second since the previous call."""
        now = self._sample()
        factor = 2 * self.ref_s / (self.last + now)
        self.last = now
        return factor

    def rescale(self, wall_s: float) -> float:
        return wall_s * self.factor()


class Run:
    """Counts and timings of the cases one pass over whole rounds attempted."""

    def __init__(self, cap: int | None, rng: random.Random):
        self.cap, self.rng = cap, rng
        self.attempted = self.failed = 0
        self.problems: list[str] = []  # failures no fault explains, failed properties
        self.records: list[dict] = []  # cases kept for the reference checker
        self.elapsed = 0.0  # wall seconds, probes and bookkeeping included
        self.round_s: list[float] = []
        self.case_s = array("d")  # wall seconds, every attempted case in order
        self.host_s = array("d")  # the same, rescaled to the reference speed
        self.completed: list[bool] = []

    @property
    def latencies(self) -> list[float]:
        """Reference-speed seconds of the completed cases."""
        return [h for h, ok in zip(self.host_s, self.completed) if ok]

    def rescale(self, factor: float) -> None:
        """Rescale the cases timed since the previous call."""
        for i in range(len(self.host_s), len(self.case_s)):
            self.host_s.append(self.case_s[i] * factor)

    def add(self, case: dict, status: str, output, seconds: float, prop_ok: bool) -> None:
        self.attempted += 1
        self.case_s.append(seconds)
        self.completed.append(status == "ok")
        if status == "ok":
            if not prop_ok:
                self.problems.append(f"property failed: {json.dumps(case)}")
        else:
            self.failed += 1
            if not (case.get("fault") and status == "PrecisionLoss"):
                self.problems.append(f"{status}: {json.dumps(case)}")
        record = {"case": case, "status": status, "output": output}
        # Reservoir sampling keeps a seeded, uniform sample of at most cap cases.
        if self.cap is None or len(self.records) < self.cap:
            self.records.append(record)
        else:
            slot = self.rng.randrange(self.attempted)
            if slot < self.cap:
                self.records[slot] = record


def pin() -> None:
    """Run this process, and the children it times, on one CPU.

    The host-speed probes then measure the CPU the timed work runs on;
    unpinned, rescaled set-up times spread twice as far."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(ALL_CPUS)})


def unpin() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, ALL_CPUS)


def child_env(root: str) -> dict:
    env = dict(os.environ, **THREAD_VARS)
    # Children cache bytecode, as an installed package has it: the first
    # set-up child writes src/pzeta/__pycache__ and the rest read it.  With
    # PYTHONDONTWRITEBYTECODE inherited, every child compiled pzeta afresh
    # and cli-oneshot ran 5% slower in a fresh checkout than in a used one.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wall(cmd: list[str], env: dict, cwd: str) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:4]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed, proc


def setup_command(workload: str, importtime: bool = False) -> list[str]:
    flags = ["-X", "importtime"] if importtime else []
    warmup = WORKLOADS[workload][1]
    if warmup is None:
        return [sys.executable, *flags, "-m", "pzeta", *CLI_WARMUP]
    return [sys.executable, *flags, "-c", "import pzeta\n" + warmup]


def import_times(stderr: str) -> tuple[float, float]:
    """(pzeta, numpy) cumulative import seconds from ``-X importtime`` output."""
    pz = np_ = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        seconds = int(cumulative) / 1e6
        if name.startswith(" pzeta") and not name.startswith("  "):
            pz += seconds
        elif name.strip() == "numpy":
            np_ = seconds
    return pz, np_


def run_rounds(workload: str, seed: int, execute, speed: HostSpeed, *,
               seconds=None, rounds=None, cap=None) -> Run:
    """Attempt whole rounds until ``seconds`` have passed or ``rounds`` are done."""
    make_round = WORKLOADS[workload][0]
    run = Run(cap, random.Random(f"sample:{workload}:{seed}"))
    start = perf_counter()
    r = 0
    while True:
        round_start = perf_counter()
        block = 0.0
        for case in make_round(seed, r):
            status, output, prop_ok, dt = execute(case)
            run.add(case, status, output, dt, prop_ok)
            block += dt
            if block >= BLOCK_S:
                run.rescale(speed.factor())
                block = 0.0
        if block:
            run.rescale(speed.factor())
        r += 1
        run.round_s.append(perf_counter() - round_start)
        run.elapsed = perf_counter() - start
        if (rounds is not None and r >= rounds) or (seconds is not None and run.elapsed >= seconds):
            return run


def library_executor(pz):
    def execute(case: dict):
        start = perf_counter()
        try:
            raw = run_library_case(pz, case)
        except Exception as exc:  # a refused or failed case is counted, not fatal
            dt = perf_counter() - start
            partial = getattr(exc, "partial", None)
            output = result_json(partial) if partial is not None else None
            return type(exc).__name__, output, False, dt
        dt = perf_counter() - start
        output = library_output(case, raw)
        return "ok", output, library_property(case, output), dt

    return execute


def cli_executor(env: dict, root: str, prefix=None, sink=None):
    def execute(case: dict):
        start = perf_counter()
        if prefix is None:
            out = run_cli_case(case["argv"], env, root)
        else:
            path = os.path.join(OUT_DIR, f"child-{os.getpid()}.json")
            out = run_cli_case(case["argv"], env, root, prefix=[*prefix, path])
            with open(path) as fh:
                sink.append((json.load(fh), import_times(out["stderr"])))
            os.remove(path)
        dt = perf_counter() - start
        del out["stderr"]
        status = "ok" if out["code"] == 0 else f"exit{out['code']}"
        return status, out, cli_property(case, out), dt

    return execute


def check_references(records: list[dict], tag: str) -> list[dict]:
    """Verdicts from reference.py, run as two processes after all timing."""
    unpin()
    halves = [records[0::2], records[1::2]]
    procs = []
    for i, half in enumerate(halves):
        cases_path = os.path.join(OUT_DIR, f"{tag}-cases{i}.json")
        with open(cases_path, "w") as fh:
            json.dump(half, fh)
        verdict_path = os.path.join(OUT_DIR, f"{tag}-verdicts{i}.json")
        cmd = [sys.executable, os.path.join(HERE, "reference.py"), "check", cases_path, verdict_path]
        procs.append((subprocess.Popen(cmd, env=dict(os.environ, **THREAD_VARS)), verdict_path))
    verdicts: list[list[dict]] = []
    try:
        for proc, path in procs:
            if proc.wait(timeout=150) != 0:
                raise RuntimeError(f"reference checker exited {proc.returncode}")
            with open(path) as fh:
                verdicts.append(json.load(fh))
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    merged = [None] * len(records)
    merged[0::2], merged[1::2] = verdicts
    return merged


def judge(run: Run, verdicts: list[dict]) -> tuple[bool, dict]:
    """Whether every completed case passed its checks, and a summary."""
    wrong = [r["case"] for r, v in zip(run.records, verdicts) if r["status"] == "ok" and not v["ok"]]
    partial = [v["partial_rel_err"] for v in verdicts if "partial_rel_err" in v]
    summary = {
        "checked": sum(1 for r in run.records if r["status"] == "ok"),
        "wrong": wrong[:20],
        "problems": run.problems[:20],
        "est_error_violations": sum(v.get("violations", 0) for v in verdicts),
        "max_err": max((v["err"] for v in verdicts if "err" in v), default=None),
        "refused_partial_max_rel_err": max(partial, default=None),
    }
    return not wrong and not run.problems, summary


def meta(root: str) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "pzeta")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16], "platform": platform.platform()}


def import_package(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import pzeta

    return pzeta


def plain(workload: str, seed: int, seconds: int, root: str, env: dict) -> tuple[dict, dict]:
    starts = HostSpeed.start(env, root)
    setups = [starts.rescale(_wall(setup_command(workload), env, root)[0]) for _ in range(SETUP_REPEATS)]
    if workload == "cli-oneshot":
        execute, speed = cli_executor(env, root), starts
    else:
        pz = import_package(root)
        exec(WORKLOADS[workload][1], {"pzeta": pz})  # the warm-up, untimed here
        execute, speed = library_executor(pz), HostSpeed.chunk()
    run = run_rounds(workload, seed, execute, speed, seconds=seconds, cap=CHECK_CAP[workload])
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB
    correct, summary = judge(run, check_references(run.records, f"{workload}-{seed}"))
    latencies = run.latencies
    metrics = {
        "setup_s": statistics.median(setups),
        "cases_per_s": len(latencies) / sum(run.host_s),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"setup_s": "s", "cases_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
    wall_ok = [w for w, ok in zip(run.case_s, run.completed) if ok]
    raw = {"setups_s": setups, "start_probe_s": list(starts.samples), "probe_s": list(speed.samples),
           "round_s": run.round_s, "case_s": list(run.case_s),
           "host_s": list(run.host_s), "check": summary,
           "wall": {"cases_per_s": len(wall_ok) / sum(run.case_s),
                    "latency_p50_ms": statistics.median(wall_ok) * 1e3}}
    return _result(correct, run, {k: (v, units[k]) for k, v in metrics.items()}), raw


def traced(workload: str, seed: int, root: str, env: dict) -> tuple[dict, dict]:
    rounds = WORKLOADS[workload][2]
    starts = [_wall([sys.executable, "-c", "pass"], env, root)[0] for _ in range(TRACE_SETUP_REPEATS)]
    layers: dict[str, float] = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER.items()}
    spans = []
    if workload == "cli-oneshot":
        children = []
        prefix = [sys.executable, "-X", "importtime", os.path.join(HERE, "child.py")]
        speed = HostSpeed.start(env, root)
        run = run_rounds(workload, seed, cli_executor(env, root, prefix, children), speed, rounds=rounds)
        again = run_rounds(workload, seed, cli_executor(env, root), speed, rounds=rounds)
        for child, _ in children:
            for name, value in child["layers"].items():
                if name in layers:
                    layers[name] += value
        imports = [times for _, times in children]
        layers["cli.main_s"] = statistics.median(child["main_s"] for child, _ in children)
    else:
        imports = [import_times(_wall(setup_command(workload, importtime=True), env, root)[1].stderr)
                   for _ in range(TRACE_SETUP_REPEATS)]
        pz = import_package(root)
        exec(WORKLOADS[workload][1], {"pzeta": pz})
        speed = HostSpeed.chunk()
        with Tracer() as tracer:
            run = run_rounds(workload, seed, library_executor(pz), speed, rounds=rounds)
        again = run_rounds(workload, seed, library_executor(pz), speed, rounds=rounds)
        for name, value in tracer.summary().items():
            if name in layers:
                layers[name] = value
        spans = tracer.spans
    layers["cli.python_start_s"] = statistics.median(starts)
    layers["cli.import_s"] = statistics.median(pz_s for pz_s, _ in imports)
    layers["cli.numpy_import_s"] = statistics.median(np_s for _, np_s in imports)
    layers["trace.overhead_pct"] = (sum(run.host_s) / sum(again.host_s) - 1) * 100
    correct, summary = judge(run, check_references(run.records, f"{workload}-{seed}-trace"))
    layers["numeric.est_error_violations"] = summary["est_error_violations"]
    identical = [a["output"] for a in run.records] == [b["output"] for b in again.records]
    if not identical:
        summary["problems"].append("traced and untraced outputs differ")
        correct = False
    raw = {"check": summary, "bit_identical": identical, "traced_elapsed_s": run.elapsed,
           "untraced_elapsed_s": again.elapsed, "spans": len(spans)}
    if spans:
        with open(os.path.join(OUT_DIR, f"{workload}-{seed}-spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return _result(correct, run, {k: (layers[k], u) for k, u in PER_LAYER.items()}), raw


def _result(correct: bool, run: Run, metrics: dict) -> dict:
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pzeta", "__init__.py")):
        print(f"bench: no package at {os.path.join(root, 'src', 'pzeta')}; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env(root)
    info = meta(root)
    pin()
    if args.trace:
        result, raw = traced(args.workload, args.seed, root, env)
    else:
        result, raw = plain(args.workload, args.seed, args.seconds, root, env)
    raw.update(meta=info, args=vars(args), result=result)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(raw, fh, indent=1)
    if raw["check"]["wrong"] or raw["check"]["problems"]:
        print(json.dumps({"wrong": raw["check"]["wrong"], "problems": raw["check"]["problems"]}),
              file=sys.stderr)
    print(json.dumps({"meta": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
