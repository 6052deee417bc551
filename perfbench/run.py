"""treefab benchmark: three fabric workloads through the public CLI entry.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fold-roundtrip --seed 1 \
        --seconds 30 --trace 0

Each operation is one ``treefab`` command, called in-process through
``treefab.cli.main`` on a single thread.  Operation ``i`` of a run uses
CLI seed ``seed * 1000 + i``, so a run's inputs follow from ``--seed``.
An operation fails on a non-zero exit code (which includes an oracle
mismatch) or when its stats or ranking document differs from the bytes
recorded in ``perfbench/expected``.

Host times are reference seconds (see ``PROBE_REF_S``).  ``--trace 0``
reports the end-to-end metrics with no tracing installed.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics from ``perfbench/tracer.py``.  Human-readable lines go
first; the last line of standard output is one JSON object.  Each result
set is also written to ``perfbench/out`` with the environment it ran in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden_cycles.yaml"
WORKLOADS = HERE / "workloads"
EXPECTED = HERE / "expected"
OUT = HERE / "out"

SETUP_REPEATS = 5

# Host speed on a shared machine swings by up to ~1.8x over seconds, as
# neighbours load the physical core under this one.  Every timing is
# therefore scaled to a reference speed: a fixed piece of Python (the
# probe) runs every PROBE_PERIOD_S while the measured code runs, and each
# stretch of program time is scaled by PROBE_REF_S / (the probe's
# duration).  PROBE_REF_S is the probe's duration on an uncontended core
# of an Intel Xeon VM at 2.0 GHz, so reference seconds read close to host
# seconds there.  Set-up is short, so its probe runs more often.
PROBE_PERIOD_S = 0.1
SETUP_PROBE_PERIOD_S = 0.02
PROBE_REF_S = 2.0e-3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    docs: dict  # CLI flag -> document file name under perfbench/workloads
    extra: tuple = ()
    golden: str | None = None  # key in tests/golden_cycles.yaml

    def argv(self, seed: int) -> list[str]:
        args = [self.command]
        for flag, doc in self.docs.items():
            args += [flag, str(WORKLOADS / doc)]
        return args + list(self.extra) + ["--seed", str(seed)]


# Why each workload is here: perfbench/README.md.
WORKLOAD_LIST = [
    Workload("fold-roundtrip", "run-layer",
             {"--hw": "hw32-roundtrip.yaml", "--layer": "early-synthetic.yaml",
              "--tile": "tile-early.yaml"},
             golden="EARLY_SYNTHETIC"),
    Workload("wide-ideal", "run-layer",
             {"--hw": "hw256-ideal.yaml", "--layer": "wide-conv.yaml",
              "--tile": "tile-wide.yaml"}),
    Workload("tile-search", "search-tile",
             {"--hw": "hw32-roundtrip.yaml", "--layer": "pointwise.yaml"},
             extra=("--top-k", "5")),
]
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOAD_LIST}

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_macs_per_s": "1/s",
    "sim_waves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
_TIMED = {
    "engine.self_s": "engine",
    "mapper.dn_routes_s": "mapper.dn_routes",
    "mapper.build_mapping_s": "mapper.build_mapping",
    "reduction.plan_s": "reduction.plan",
    "fabric.dn_deliver_s": "fabric.dn_deliver",
    "fabric.ms_s": "fabric.ms",
    "fabric.rn_replay_s": "fabric.rn_replay",
    "fabric.cb_drain_s": "fabric.cb_drain",
    "memory.load_s": "memory.load",
    "memory.peek_s": "memory.peek",
    "memory.serve_reads_s": "memory.serve_reads",
    "memory.serve_writes_s": "memory.serve_writes",
    "oracle.reference_s": "oracle.reference",
    "oracle.compare_s": "oracle.compare",
    "tiler.enumerate_s": "tiler.enumerate",
    "tiler.rank_s": "tiler.rank",
    "config.parse_s": "config.parse",
    "cli.self_s": "cli",
}
_CALLS = {
    "engine.calls": "engine",
    "mapper.dn_routes_calls": "mapper.dn_routes",
    "mapper.build_mapping_calls": "mapper.build_mapping",
    "reduction.plan_calls": "reduction.plan",
    "memory.peek_calls": "memory.peek",
}
PER_LAYER = {
    **{name: "s" for name in _TIMED},
    **{name: "count" for name in _CALLS},
    "engine.sim_weight_cycles": "cycles",
    "engine.sim_input_cycles": "cycles",
    "mapper.schedule_coords": "count",
    "mapper.schedule_used_ratio": "ratio",
    "fabric.dn_payloads": "count",
    "fabric.dn_multicast_ratio": "ratio",
    "fabric.rn_ops": "count",
    "fabric.cb_grants": "count",
    "fabric.cb_conflict_ratio": "ratio",
    "memory.pb_reads": "count",
    "memory.pb_writes": "count",
    "memory.psum_write_share": "ratio",
    "tiler.candidates": "count",
    "tiler.ranked": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SimCounter:
    """Counts simulated MACs and waves at the engine's public entry.

    Installed for the whole run, traced or not: one extra Python call per
    simulated layer, which is negligible next to the layer itself.
    """

    def __init__(self, cli, engine):
        self.macs = 0
        self.waves = 0
        original = engine.simulate_layer

        def simulate_layer(*args, **kwargs):
            result = original(*args, **kwargs)
            self.macs += result.stats.ms_multiplications
            self.waves += result.stats.waves
            return result

        cli.simulate_layer = simulate_layer
        engine.simulate_layer = simulate_layer


class _Probed:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def _probe_step(obj, key):
    return obj.v + key[0]


def _probe() -> tuple[float, float]:
    """Run the probe; returns its (start, end).

    Object creation, calls, tuples and a set: the mix the simulator runs
    on, so contention slows the probe about as much as the simulator.
    """
    t0 = time.perf_counter()
    acc = 0
    seen = set()
    for i in range(6000):
        key = (i & 7, i)
        acc += _probe_step(_Probed(i), key)
        seen.add(key[0])
    return t0, time.perf_counter()


class SpeedProbe:
    """Samples host speed from SIGALRM while the measured code runs.

    The handler runs between bytecodes of the main thread, so it adds its
    own time to the code; :meth:`scale` takes it out again.  One more
    sample is taken right after, for the last stretch.  A signal that
    arrives while a probe runs (the host paused us for a whole period) is
    dropped, so samples never overlap.
    """

    def __init__(self, period: float = PROBE_PERIOD_S):
        self.period = period
        self.samples: list[tuple[float, float]] = []
        self._probing = False

    def _sample(self, _signum=None, _frame=None) -> None:
        if self._probing:
            return
        self._probing = True
        try:
            self.samples.append(_probe())
        finally:
            self._probing = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def inside(self, t0: float, t1: float) -> list[tuple[float, float]]:
        return [(a, b) for a, b in self.samples if t0 <= a < t1]

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(program seconds, reference seconds) of the interval t0..t1.

        Program seconds leave out the probes.  Reference seconds scale each
        stretch between probes by the speed of the probe that ends it.
        """
        program = reference = 0.0
        prev = t0
        for a, b in self.samples:
            stretch = min(a, t1) - prev
            program += stretch
            reference += stretch * PROBE_REF_S / (b - a)
            if a >= t1:
                break
            prev = b
        return program, reference


def setup_child() -> None:
    """Child side of :meth:`Bench.measure_setup`.

    Imports ``treefab.cli`` and parses the documents named on the command
    line (``--hw FILE ...``), and prints the reference seconds it took.
    """
    with SpeedProbe(SETUP_PROBE_PERIOD_S) as probe:
        t0 = time.perf_counter()
        from treefab import cli

        parsers = {"--hw": cli.cfg.parse_hardware_config,
                   "--layer": cli.cfg.parse_layer_config,
                   "--tile": cli.cfg.parse_tile_config}
        for flag, path in zip(sys.argv[1::2], sys.argv[2::2]):
            parsers[flag](Path(path).read_text(encoding="utf-8"))
        t1 = time.perf_counter()
    print(probe.scale(t0, t1)[1])


@dataclass
class Op:
    ok: bool
    raw_s: float  # host wall seconds, probes included
    program_s: float  # host wall seconds, probes left out
    seconds: float  # reference seconds
    macs: int
    waves: int
    probes: list
    reason: str = ""


class Bench:
    def __init__(self, workload: Workload):
        if not (SRC / "treefab" / "__init__.py").is_file():
            raise SystemExit(f"benchmark: no treefab sources under {SRC}")
        sys.path.insert(0, str(SRC))
        from treefab import cli, engine

        self.workload = workload
        self.cli = cli
        self.expected = (EXPECTED / f"{workload.name}.yaml").read_text(
            encoding="utf-8")
        if workload.golden:
            self._check_golden()
        self.counter = SimCounter(cli, engine)

    def _check_golden(self) -> None:
        import yaml

        golden = yaml.safe_load(GOLDEN.read_text(encoding="utf-8"))
        hw = yaml.safe_load(
            (WORKLOADS / self.workload.docs["--hw"]).read_text("utf-8"))
        hw.pop("version", None)
        want = golden["cycles"][self.workload.golden]
        got = yaml.safe_load(self.expected)["total_cycles"]
        if golden["hardware"] != hw or got != want:
            raise SystemExit(
                f"benchmark: {self.workload.name} expects {got} cycles on "
                f"{hw}, golden is {want} on {golden['hardware']}")

    def measure_setup(self) -> list[float]:
        """Reference seconds of SETUP_REPEATS cold starts, each in a fresh
        interpreter (the interpreter's own start-up is not counted)."""
        argv = [sys.executable, "-c", "import run; run.setup_child()"]
        for flag, doc in self.workload.docs.items():
            argv += [flag, str(WORKLOADS / doc)]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        return [
            float(subprocess.run(argv, env=env, check=True, cwd=ROOT,
                                 capture_output=True, text=True).stdout)
            for _ in range(SETUP_REPEATS)
        ]

    def run_op(self, seed: int) -> Op:
        out, err = io.StringIO(), io.StringIO()
        macs, waves = self.counter.macs, self.counter.waves
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                code = self.cli.main(self.workload.argv(seed))
                t1 = time.perf_counter()
        program_s, seconds = probe.scale(t0, t1)
        op = Op(ok=True, raw_s=t1 - t0, program_s=program_s, seconds=seconds,
                macs=self.counter.macs - macs,
                waves=self.counter.waves - waves, probes=probe.inside(t0, t1))
        if code != 0:
            op.ok, op.reason = False, f"exit {code}: {err.getvalue().strip()}"
        elif out.getvalue() != self.expected:
            op.ok, op.reason = False, "document differs from expected bytes"
        return op


def _loop(seconds: float, step) -> None:
    """Call ``step()`` at least once, and again while the next call, taking
    as long as the last one, would end within ``seconds``."""
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        step()
        t2 = time.perf_counter()
        if (t2 - t0) + (t2 - t1) > seconds:
            return


def end_to_end(bench: Bench, seed: int, seconds: float):
    setup = bench.measure_setup()
    ops: list[Op] = []
    _loop(seconds, lambda: ops.append(bench.run_op(seed * 1000 + len(ops))))
    wall = statistics.median(op.seconds for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "sim_macs_per_s": statistics.median(op.macs / op.seconds
                                            for op in ops),
        "sim_waves_per_s": statistics.median(op.waves / op.seconds
                                             for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "pass_ratio": sum(op.ok for op in ops) / len(ops),
    }
    samples = {"setup_s": setup, "op_s": [op.seconds for op in ops],
               "raw_op_s": [op.raw_s for op in ops]}
    return ops, metrics, samples, None


def per_layer(bench: Bench, seed: int, seconds: float):
    from tracer import Tracer

    tracer = Tracer()
    plain: list[Op] = []
    traced: list[Op] = []
    self_sums: list[float] = []

    def step():
        op_seed = seed * 1000 + len(plain) + len(traced)
        if len(plain) <= len(traced):
            plain.append(bench.run_op(op_seed))
            return
        tracer.install()
        try:
            op = bench.run_op(op_seed)
        finally:
            tracer.uninstall()
        traced.append(op)
        self_sums.append(tracer.close_op(op.probes,
                                         op.seconds / op.program_s))

    _loop(seconds, step)
    if not traced:
        step()  # a run always has at least one traced operation
    n = len(traced)
    self_s = tracer.self_s
    calls = tracer.calls()
    c = tracer.counts
    traced_wall = sum(op.seconds for op in traced) / n
    metrics = {name: self_s.get(span, 0.0) / n
               for name, span in _TIMED.items()}
    metrics.update({name: calls.get(span, 0) / n
                    for name, span in _CALLS.items()})
    metrics.update({
        "engine.sim_weight_cycles": tracer.weight_cycles / n,
        "engine.sim_input_cycles": tracer.input_cycles / n,
        "mapper.schedule_coords": c["coords_materialized"] / n,
        "mapper.schedule_used_ratio": _ratio(c["coords_simulated"],
                                             c["coords_materialized"]),
        "fabric.dn_payloads": c["dn_payloads"] / n,
        "fabric.dn_multicast_ratio": _ratio(c["dn_leaf_deliveries"],
                                            c["dn_payloads"]),
        "fabric.rn_ops": c["rn_ops"] / n,
        "fabric.cb_grants": c["cb_grants"] / n,
        "fabric.cb_conflict_ratio": _ratio(c["cb_conflicts"], c["cb_grants"]),
        "memory.pb_reads": c["pb_reads"] / n,
        "memory.pb_writes": c["pb_writes"] / n,
        "memory.psum_write_share": _ratio(c["pb_psum_writes"],
                                          c["pb_writes"]),
        "tiler.candidates": c["tiler_candidates"] / n,
        "tiler.ranked": c["tiler_ranked"] / n,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in plain),
    })
    # Self times partition each operation's root span, which lies inside
    # the operation's wall time; anything else is a tracer defect.
    problem = None
    for op, self_sum in zip(traced, self_sums):
        if self_sum > op.seconds:
            problem = f"self times sum to {self_sum} s > wall {op.seconds} s"
    samples = {"op_s": [op.seconds for op in plain],
               "traced_op_s": [op.seconds for op in traced],
               "self_sum_s": self_sums}
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{bench.workload.name}.npz")
    return plain + traced, metrics, samples, problem


def environment(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS_BY_NAME[args.workload]
    bench = Bench(workload)
    measure = per_layer if args.trace else end_to_end
    ops, metrics, samples, problem = measure(bench, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    failed = [op for op in ops if not op.ok]

    env = environment(args.seed)
    print(f"# {workload.name}: {len(ops)} operations, {len(failed)} failed; "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for op in failed[:3]:
        print(f"# failed: {op.reason}")
    if problem:
        print(f"# tracer check failed: {problem}")
    if not args.trace:
        raw = statistics.median(op.raw_s for op in ops)
        print(f"# raw host wall per operation, probes included: {raw} s")
        print(f"fail_ratio {len(failed) / len(ops)} ratio")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")

    result = {
        "correct": not failed and problem is None,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"workload": workload.name, "environment": env, "result": result,
         "samples": samples}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
