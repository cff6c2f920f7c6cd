"""The simulator workloads, ``sim-fig8`` and ``sim-txn``.

Both run a whole fixed-seed experiment per iteration through the program's
public entry point and time it from outside.  The simulator is a batch job,
so the end-to-end rate is operations completed per host second at a fixed
input size; set-up calls are timed by wrappers and excluded from it.
Each run starts with one untimed experiment, whose outputs are still
checked: the first experiment in a process is slower than the later ones.

- ``sim-fig8``: one Figure-8 point, ``run_rpc_experiment(RpcExperiment(
  system="scalerpc", n_clients=40, seed=seed))``.  An op is one call to
  ``ScaleRpcClient.async_call`` (warm-up and drain included).  Set-up is
  ``Topology.build``, ``build_server`` and ``Topology.connect_clients``.
- ``sim-txn``: SmallBank on ScaleTX, ``run_smallbank(SmallBankConfig(
  cluster=TxnClusterConfig(seed=seed), measure_ns=1_000_000))``.  An op is
  one call to ``TxnCoordinator.run`` (a transaction attempt).  Set-up is
  ``build_txn_cluster`` (which includes ``Topology.build``) and
  ``populate_smallbank``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import statistics
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.bench import RpcExperiment, harness, run_rpc_experiment
from repro.core.client import ScaleRpcClient
from repro.transport import Topology
from repro.txn import SmallBankConfig, TxnClusterConfig, run_smallbank, smallbank
from repro.txn.coordinator import TxnCoordinator

from .ledger import (
    REFERENCE_NS,
    SIM_GROUPS,
    Ledger,
    Probe,
    SetupDone,
    call_count,
    delta,
    peak_rss_mb,
    self_time_by_group,
    shares,
    sim_group,
)

#: Per-layer count metric -> the plain function whose calls it counts.
SIM_COUNTS = {
    "sim.events_per_op": "repro.sim.engine:Event._deliver",
    "sim.resumes_per_op": "repro.sim.engine:Process._resume",
    "sim.spawns_per_op": "repro.sim.engine:Simulator.process",
    "sim.timeouts_per_op": "repro.sim.engine:Simulator.timeout",
    "rdma.writes_per_op": "repro.rdma.verbs:post_write",
    "rdma.reads_per_op": "repro.rdma.verbs:post_read",
    "rdma.sends_per_op": "repro.rdma.verbs:post_send",
    "memsys.dma_writes_per_op": "repro.memsys.llc:LastLevelCache.dma_write",
    "memsys.cpu_accesses_per_op": "repro.memsys.llc:LastLevelCache.cpu_access",
}


#: Ops per window for the windowed rates (about 0.2 s of host time each),
#: and RPC completions per window for the windowed RTT percentiles (so at
#: least 50 samples lie beyond each window's p99).
OPS_WINDOW = {"sim-fig8": 1000, "sim-txn": 200}
RTT_WINDOW = 5000
#: Timed set-up passes per untraced run.
SETUP_PASSES = {"sim-fig8": 20, "sim-txn": 6}


def fig8_reference(root: Path) -> dict:
    """The Figure-8 point's simulated results at seed 1, as recorded in the
    repository's BENCH_quick.json (``runs.after.fig8_point.simulated``)."""
    quick = json.loads((root / "BENCH_quick.json").read_text())
    return quick["runs"]["after"]["fig8_point"]["simulated"]


@dataclass
class Iteration:
    """One experiment, as seen from outside."""

    ops: int                 #: calls into the client API
    failed: int              #: ops unanswered or failing a check
    total_wall_s: float      #: host seconds, set-up included (calibration not)
    setup: dict              #: set-up call -> host seconds
    setup_s: float           #: host seconds from the call to the first op
    rates: list              #: ops per reference second, per window of ops
    cpu_us: list             #: CPU reference-us per op, per window of ops
    rtt_p50: list            #: RTT p50 (reference ns), per window of completions
    rtt_p99: list            #: RTT p99 (reference ns), per window of completions
    rtt_samples: int
    calibration: list        #: calibration samples (host ns)
    outcome: dict            #: simulated results, compared across iterations
    layer: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def measured_s(self) -> float:
        """Host seconds after set-up."""
        return self.total_wall_s - self.setup_s


class _SimWorkload:
    """What differs between the two sim workloads: entry point, wrappers
    and how an experiment's result is read."""

    #: The ledger key counting this workload's ops: "rpc" when an op is
    #: one RPC, "txn" when it is one transaction.
    op_key = "rpc"

    def __init__(self, root: Path):
        self.root = root  #: the checkout, for the recorded reference results

    def install(self, ledger: Ledger, probe: Probe) -> None:
        # Every RPC posted through the ScaleRPC client API is counted, and
        # its host-time round trip is taken from the post call to the
        # delivery of its completion event (a callback that only reads
        # the clock, so the simulated schedule is unchanged).
        calls = ledger.calls
        stamp = probe.op if self.op_key == "rpc" else None

        def make(func):
            def async_call(self, *args, **kwargs):
                calls["rpc"] += 1
                if stamp is not None:
                    stamp()
                posted = probe.clock()
                handle = yield from func(self, *args, **kwargs)
                handle.event.add_callback(lambda _event: probe.completed(posted))
                return handle
            return async_call

        ledger.wrap(ScaleRpcClient, "async_call", make)
        ledger.time(Topology, "build", "topology")


class Fig8(_SimWorkload):
    def install(self, ledger, probe):
        super().install(ledger, probe)
        ledger.time(harness, "build_server", "server")
        ledger.time(Topology, "connect_clients", "connect")

    def call(self, seed: int):
        return run_rpc_experiment(RpcExperiment(system="scalerpc", n_clients=40, seed=seed))

    def setup_parts(self, wall: dict) -> dict:
        return {
            "topology": wall.get("topology", 0.0),
            "server": wall.get("server", 0.0) + wall.get("connect", 0.0),
            "populate": 0.0,
        }

    def read(self, result, ledger, calls, completions, seed):
        posted = calls.get("rpc", 0)
        clients = ledger.last.get("connect") or []
        completed = sum(client.completed for client in clients)
        simulated = {
            "completed_ops": result.completed_ops,
            "counters": asdict(result.counters),
            "latency": asdict(result.latency),
            "throughput_mops": result.throughput_mops,
            "window_ns": result.window_ns,
        }
        problems = []
        if not (posted == completed == completions):
            problems.append(f"{posted} RPCs posted, {completed} completed, "
                            f"{completions} completion events")
        if result.completed_ops < 1 or result.latency.count != result.completed_ops:
            problems.append(f"latency count {result.latency.count} != "
                            f"completed_ops {result.completed_ops}")
        if seed == 1 and simulated != fig8_reference(self.root):
            problems.append("seed-1 simulated block differs from BENCH_quick.json")
        return posted, max(0, posted - completed), simulated, {
            "memsys.l3_miss_rate": result.counters.l3_miss_rate,
        }, problems


class SmallBank(_SimWorkload):
    op_key = "txn"

    def install(self, ledger, probe):
        super().install(ledger, probe)
        ledger.time(smallbank, "build_txn_cluster", "cluster")
        ledger.time(smallbank, "populate_smallbank", "populate")
        calls = ledger.calls

        def make(func):
            def run(*args, **kwargs):
                calls["txn"] += 1
                probe.op()
                return func(*args, **kwargs)
            return run

        ledger.wrap(TxnCoordinator, "run", make)

    def call(self, seed: int):
        return run_smallbank(SmallBankConfig(
            cluster=TxnClusterConfig(seed=seed), measure_ns=1_000_000,
        ))

    def setup_parts(self, wall: dict) -> dict:
        topology = wall.get("topology", 0.0)
        return {
            "topology": topology,
            "server": wall.get("cluster", 0.0) - topology,
            "populate": wall.get("populate", 0.0),
        }

    def read(self, result, ledger, calls, completions, seed):
        attempts = calls.get("txn", 0)
        cluster = ledger.last["cluster"]
        llcs = [participant.node.llc.stats for participant in cluster.participants]
        accesses = sum(stats.cpu_accesses for stats in llcs)
        problems = []
        if result.committed < 1 or attempts < result.committed + result.aborted:
            problems.append(f"{attempts} attempts for {result.committed} commits "
                            f"and {result.aborted} aborts in the window")
        return attempts, 0, {"committed": result.committed, "aborted": result.aborted}, {
            "memsys.l3_miss_rate": sum(s.cpu_misses for s in llcs) / max(1, accesses),
            "txn.commit_ratio": cluster.committed / max(1, attempts),
            "txn.rpcs_per_txn": calls.get("rpc", 0) / max(1, attempts),
        }, problems


WORKLOADS = {"sim-fig8": Fig8, "sim-txn": SmallBank}


def _setup_pass(workload, seed: int, ledger: Ledger, probe: Probe) -> float:
    """Reference seconds of set-up alone: the experiment is abandoned at
    its first op, and its host time is scaled by the calibrations taken
    just before and after it."""
    gc.collect()
    probe.clear()
    probe.calibrate()
    start = probe.clock()
    probe.setup_only = True
    try:
        workload.call(seed)
        raise RuntimeError("the experiment made no call into the client API")
    except SetupDone:
        return probe.setup_s(start) * REFERENCE_NS / statistics.median(probe.cal)
    finally:
        probe.setup_only = False
        ledger.last.clear()
        probe.clear()


def _iterate(name, workload, seed, ledger, probe, profile=None) -> Iteration:
    # Each experiment starts from a collected heap, so the garbage of the
    # previous one neither costs it collection time nor adds to peak RSS.
    gc.collect()
    probe.clear()
    probe.calibrate()
    calls0, wall0 = ledger.snapshot()
    start_clock = probe.clock()
    if profile is not None:
        profile.enable()
    try:
        result = workload.call(seed)
    finally:
        if profile is not None:
            profile.disable()
    total_wall = (probe.clock() - start_clock) / 1e9
    calls1, wall1 = ledger.snapshot()
    setup = workload.setup_parts(delta(wall1, wall0))
    ops, failed, outcome, layer, problems = workload.read(
        result, ledger, delta(calls1, calls0), len(probe.rtt), seed,
    )
    ledger.last.clear()
    rates, cpu_us = probe.op_windows()
    rtt_p50, rtt_p99 = probe.rtt_windows(RTT_WINDOW)
    iteration = Iteration(
        ops=ops, failed=failed, total_wall_s=total_wall, setup=setup, setup_s=probe.setup_s(start_clock),
        rates=rates, cpu_us=cpu_us, rtt_p50=rtt_p50, rtt_p99=rtt_p99,
        rtt_samples=len(probe.rtt), calibration=probe.cal,
        outcome=outcome, layer=layer, problems=problems,
    )
    probe.clear()
    return iteration


def _end_to_end(iterations: list, setups: list) -> dict:
    """Medians over every window of every timed iteration of the run, and
    over the set-up passes."""
    def pooled(attr):
        return statistics.median(v for it in iterations for v in getattr(it, attr))

    return {
        "ops_per_s": pooled("rates"),
        "setup_s": statistics.median(setups),
        "cpu_us_per_op": pooled("cpu_us"),
        "rtt_p50_us": pooled("rtt_p50") / 1e3,
        "rtt_p99_us": pooled("rtt_p99") / 1e3,
    }


def _per_layer(stats: dict, traced: Iteration, reference: Iteration, factor: float) -> dict:
    ops = traced.ops
    layer = {f"{group}.self_share": share for group, share in
             shares(self_time_by_group(stats, sim_group), SIM_GROUPS + ("other",)).items()}
    for name, path in SIM_COUNTS.items():
        layer[name] = call_count(stats, path) / ops
    layer.update(traced.layer)
    for part, seconds in reference.setup.items():
        layer[f"setup.{part}_s"] = seconds * factor
    layer["bench.ops_traced"] = ops
    layer["bench.trace_overhead_x"] = traced.total_wall_s / reference.total_wall_s
    return layer


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run workload ``name``; see :func:`perfbench.run.main` for the shape."""
    workload = WORKLOADS[name](root)
    probe = Probe(OPS_WINDOW[name])
    with Ledger() as ledger:
        workload.install(ledger, probe)
        try:
            return _run(name, workload, seed, seconds, trace, ledger, probe)
        except Exception as exc:  # the program failed: that is the run's result
            ops = max(1, ledger.calls[workload.op_key])
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return {
                "attempted": ops, "failed": ops,
                "problems": [f"the program raised {type(exc).__name__}: {exc} "
                             f"({where.filename}:{where.lineno})"],
                "end_to_end": {}, "per_layer": {}, "notes": {},
            }


def _run(name, workload, seed, seconds, trace, ledger, probe) -> dict:
    # The first experiment in a process is slower than the later ones
    # (heap growth, specialisation of the hot bytecode): it is run
    # untimed, and only its outputs are checked.
    warmup = _iterate(name, workload, seed, ledger, probe)
    # What one experiment costs in memory; later ones in the same process
    # only add allocator fragmentation.
    peak_rss = peak_rss_mb()
    if not trace:
        setups = [_setup_pass(workload, seed, ledger, probe)
                  for _ in range(SETUP_PASSES[name])]
        # Whole experiments until about `seconds` of measured (set-up
        # excluded) host time: another one starts only if it is
        # expected to end less than half an experiment past the mark.
        iterations = [_iterate(name, workload, seed, ledger, probe)]
        measured = iterations[0].measured_s
        while measured + measured / len(iterations) / 2 < seconds:
            iterations.append(_iterate(name, workload, seed, ledger, probe))
            measured += iterations[-1].measured_s
        traced = profile = None
    else:
        # One untraced reference experiment, then the same experiment
        # under cProfile: per-layer counts come from whole experiments,
        # so two traced runs at one seed give identical counts.
        setups = []
        iterations = [_iterate(name, workload, seed, ledger, probe)]
        profile = cProfile.Profile()
        traced = _iterate(name, workload, seed, ledger, probe, profile)
    everything = [warmup] + iterations + ([traced] if traced else [])
    calibration = [c for it in iterations for c in it.calibration]
    factor = REFERENCE_NS / statistics.median(calibration)
    first = warmup.outcome
    for index, it in enumerate(everything[1:], start=1):
        if it.outcome != first:
            it.problems.append(f"experiment {index} simulated {it.outcome}, "
                               f"experiment 0 {first}")
    report = {
        "attempted": sum(it.ops for it in everything),
        "failed": sum(it.ops if it.problems else it.failed for it in everything),
        "problems": [p for it in everything for p in it.problems],
        "end_to_end": {**_end_to_end(iterations, setups), "peak_rss_mb": peak_rss}
        if setups else {},
        "notes": {
            "iterations": len(iterations),
            "warmup_wall_s": warmup.total_wall_s,
            "ops_per_iteration": iterations[0].ops,
            "rtt_samples_per_iteration": iterations[0].rtt_samples,
            "windows": sum(len(it.rates) for it in iterations),
            "calibration_ms": statistics.median(calibration) / 1e6,
            "reference_calibration_ms": REFERENCE_NS / 1e6,
            "outcome": first,
            "setup_samples": len(setups),
        },
    }
    if traced is not None:
        report["per_layer"] = _per_layer(
            pstats.Stats(profile).stats, traced, iterations[0], factor)
        report["notes"]["traced_wall_s"] = traced.total_wall_s
        report["notes"]["untraced_wall_s"] = iterations[0].total_wall_s
    return report
