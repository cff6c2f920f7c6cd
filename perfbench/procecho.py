"""The ``proc-echo`` workload: the real-process backend over host loopback.

The program's only child process is the stock server, ``python -m
repro.net.worker server --no-obs``.  This process drives two
:class:`ProcRpcClient` connections, each with one 32-byte echo outstanding
(closed loop).  Every request carries a payload unique to the run (seed,
client, sequence number) and every response must echo it back.

The host is shared, and how fast it runs this traffic drifts by tens of
percent over minutes, mostly in the kernel and in the CPU the server runs
on.  So the benchmark measures the same kind of work done without the
program next to it, with a *pinger*: a standard-library asyncio echo
server (:data:`PINGER`) pinned to the server's CPU.

- Traffic runs in windows of :data:`WINDOW_S`; before and after each, this
  process makes :data:`PINGS` 32-byte round trips to the pinger.  Each
  window's rate and round trips are scaled to reference time by
  :data:`REFERENCE_PING_NS` over the median ping round trip next to it,
  and CPU per op by :data:`REFERENCE_PING_CPU_NS` over the CPU time (both
  processes) per ping.
- Set-up is timed from spawning the server to both clients being
  connected.  Each set-up is paired with a pinger spawn, timed to its
  ready line; the median set-up is scaled by :data:`REFERENCE_SPAWN_S`
  over the median pinger spawn.  The servers of all but the last set-up
  carry no traffic, and their CPU time is the idle baseline subtracted
  from the serving server's CPU time.

The first second of traffic is a warm-up outside the timed windows.
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import os
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

from repro.core.message import (
    RpcRequest,
    RpcResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.net.procserver import ProcRpcClient
from repro.net.transport import StreamClientTransport
from repro.transport import Endpoint

from .ledger import (
    SIM_GROUPS,
    Ledger,
    peak_rss_mb,
    percentile,
    self_time_by_group,
    shares,
    sim_group,
)

N_CLIENTS = 2
DATA_BYTES = 32
WARMUP_S = 1.0
#: Host seconds of traffic per window, and ping round trips between windows.
WINDOW_S = 0.1
PINGS = 40
#: Round trips per window of the round-trip percentiles (50 lie beyond each p99).
RTT_WINDOW = 5000
#: Set-ups per run; the last one's server serves the timed traffic.
SETUPS = 12
#: Bound on any single wait for a child process (start, stop).
CHILD_TIMEOUT_S = 60.0

#: Reference time is host time on a machine where a ping round trip takes
#: REFERENCE_PING_NS, costs REFERENCE_PING_CPU_NS of CPU time in the two
#: processes together, and a pinger takes REFERENCE_SPAWN_S to start.
REFERENCE_PING_NS = 100_000
REFERENCE_PING_CPU_NS = 100_000
REFERENCE_SPAWN_S = 0.1

#: The pinger: a standard-library asyncio echo server of 32-byte messages.
#: A message starting with ``c`` is answered with the pinger's CPU time in
#: nanoseconds.  It prints a ready line like the server's and ends at the
#: first line on its standard input.
PINGER = """
import asyncio, json, sys, time

async def serve(reader, writer):
    try:
        while True:
            data = await reader.readexactly(32)
            if data[:1] == b"c":
                data = b"%031d\\n" % time.process_time_ns()
            writer.write(data)
    except (asyncio.IncompleteReadError, ConnectionError):
        writer.close()

async def main():
    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(json.dumps({"ready": {"host": host, "port": port}}), flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    server.close()

asyncio.run(main())
"""


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def net_group(filename: str) -> str:
    """The proc-backend split: event loop, wire codec, framing, other."""
    path = filename.replace("\\", "/")
    if "/asyncio/" in path or path.endswith(("/selectors.py", "/socket.py")):
        return "loop"
    if path.endswith("/repro/core/message.py") or "/json/" in path:
        return "codec"
    if path.endswith(("/repro/net/framing.py", "/repro/net/transport.py")):
        return "framing"
    return "other"


class ChildProcess:
    """One child: spawn, wait for its ready line, stop, reap.  With ``cpu``
    set, the child runs pinned to that CPU from its start."""

    def __init__(self, root: Path, args: list, cpu: int | None = None):
        self.root = root
        self.args = args
        self.cpu = cpu
        self.proc = None

    @classmethod
    def server(cls, root: Path, cpu: int | None, profile_out: Path | None = None):
        prefix = ["-m", "cProfile", "-o", str(profile_out)] if profile_out else []
        return cls(root, [*prefix, "-m", "repro.net.worker", "server", "--no-obs"], cpu)

    @classmethod
    def pinger(cls, root: Path, cpu: int | None):
        return cls(root, ["-c", PINGER], cpu)

    async def start(self) -> Endpoint:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        home = os.sched_getaffinity(0)
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})  # the child inherits it
        try:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, *self.args,
                cwd=self.root, env=env, stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.DEVNULL,
            )
        finally:
            os.sched_setaffinity(0, home)
        line = await asyncio.wait_for(self.proc.stdout.readline(), CHILD_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"child {self.args[-1]!r} exited before it was ready")
        ready = json.loads(line)["ready"]
        return Endpoint(ready["host"], ready["port"])

    async def stop(self) -> tuple[dict, float]:
        """Ask the child to stop; returns its last result line (``{}`` if
        none) and the CPU seconds its whole life took."""
        before = _cpu_s(resource.RUSAGE_CHILDREN)
        self.proc.stdin.write(b"stop\n")
        await self.proc.stdin.drain()
        out = await asyncio.wait_for(self.proc.stdout.read(), CHILD_TIMEOUT_S)
        await asyncio.wait_for(self.proc.wait(), CHILD_TIMEOUT_S)
        cpu = _cpu_s(resource.RUSAGE_CHILDREN) - before
        if self.proc.returncode != 0:
            raise RuntimeError(f"child {self.args[-1]!r} ended with code {self.proc.returncode}")
        results = [json.loads(line)["result"] for line in out.splitlines()
                   if line.startswith(b'{"result"')]
        return (results[-1] if results else {}), cpu

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


async def _connect(endpoint: Endpoint) -> list:
    clients = [ProcRpcClient(endpoint, client_id=i + 1) for i in range(N_CLIENTS)]
    for client in clients:
        await client.connect()
    return clients


async def _close(clients: list) -> None:
    for client in clients:
        await client.close()


class Meter:
    """The pinger connection and the windows of one timed phase.

    ``ping()`` makes :data:`PINGS` round trips and keeps their median and
    this process's CPU time for them; ``window(...)`` keeps one window's
    ops, host time, this process's CPU time and round trips.  Reference
    time is computed once the phase is over, from the pings on either side
    of each window.
    """

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.pings: list = []          # median round trip per burst, ns
        self.ping_cpu_ns = 0           # this process's CPU in bursts
        self.windows: list = []        # (ops, wall ns, cpu ns, [rtt ns])
        self.pinger_cpu0 = None

    @classmethod
    async def open(cls, endpoint: Endpoint) -> "Meter":
        meter = cls(*await asyncio.open_connection(endpoint.host, endpoint.port))
        meter.pinger_cpu0 = await meter.pinger_cpu()
        return meter

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()

    async def pinger_cpu(self) -> int:
        self.writer.write(b"c" * 32)
        return int(await self.reader.readexactly(32))

    async def ping(self) -> None:
        rtts = []
        cpu0 = time.process_time_ns()
        for _ in range(PINGS):
            start = time.perf_counter_ns()
            self.writer.write(b"p" * 32)
            await self.reader.readexactly(32)
            rtts.append(time.perf_counter_ns() - start)
        self.ping_cpu_ns += time.process_time_ns() - cpu0
        self.pings.append(statistics.median(rtts))

    def window(self, ops: int, wall_ns: int, cpu_ns: int, rtts: list) -> None:
        self.windows.append((ops, wall_ns, cpu_ns, rtts))

    async def cpu_factor(self) -> tuple[float, float]:
        """Reference CPU time per host CPU time, and the CPU nanoseconds
        (both processes) per ping round trip it comes from."""
        pinger_ns = await self.pinger_cpu() - self.pinger_cpu0
        per_ping = (self.ping_cpu_ns + pinger_ns) / (PINGS * len(self.pings))
        return REFERENCE_PING_CPU_NS / per_ping, per_ping

    def time_factors(self) -> list:
        """Reference time per host time for each window: from the
        geometric mean of the ping medians before and after it."""
        return [REFERENCE_PING_NS / (before * after) ** 0.5
                for before, after in zip(self.pings, self.pings[1:])]


class Traffic:
    """Closed-loop echo traffic and its checks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.sent = 0
        self.bad = 0
        self._seq = {}

    async def window(self, clients: list, seconds: float, rtts: list | None = None) -> int:
        """Each client posts one echo, waits for it, and repeats, until
        ``seconds`` of host time have passed; returns the RPC count.
        With ``rtts``, every round trip is appended to it (ns)."""
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        counts = []

        async def loop(client):
            seq = self._seq.get(client.client_id, 0)
            done = 0
            while clock() < deadline:
                payload = f"{self.seed:08x}{client.client_id:02x}{seq:022x}"
                posted = clock()
                handle = await client.async_call("echo", payload=payload, data_bytes=DATA_BYTES)
                await client.flush()
                (response,) = await client.poll_completions([handle])
                if rtts is not None:
                    rtts.append(clock() - posted)
                if response.payload != payload or response.failed:
                    self.bad += 1
                seq += 1
                done += 1
            self._seq[client.client_id] = seq
            counts.append(done)

        await asyncio.gather(*(loop(client) for client in clients))
        self.sent += sum(counts)
        return sum(counts)

    async def timed(self, clients: list, seconds: float, meter: Meter,
                    profile: cProfile.Profile | None = None) -> None:
        """Windows of traffic between ping bursts, until ``seconds`` of
        host time (pings included) have passed.  ``profile`` is enabled
        during the windows only."""
        deadline = time.perf_counter() + seconds
        await meter.ping()
        while time.perf_counter() < deadline:
            rtts = []
            wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
            if profile is not None:
                profile.enable()
            try:
                ops = await self.window(clients, WINDOW_S, rtts)
            finally:
                if profile is not None:
                    profile.disable()
            meter.window(ops, time.perf_counter_ns() - wall0,
                         time.process_time_ns() - cpu0, rtts)
            await meter.ping()


def codec_us(seed: int, repeats: int = 5, n: int = 2000) -> tuple[float, float]:
    """Median per-frame encode and decode time of an echo request and its
    response, in microseconds."""
    payload = f"{seed:08x}{1:02x}{0:022x}"
    request = RpcRequest(client_id=1, rpc_type="echo", payload=payload,
                         data_bytes=DATA_BYTES, req_id=1)
    response = RpcResponse(req_id=1, client_id=1, payload=payload, data_bytes=DATA_BYTES)
    frames = (encode_request(request), encode_response(response))
    encode, decode = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            encode_request(request)
            encode_response(response)
        encode.append((time.perf_counter() - start) / (2 * n) * 1e6)
        start = time.perf_counter()
        for _ in range(n):
            decode_request(frames[0])
            decode_response(frames[1])
        decode.append((time.perf_counter() - start) / (2 * n) * 1e6)
    return statistics.median(encode), statistics.median(decode)


async def _serve_phase(root, traffic, seconds, *, setups, cpu=None, profile_out=None,
                       profile=None):
    """``setups`` timed set-ups, warm-up, then ``seconds`` of timed traffic.

    ``cpu`` is the CPU the server and the pinger are pinned to, or None.
    """
    setup_s, ready_s, spawn_s, idle_cpu = [], [], [], []
    for index in range(setups):
        last = index == setups - 1
        pinger = ChildProcess.pinger(root, cpu)
        server = ChildProcess.server(root, cpu, profile_out if last else None)
        try:
            start = time.perf_counter()
            pinger_endpoint = await pinger.start()
            spawn_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            endpoint = await server.start()
            ready = time.perf_counter()
            clients = await _connect(endpoint)
            setup_s.append(time.perf_counter() - start)
            ready_s.append(ready - start)
            if not last:
                await _close(clients)
                _stats, spent = await server.stop()
                idle_cpu.append(spent)
                await pinger.stop()
                continue
            sent_before = traffic.sent
            await traffic.window(clients, WARMUP_S)
            # This process's peak before its round-trip lists grow.
            client_rss = peak_rss_mb()
            meter = await Meter.open(pinger_endpoint)
            await traffic.timed(clients, seconds, meter, profile)
            cpu_factor, ping_cpu_ns = await meter.cpu_factor()
            await meter.close()
            await _close(clients)
            stats, server_cpu = await server.stop()
            await pinger.stop()
            server_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        finally:
            await server.kill()
            await pinger.kill()
    served = traffic.sent - sent_before
    problems = []
    if stats.get("completed") != served or stats.get("failed") or stats.get("decode_errors"):
        problems.append(f"server stats {stats} after {served} RPCs sent")

    factors = meter.time_factors()
    rates = [ops * 1e9 / (wall * factor)
             for (ops, wall, _cpu, _rtts), factor in zip(meter.windows, factors)]
    scaled = [rtt * factor for (_ops, _wall, _cpu, rtts), factor in zip(meter.windows, factors)
              for rtt in rtts]
    rtt_p50, rtt_p99 = [], []
    for first in range(0, len(scaled) - RTT_WINDOW + 1, RTT_WINDOW):
        chunk = sorted(scaled[first:first + RTT_WINDOW])
        rtt_p50.append(percentile(chunk, 50))
        rtt_p99.append(percentile(chunk, 99))
    ops = sum(w[0] for w in meter.windows)
    wall_ns = sum(w[1] for w in meter.windows)
    client_cpu_us = sum(w[2] for w in meter.windows) / ops / 1e3
    idle = statistics.median(idle_cpu) if idle_cpu else 0.0
    server_cpu_us = max(0.0, server_cpu - idle) / served * 1e6
    spawn_factor = REFERENCE_SPAWN_S / statistics.median(spawn_s)
    return {
        "ops": ops, "served": served, "rtt_samples": len(scaled),
        "windows": len(meter.windows),
        "raw_ops_per_s": ops * 1e9 / wall_ns,
        "ops_per_s": statistics.median(rates),
        "rtt_p50_us": statistics.median(rtt_p50) / 1e3,
        "rtt_p99_us": statistics.median(rtt_p99) / 1e3,
        "setup_s": statistics.median(setup_s) * spawn_factor,
        "ready_s": statistics.median(ready_s) * spawn_factor,
        "client_cpu_us": client_cpu_us * cpu_factor,
        "server_cpu_us": server_cpu_us * cpu_factor,
        "raw_client_cpu_us": client_cpu_us,
        "raw_server_cpu_us": server_cpu_us,
        "raw_setup_s": statistics.median(setup_s),
        "ping_us": statistics.median(meter.pings) / 1e3,
        "ping_cpu_us": ping_cpu_ns / 1e3,
        "pinger_spawn_s": statistics.median(spawn_s),
        "peak_rss_mb": max(client_rss, server_rss),
        "problems": problems,
    }


def run(seed: int, seconds: float, trace: bool, root: Path) -> dict:
    # With two or more CPUs, this process and the server each get their
    # own: unpinned, the scheduler's placement of the two shows up as
    # noise in the tail latency.
    home = sorted(os.sched_getaffinity(0))
    cpus = (home[0], home[-1]) if len(home) > 1 else None
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[0]})
    try:
        return _run(seed, seconds, trace, root, cpus and cpus[1])
    finally:
        os.sched_setaffinity(0, home)


def _run(seed: int, seconds: float, trace: bool, root: Path, cpu: int | None) -> dict:
    traffic = Traffic(seed)
    if not trace:
        phase = asyncio.run(_serve_phase(root, traffic, seconds, setups=SETUPS, cpu=cpu))
        phases = [phase]
    else:
        # An untraced reference phase (also the source of the CPU split),
        # then a phase with both processes under cProfile: the server via
        # ``python -m cProfile``, this process for the timed window only.
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        profile_out = out_dir / f"server-{os.getpid()}.prof"
        client_profile = cProfile.Profile()
        ledger = Ledger()
        with ledger:
            ledger.count(StreamClientTransport, "drain", "drain")
            ledger.count(ProcRpcClient, "async_call", "rpc")
            reference = asyncio.run(_serve_phase(
                root, traffic, seconds / 2, setups=SETUPS, cpu=cpu,
            ))
            traced = asyncio.run(_serve_phase(
                root, traffic, seconds / 2, setups=1, cpu=cpu,
                profile_out=profile_out, profile=client_profile,
            ))
        try:
            server_stats = pstats.Stats(str(profile_out)).stats
        finally:
            profile_out.unlink(missing_ok=True)
            if not any(out_dir.iterdir()):
                out_dir.rmdir()
        phases = [reference, traced]
        phase = reference
    report = {
        "attempted": traffic.sent,
        "failed": traffic.bad + (traffic.sent if any(p["problems"] for p in phases) else 0),
        "problems": [p for ph in phases for p in ph["problems"]]
        + ([f"{traffic.bad} responses did not echo their request"] if traffic.bad else []),
        "end_to_end": {
            "ops_per_s": phase["ops_per_s"],
            "setup_s": phase["setup_s"],
            "cpu_us_per_op": phase["client_cpu_us"] + phase["server_cpu_us"],
            "rtt_p50_us": phase["rtt_p50_us"],
            "rtt_p99_us": phase["rtt_p99_us"],
            "peak_rss_mb": phase["peak_rss_mb"],
        },
        "notes": {
            "rtt_samples": phase["rtt_samples"],
            "rtt_window": RTT_WINDOW,
            "windows": phase["windows"],
            "raw_ops_per_s": phase["raw_ops_per_s"],
            "raw_client_cpu_us": phase["raw_client_cpu_us"],
            "raw_server_cpu_us": phase["raw_server_cpu_us"],
            "raw_setup_s": phase["raw_setup_s"],
            "ping_us": phase["ping_us"],
            "ping_cpu_us": phase["ping_cpu_us"],
            "pinger_spawn_s": phase["pinger_spawn_s"],
            "setup_samples": SETUPS,
            "warmup_s": WARMUP_S,
            "link": "host loopback TCP (127.0.0.1), not an RDMA link",
            "server_cpu": cpu,
        },
    }
    if trace:
        client_stats = pstats.Stats(client_profile).stats
        client = shares(self_time_by_group(client_stats, net_group), ("loop", "codec"))
        server = shares(self_time_by_group(server_stats, net_group),
                        ("loop", "codec", "framing"))
        encode, decode = codec_us(seed)
        layer = {f"{group}.self_share": share for group, share in
                 shares(self_time_by_group(client_stats, sim_group),
                        SIM_GROUPS + ("other",)).items()}
        layer.update({
            "setup.server_s": reference["ready_s"],
            "net.client.loop_share": client["loop"],
            "net.client.codec_share": client["codec"],
            "net.server.loop_share": server["loop"],
            "net.server.codec_share": server["codec"],
            "net.server.framing_share": server["framing"],
            "net.encode_us": encode,
            "net.decode_us": decode,
            "net.drains_per_op": ledger.calls["drain"] / max(1, ledger.calls["rpc"]),
            "net.client.cpu_us_per_op": reference["client_cpu_us"],
            "net.server.cpu_us_per_op": reference["server_cpu_us"],
            "bench.ops_traced": traced["ops"],
            "bench.trace_overhead_x": reference["raw_ops_per_s"] / traced["raw_ops_per_s"],
        })
        report["per_layer"] = layer
        report["notes"]["traced_raw_ops_per_s"] = traced["raw_ops_per_s"]
    return report
