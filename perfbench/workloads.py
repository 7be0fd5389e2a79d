"""The benchmark's four closed-loop workloads and their metrics.

One client issues the next operation only after the previous one has
decided.  A run is split into a few set-ups ("sessions"); each builds the
service from nothing, serves one warm-up operation, then serves timed
operations in whole blocks until its share of ``--seconds`` is spent and
the run holds at least :data:`MIN_TIMED_OPS` timed operations.  Set-up
time is therefore sampled several times per run and reported as a median.

Every operation is checked by :mod:`checks`, which does not use the
program's own code.  A failed check (or an exception from the program)
counts the operation as failed and makes the run's ``correct`` false;
failed operations give no latency.

All wall times are host time (``time.perf_counter``).  The protocol's
simulated time for one operation is ``rounds_per_op * 2 * delta``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import statistics
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.adversary.omission import SelectiveOmission
from repro.apps.beacon import RandomBeacon
from repro.common.config import ChannelSecurity, SimulationConfig
from repro.core.erb import ErbProgram
from repro.net.session import EngineSession
from repro.net.wire import WireNode, cluster_configs, run_cluster
from repro.obs.timing import TimingCollector

import checks
from layers import LayerTrace, delta

#: A run holds at least this many timed operations, so that the 90th
#: percentile has at least ten samples beyond it.
MIN_TIMED_OPS = 100

#: Set-ups per run.  The traced run alternates untraced and traced
#: set-ups (U T U T) so that the tracing overhead is measured against
#: untraced operations taken at nearly the same time.
SESSIONS = 3
TRACE_SESSIONS = 4

#: (name, unit, better) of every gated end-to-end metric, in the order of
#: ``BENCHMARK.json``.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("bytes_per_op", "B", "lower"),
    ("rounds_per_op", "rounds", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: (name, unit) of end-to-end figures that go to the readable report only.
#: They follow the host's bursts of speed too closely to be gated: their
#: ten-run spread passed 0.25 where the 90th percentile's stayed below 0.16
#: (README, "Steadiness on this host").
UNGATED: List[Tuple[str, str]] = [
    ("e2e_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
]

_ENGINE_BUCKETS = (
    "ack_wave", "handler", "batch_crypto", "digest", "serialize",
    "scheduler", "other",
)
_PARALLEL_BUCKETS = ("barrier", "overlap", "shm", "merge")

#: (name, unit) of every per-layer metric.  Per timed operation unless
#: the name says otherwise; ``*_per_setup`` metrics are per set-up.
PER_LAYER: List[Tuple[str, str]] = [
    ("session.recycle_s", "s"),
    ("session.warmup_s", "s"),
    ("engine.run_s", "s"),
    ("engine.rounds", "count"),
    ("engine.msgs", "count"),
    ("engine.envelopes", "count"),
    *[(f"engine.{b}_s", "s") for b in _ENGINE_BUCKETS],
    *[(f"parallel.{b}_s", "s") for b in _PARALLEL_BUCKETS],
    ("parallel.shard_busy_s", "s"),
    ("parallel.shard_idle_s", "s"),
    ("parallel.idle_share", "ratio"),
    ("proc.cpu_s", "s"),
    ("proc.cores_used", "cores"),
    ("transport.seal_calls", "count"),
    ("transport.open_calls", "count"),
    ("transport.seal_s", "s"),
    ("transport.open_s", "s"),
    ("channel.establish_calls_per_setup", "count"),
    ("channel.establish_s_per_setup", "s"),
    ("channel.write_calls", "count"),
    ("channel.read_calls", "count"),
    ("channel.write_s", "s"),
    ("channel.read_s", "s"),
    ("channel.rejections", "count"),
    ("sgx.quotes_issued_per_setup", "count"),
    ("sgx.quotes_verified_per_setup", "count"),
    ("sgx.quote_s_per_setup", "s"),
    ("crypto.dh_keygens_per_setup", "count"),
    ("crypto.dh_agreements_per_setup", "count"),
    ("crypto.dh_s_per_setup", "s"),
    ("crypto.aead_seals", "count"),
    ("crypto.aead_opens", "count"),
    ("crypto.aead_s", "s"),
    ("crypto.aead_bytes", "B"),
    ("core.handler_calls", "count"),
    ("core.handler_s", "s"),
    ("core.halts", "count"),
    ("serialization.encode_calls", "count"),
    ("serialization.decode_calls", "count"),
    ("serialization.encode_s", "s"),
    ("serialization.decode_s", "s"),
    ("serialization.bytes_decoded", "B"),
    ("wire.connect_s_per_setup", "s"),
    ("wire.round_s", "s"),
    ("wire.barrier_wait_s", "s"),
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("wire.omissions", "count"),
    ("wire.rejections", "count"),
    ("trace.overhead_share", "ratio"),
]

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _ in END_TO_END},
    **dict(UNGATED),
    **dict(PER_LAYER),
}


# ----------------------------------------------------------------------
# one operation
# ----------------------------------------------------------------------

@dataclass
class Op:
    """One checked operation.  ``error`` is None when the check passed."""

    latency: float
    error: Optional[str] = None
    bytes: int = 0
    rounds: int = 0
    msgs: int = 0
    envelopes: int = 0
    halts: int = 0
    rejections: int = 0


def _from_result(latency: float, error: Optional[str], result) -> Op:
    traffic = result.traffic
    return Op(
        latency=latency,
        error=error,
        bytes=traffic.bytes_sent,
        rounds=result.rounds_executed,
        msgs=traffic.messages_sent,
        envelopes=traffic.envelopes_sent,
        halts=len(result.halted),
        rejections=traffic.rejections,
    )


def _guarded(serve, earlier: List[Op]) -> Op:
    """Serve one operation; an exception from the program fails it.  The
    traceback of the first failure of a set-up goes to stderr."""
    try:
        return serve()
    except Exception as exc:  # the program's fault: count it, keep serving
        if all(op.error is None for op in earlier):
            traceback.print_exc(file=sys.stderr)
        return Op(latency=math.nan, error=f"raised {type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# the simulated services
# ----------------------------------------------------------------------

class ErbFactory:
    """Programs for one ERB broadcast (module level: sessions pickle it)."""

    def __init__(self, n: int, t: int, initiator: int, payload: bytes) -> None:
        self.n = n
        self.t = t
        self.initiator = initiator
        self.payload = payload

    def __call__(self, node_id: int) -> ErbProgram:
        return ErbProgram(
            node_id=node_id,
            initiator=self.initiator,
            n=self.n,
            t=self.t,
            message=self.payload if node_id == self.initiator else None,
        )


def payload_ladder(low: int, high: int, steps: int) -> List[int]:
    """``steps`` payload sizes, log-spaced from ``low`` to ``high``."""
    ratio = (high / low) ** (1 / (steps - 1))
    return [round(low * ratio ** i) for i in range(steps)]


class _BroadcastInputs:
    """Rotating initiators and payload sizes dealt in shuffled blocks.

    Every block of ``len(sizes)`` operations uses each size once, so a
    run of whole blocks carries the same bytes whatever the seed.
    """

    def __init__(self, rng: random.Random, n: int, sizes: List[int]) -> None:
        self._rng = rng
        self._n = n
        self._sizes = sizes
        self._deck: List[int] = []
        self._next_initiator = rng.randrange(n)

    def next(self, warm_up: bool = False) -> Tuple[int, bytes, int]:
        """The next operation's (initiator, payload, engine seed).  The
        warm-up operation draws its size outside the blocks."""
        if warm_up:
            size = self._rng.choice(self._sizes)
        else:
            if not self._deck:
                self._deck = list(self._sizes)
                self._rng.shuffle(self._deck)
            size = self._deck.pop()
        initiator = self._next_initiator
        self._next_initiator = (initiator + 1) % self._n
        payload = self._rng.randbytes(size)
        return initiator, payload, self._rng.getrandbits(32)


class _BroadcastService:
    """ERB broadcasts over one long-lived :class:`EngineSession`."""

    def __init__(self, wl: "Workload", rng: random.Random, timing) -> None:
        self.n = wl.n
        self.t = wl.t if wl.t >= 0 else (wl.n - 1) // 2
        self.inputs = _BroadcastInputs(rng, wl.n, wl.sizes)
        self.faulty = None
        behaviors = None
        if wl.omitting:
            self.faulty = rng.randrange(wl.n)
            others = [i for i in range(wl.n) if i != self.faulty]
            victims = rng.sample(others, wl.omitting)
            behaviors = {self.faulty: SelectiveOmission(victims)}
        initiator, payload, seed = self.inputs.next(warm_up=True)
        config = SimulationConfig(
            n=self.n, t=self.t, seed=seed, channel_security=wl.security,
            timing=timing,
        )
        self._first = (initiator, payload)
        self.session = EngineSession(
            config, ErbFactory(self.n, self.t, initiator, payload),
            behaviors=behaviors,
        )

    def serve(self) -> Op:
        max_rounds = self.t + 2
        if self._first is not None:
            (initiator, payload), self._first = self._first, None
            t0 = perf_counter()
            result = self.session.run(max_rounds)
        else:
            initiator, payload, seed = self.inputs.next()
            factory = ErbFactory(self.n, self.t, initiator, payload)
            t0 = perf_counter()
            result = self.session.run(
                max_rounds, program_factory=factory, seed=seed
            )
        latency = perf_counter() - t0
        if self.faulty is None:
            error = checks.check_honest_broadcast(
                self.n, payload, result.outputs, result.halted,
                result.rounds_executed, result.traffic.messages_sent,
            )
        else:
            error = checks.check_omission_broadcast(
                self.n, self.t, self.faulty, initiator, payload,
                result.outputs, result.decided_rounds, result.halted,
                result.rounds_executed,
            )
        return _from_result(latency, error, result)

    def close(self) -> None:
        self.session.close()


class _BeaconService:
    """Chained ERNG epochs from one session-mode :class:`RandomBeacon`."""

    def __init__(self, wl: "Workload", rng: random.Random, timing) -> None:
        beacon_seed = rng.getrandbits(32)
        self.chain = checks.BeaconChain(beacon_seed, wl.n)
        # The pickle data plane: the shared-memory rings of repro.net.shm
        # now and then hand a worker or the coordinator an empty frame
        # (EOFError), which fails operations on some runs and not others.
        self.beacon = RandomBeacon(
            wl.n, seed=beacon_seed, random_bits=checks.RANDOM_BITS,
            session=True, workers=wl.workers, timing=timing,
            extra={"parallel_data_plane": "pickle"},
        )

    def serve(self) -> Op:
        t0 = perf_counter()
        record = self.beacon.next_beacon()
        latency = perf_counter() - t0
        result = self.beacon.last_result
        error = self.chain.check(
            record.epoch, record.value, record.prev_digest, record.digest,
            result.outputs,
        )
        return _from_result(latency, error, result)

    def close(self) -> None:
        self.beacon.close()


# ----------------------------------------------------------------------
# workload definitions
# ----------------------------------------------------------------------

@dataclass
class Workload:
    """One workload's fixed parameters (the README explains each)."""

    name: str
    kind: str                  # "broadcast", "beacon" or "wire"
    n: int
    block: int                 # operations per whole block
    e2e_ops: int               # timed operations counted into e2e_s
    t: int = -1
    security: ChannelSecurity = ChannelSecurity.MODELED
    sizes: List[int] = field(default_factory=list)
    omitting: int = 0          # victims of the one omitting node
    workers: int = 1
    epochs: int = 0            # epochs per wire cluster

    def open(self, rng: random.Random, timing):
        if self.kind == "broadcast":
            return _BroadcastService(self, rng, timing)
        if self.kind == "beacon":
            return _BeaconService(self, rng, timing)
        raise ValueError(f"{self.name} is not a simulated workload")


#: Every workload ``run.py`` serves.  ``beacon_sharded`` is left out of
#: ``BENCHMARK.json``: its run-to-run spread on a 2-CPU host is wider than
#: any bound a regression gate may use (see the README).
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="broadcast_serial", kind="broadcast", n=96,
            block=16, e2e_ops=48, sizes=payload_ladder(16, 4096, 16),
        ),
        Workload(
            name="beacon_sharded", kind="beacon", n=32, workers=2,
            block=1, e2e_ops=32,
        ),
        Workload(
            name="full_omission", kind="broadcast", n=5, t=2,
            security=ChannelSecurity.FULL, block=5, e2e_ops=50,
            sizes=[896, 960, 1024, 1088, 1152], omitting=3,
        ),
        Workload(
            name="wire_beacon", kind="wire", n=8, block=1, e2e_ops=0,
            epochs=80,
        ),
    )
}


# ----------------------------------------------------------------------
# process measurements (Linux /proc)
# ----------------------------------------------------------------------

def _proc_fields(pid: int) -> Tuple[float, float]:
    """(cpu seconds, peak RSS in KiB) of one live process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read().rsplit(")", 1)[1].split()
        with open(f"/proc/{pid}/status") as fh:
            hwm = next(
                int(line.split()[1]) for line in fh
                if line.startswith("VmHWM:")
            )
    except (OSError, StopIteration):
        return 0.0, 0.0            # it exited between listing and reading
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(stat[11]) + int(stat[12])) / ticks, float(hwm)


def _children() -> List[int]:
    return [proc.pid for proc in multiprocessing.active_children()]


def _cpu_now() -> float:
    """CPU seconds of this process plus its live shard workers."""
    return process_time() + sum(_proc_fields(pid)[0] for pid in _children())


def _peak_rss_kib() -> float:
    """Peak RSS of this process plus its live shard workers."""
    return _proc_fields(os.getpid())[1] + sum(
        _proc_fields(pid)[1] for pid in _children()
    )


# ----------------------------------------------------------------------
# run accounting
# ----------------------------------------------------------------------

@dataclass
class Session:
    """What one set-up and its timed operations measured."""

    traced: bool
    setup_s: float
    warm: Optional[Op]               # None on the wire: set-up ends at connect
    ops: List[Op]
    peak_kib: float = 0.0
    e2e_s: float = 0.0
    wall_s: float = 0.0              # wall of the timed section
    cpu_s: float = 0.0               # CPU of the timed section
    setup_layers: Dict[str, float] = field(default_factory=dict)
    op_layers: Dict[str, float] = field(default_factory=dict)
    buckets: Dict[str, float] = field(default_factory=dict)
    shard_busy: float = 0.0
    shard_idle: float = 0.0
    wire: Dict[str, float] = field(default_factory=dict)

    @property
    def good(self) -> List[Op]:
        return [op for op in self.ops if op.error is None]


@dataclass
class RunResult:
    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, float]        # the printed metrics
    errors: List[str]
    ungated: Dict[str, float] = field(default_factory=dict)


def _timing_delta(timing: TimingCollector, totals: Dict[str, float],
                  first_round: int) -> Tuple[Dict[str, float], float, float]:
    """Bucket seconds (coordinator plus shards), shard busy and idle
    seconds since the collector held ``totals`` and ``first_round``
    rounds."""
    buckets = delta(timing.totals, totals)
    busy = idle = 0.0
    for record in timing.rounds[first_round:]:
        for shard in record["shards"]:
            busy += shard["busy"]
            idle += shard["idle"]
            for name, seconds in shard["buckets"].items():
                buckets[name] = buckets.get(name, 0.0) + seconds
    return buckets, busy, idle


def _serve_session(wl: Workload, rng: random.Random, slice_s: float,
                   min_ops: int, traced: bool) -> Session:
    layer = LayerTrace() if traced else None
    timing = TimingCollector() if traced else None
    if layer is not None:
        layer.install()
    try:
        before = LayerTrace.snapshot()
        t_start = perf_counter()
        service = wl.open(rng, timing)
        try:
            warm = _guarded(service.serve, [])
            setup = perf_counter() - t_start
            after_setup = LayerTrace.snapshot()
            totals = dict(timing.totals) if timing is not None else {}
            first_round = len(timing.rounds) if timing is not None else 0
            cpu0 = _cpu_now()
            w0 = perf_counter()
            ops: List[Op] = []
            while len(ops) < min_ops or perf_counter() - t_start < slice_s:
                for _ in range(wl.block):
                    ops.append(_guarded(service.serve, ops))
            session = Session(
                traced=traced, setup_s=setup, warm=warm, ops=ops,
                wall_s=perf_counter() - w0, cpu_s=_cpu_now() - cpu0,
            )
            session.setup_layers = delta(after_setup, before)
            session.op_layers = delta(LayerTrace.snapshot(), after_setup)
            if timing is not None:
                session.buckets, session.shard_busy, session.shard_idle = \
                    _timing_delta(timing, totals, first_round)
            session.peak_kib = _peak_rss_kib()
        finally:
            service.close()
    finally:
        if layer is not None:
            layer.uninstall()
    first = [op.latency for op in ops[:wl.e2e_ops] if op.error is None]
    session.e2e_s = setup + sum(first)
    return session


# ----------------------------------------------------------------------
# the wire workload
# ----------------------------------------------------------------------

@contextmanager
def _connect_clock(marks: List[Tuple[float, float]]):
    """Record (start, end) of every ``WireNode.connect_peers`` call.

    No call boundary separates set-up from service inside a cluster run,
    so this one wrapper is installed in untraced runs too; it runs once
    per node per cluster."""
    original = WireNode.__dict__["connect_peers"]

    async def connect_peers(self):
        t0 = perf_counter()
        await original(self)
        marks.append((t0, perf_counter()))

    WireNode.connect_peers = connect_peers
    try:
        yield
    finally:
        WireNode.connect_peers = original


def _serve_cluster(wl: Workload, rng: random.Random, traced: bool) -> Session:
    beacon_seed = rng.getrandbits(32)
    chain = checks.BeaconChain(beacon_seed, wl.n)
    configs = cluster_configs(
        wl.n, "beacon", seed=beacon_seed, epochs=wl.epochs,
        random_bits=checks.RANDOM_BITS,
    )
    layer = LayerTrace() if traced else None
    marks: List[Tuple[float, float]] = []
    if layer is not None:
        layer.install()
    try:
        with _connect_clock(marks):
            before = LayerTrace.snapshot()
            cpu0 = _cpu_now()
            t0 = perf_counter()
            result = run_cluster(configs)
            wall = perf_counter() - t0
            cpu = _cpu_now() - cpu0
            layers = delta(LayerTrace.snapshot(), before)
    finally:
        if layer is not None:
            layer.uninstall()
    peak_kib = _peak_rss_kib()
    setup = max(end for _, end in marks) - t0
    reports = [result.reports[node] for node in sorted(result.reports)]
    ops: List[Op] = []
    walls_ok = all(len(r.round_walls) == 2 * wl.epochs for r in reports)
    for epoch in range(wl.epochs):
        if any(len(r.records) <= epoch for r in reports):
            ops.append(Op(latency=math.nan, error="epoch missing from a node"))
            continue
        record = reports[0].records[epoch]
        outputs = {r.node_id: r.records[epoch].value for r in reports}
        if any(r.records[epoch] != record for r in reports):
            outputs[-1] = None     # nodes published different records
        error = chain.check(
            record.epoch, record.value, record.prev_digest, record.digest,
            outputs,
        )
        latency = (
            max(sum(r.round_walls[2 * epoch:2 * epoch + 2]) for r in reports)
            if walls_ok else math.nan
        )
        ops.append(Op(latency=latency, error=error, rounds=2))
    total_bytes = sum(r.stats.total_bytes_sent for r in reports)
    for op in ops:
        op.bytes = total_bytes // wl.epochs
        op.halts = sum(1 for r in reports if r.halted)
    if not walls_ok:
        for op in ops:
            op.error = op.error or "a node did not run 2 rounds per epoch"
    session = Session(
        traced=traced, setup_s=setup, warm=None, ops=ops,
        e2e_s=wall, wall_s=wall - setup, cpu_s=cpu, peak_kib=peak_kib,
    )
    session.op_layers = layers
    session.wire = {
        "connect_s": max(end for _, end in marks) - min(s for s, _ in marks),
        "round_s": statistics.fmean(sum(r.round_walls) for r in reports),
        "barrier_wait_s": statistics.fmean(
            r.stats.barrier_wait_s.total for r in reports
        ),
        "frames": sum(sum(r.stats.frames_sent.values()) for r in reports),
        "bytes": total_bytes,
        "omissions": sum(r.stats.omissions for r in reports),
        "rejections": sum(r.stats.rejections for r in reports),
    }
    return session


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(sessions: List[Session]) -> Dict[str, float]:
    good = [op for s in sessions for op in s.good]
    latencies = [op.latency for op in good]
    return {
        "setup_s": statistics.median(s.setup_s for s in sessions),
        "e2e_s": statistics.median(s.e2e_s for s in sessions),
        "ops_per_s": len(good) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": _p90(latencies),
        "bytes_per_op": statistics.fmean(op.bytes for op in good),
        "rounds_per_op": statistics.fmean(op.rounds for op in good),
        "peak_rss_mb": max(s.peak_kib for s in sessions) / 1024,
    }


def per_layer(sessions: List[Session]) -> Dict[str, float]:
    """Per-layer metrics from the traced sessions."""
    traced = [s for s in sessions if s.traced]
    plain = [s for s in sessions if not s.traced]
    ops = [op for s in traced for op in s.good]
    n_ops = len(ops)
    n_setups = len(traced)

    def op_sum(key: str) -> float:
        return sum(s.op_layers.get(key, 0) for s in traced)

    def per_op(key: str) -> float:
        return op_sum(key) / n_ops

    def per_setup(*keys: str) -> float:
        return sum(
            s.setup_layers.get(key, 0) for s in traced for key in keys
        ) / n_setups

    def bucket(name: str) -> float:
        return sum(s.buckets.get(name, 0.0) for s in traced) / n_ops

    def wire(key: str) -> float:
        return sum(s.wire.get(key, 0) for s in traced) / n_ops

    busy = sum(s.shard_busy for s in traced)
    idle = sum(s.shard_idle for s in traced)
    wall = sum(s.wall_s for s in traced)
    cpu = sum(s.cpu_s for s in traced)
    plain_p50 = statistics.median(op.latency for s in plain for op in s.good)
    traced_p50 = statistics.median(op.latency for op in ops)
    warmups = [
        s.warm.latency - statistics.median(op.latency for op in s.good)
        for s in traced if s.warm is not None and s.warm.error is None
    ]
    out = {
        "session.recycle_s": per_op("session.recycle_s"),
        "session.warmup_s": statistics.median(warmups) if warmups else 0.0,
        "engine.run_s": per_op("engine.run_s"),
        "engine.rounds": statistics.fmean(op.rounds for op in ops),
        "engine.msgs": statistics.fmean(op.msgs for op in ops),
        "engine.envelopes": statistics.fmean(op.envelopes for op in ops),
        **{f"engine.{b}_s": bucket(b) for b in _ENGINE_BUCKETS},
        **{f"parallel.{b}_s": bucket(b) for b in _PARALLEL_BUCKETS},
        "parallel.shard_busy_s": busy / n_ops,
        "parallel.shard_idle_s": idle / n_ops,
        "parallel.idle_share": idle / (busy + idle) if busy + idle else 0.0,
        "proc.cpu_s": cpu / n_ops,
        "proc.cores_used": cpu / wall,
        "transport.seal_calls": per_op("transport.seal_calls"),
        "transport.open_calls": per_op("transport.open_calls"),
        "transport.seal_s": per_op("transport.seal_s"),
        "transport.open_s": per_op("transport.open_s"),
        "channel.establish_calls_per_setup": per_setup("channel.establish_calls"),
        "channel.establish_s_per_setup": per_setup("channel.establish_s"),
        "channel.write_calls": per_op("channel.write_calls"),
        "channel.read_calls": per_op("channel.read_calls"),
        "channel.write_s": per_op("channel.write_s"),
        "channel.read_s": per_op("channel.read_s"),
        "channel.rejections": statistics.fmean(op.rejections for op in ops),
        "sgx.quotes_issued_per_setup": per_setup("sgx.quote_issue_calls"),
        "sgx.quotes_verified_per_setup": per_setup("sgx.quote_verify_calls"),
        "sgx.quote_s_per_setup": per_setup(
            "sgx.quote_issue_s", "sgx.quote_verify_s"),
        "crypto.dh_keygens_per_setup": per_setup("crypto.dh_keygen_calls"),
        "crypto.dh_agreements_per_setup": per_setup("crypto.dh_agree_calls"),
        "crypto.dh_s_per_setup": per_setup(
            "crypto.dh_keygen_s", "crypto.dh_agree_s"),
        "crypto.aead_seals": per_op("crypto.aead_seal_calls"),
        "crypto.aead_opens": per_op("crypto.aead_open_calls"),
        "crypto.aead_s": per_op("crypto.aead_seal_s") + per_op("crypto.aead_open_s"),
        "crypto.aead_bytes": per_op("crypto.aead_seal_bytes")
        + per_op("crypto.aead_open_bytes"),
        "core.handler_calls": per_op("core.handler_calls"),
        "core.handler_s": per_op("core.handler_s"),
        "core.halts": statistics.fmean(op.halts for op in ops),
        "serialization.encode_calls": per_op("serialization.encode_calls"),
        "serialization.decode_calls": per_op("serialization.decode_calls"),
        "serialization.encode_s": per_op("serialization.encode_s"),
        "serialization.decode_s": per_op("serialization.decode_s"),
        "serialization.bytes_decoded": per_op("serialization.decode_bytes"),
        "wire.connect_s_per_setup": (
            sum(s.wire.get("connect_s", 0.0) for s in traced) / n_setups),
        "wire.round_s": wire("round_s"),
        "wire.barrier_wait_s": wire("barrier_wait_s"),
        "wire.frames": wire("frames"),
        "wire.bytes": wire("bytes"),
        "wire.omissions": wire("omissions"),
        "wire.rejections": wire("rejections"),
        "trace.overhead_share": traced_p50 / plain_p50 - 1,
    }
    return out


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------

def run(wl: Workload, seed: int, seconds: float, trace: bool,
        min_timed_ops: int = MIN_TIMED_OPS) -> RunResult:
    """Run one workload for ``seconds`` and compute its metrics."""
    rng = random.Random(seed)
    count = TRACE_SESSIONS if trace else SESSIONS
    sessions: List[Session] = []
    if wl.kind == "wire":
        t_start = perf_counter()
        while (
            len(sessions) < count
            or perf_counter() - t_start < seconds
            or sum(len(s.ops) for s in sessions) < min_timed_ops
            or (trace and len(sessions) % 2 == 1)
        ):
            traced = trace and len(sessions) % 2 == 1
            sessions.append(_serve_cluster(wl, rng, traced))
    else:
        per_session = -(-min_timed_ops // count)
        min_ops = -(-per_session // wl.block) * wl.block
        for k in range(count):
            traced = trace and k % 2 == 1
            sessions.append(
                _serve_session(wl, rng, seconds / count, min_ops, traced)
            )
    all_ops = [op for s in sessions for op in s.ops]
    all_ops += [s.warm for s in sessions if s.warm is not None]
    errors = [op.error for op in all_ops if op.error is not None]
    if not any(s.good for s in sessions):
        raise RuntimeError(f"every operation failed, first: {errors[0]}")
    metrics = per_layer(sessions) if trace else end_to_end(sessions)
    # A wrong output anywhere makes the whole run wrong, not just faster.
    correct = not errors and all(math.isfinite(v) for v in metrics.values())
    ungated = {name: metrics.pop(name) for name, _ in UNGATED if name in metrics}
    return RunResult(
        attempted=len(all_ops),
        failed=len(errors),
        correct=correct,
        metrics=metrics,
        errors=errors,
        ungated=ungated,
    )
