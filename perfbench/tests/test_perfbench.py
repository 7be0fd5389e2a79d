"""Fast tests of the benchmark itself (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import layers  # noqa: E402
import run as run_cli  # noqa: E402
import workloads  # noqa: E402
from repro.apps.beacon import RandomBeacon  # noqa: E402
from repro.common import serialization  # noqa: E402
from repro.net import transport as transport_module  # noqa: E402
from repro.net.simulator import SynchronousNetwork  # noqa: E402


def _flip(data: bytes, index: int = 0) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


# ----------------------------------------------------------------------
# tiny-N passes
# ----------------------------------------------------------------------

TINY = {
    "broadcast_serial": dict(n=6, sizes=workloads.payload_ladder(16, 256, 4),
                             block=4, e2e_ops=4),
    "beacon_sharded": dict(n=6, e2e_ops=2),
    "full_omission": dict(n=3, t=1, omitting=2, block=3, e2e_ops=3,
                          sizes=[96, 128, 160]),
    "wire_beacon": dict(n=4, epochs=3),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes(name, trace):
    wl = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    result = workloads.run(wl, seed=7, seconds=0.05, trace=trace,
                           min_timed_ops=4)
    assert result.failed == 0, result.errors[:3]
    assert result.correct
    expected = (
        [name for name, _ in workloads.PER_LAYER] if trace
        else [name for name, _, _ in workloads.END_TO_END]
    )
    assert list(result.metrics) == expected
    assert list(result.ungated) == (
        [] if trace else [name for name, _ in workloads.UNGATED])


def test_one_tampered_output_makes_the_run_incorrect(monkeypatch):
    wl = dataclasses.replace(workloads.WORKLOADS["broadcast_serial"],
                             **TINY["broadcast_serial"])
    original = workloads.EngineSession.run
    calls = []

    def tampered(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            result.outputs[1] = _flip(result.outputs[1])
        return result

    monkeypatch.setattr(workloads.EngineSession, "run", tampered)
    result = workloads.run(wl, seed=7, seconds=0.05, trace=False,
                           min_timed_ops=4)
    assert result.failed == 1
    assert "payload" in result.errors[0]
    assert not result.correct


def test_tracing_sees_the_layers_of_full_omission():
    wl = dataclasses.replace(workloads.WORKLOADS["full_omission"],
                             **TINY["full_omission"])
    metrics = workloads.run(wl, seed=3, seconds=0.05, trace=True,
                            min_timed_ops=4).metrics
    assert metrics["channel.establish_calls_per_setup"] == 3    # 3 pairs
    assert metrics["sgx.quotes_issued_per_setup"] == 6
    assert metrics["crypto.dh_keygens_per_setup"] == 6
    assert metrics["crypto.aead_seals"] > 0
    assert metrics["core.halts"] == 1
    assert metrics["wire.frames"] == 0


def _wrapped(cls: type, attr: str) -> bool:
    fn = inspect.getattr_static(cls, attr)
    return hasattr(getattr(fn, "__func__", fn), "__wrapped__")


def test_layer_wrappers_are_removed_again():
    original_encode = transport_module.encode
    trace = layers.LayerTrace()
    trace.install()
    try:
        assert _wrapped(SynchronousNetwork, "run")
        assert transport_module.encode is not original_encode
        assert serialization.encode is original_encode
    finally:
        trace.uninstall()
    assert not _wrapped(SynchronousNetwork, "run")
    assert transport_module.encode is original_encode


# ----------------------------------------------------------------------
# each check rejects a tampered output
# ----------------------------------------------------------------------

def test_broadcast_check_rejects_one_flipped_byte():
    n, payload = 4, b"payload bytes"
    outputs = {node: payload for node in range(n)}
    messages = checks.erb_logical_messages(n)
    assert checks.check_honest_broadcast(n, payload, outputs, [], 2,
                                         messages) is None
    outputs[2] = _flip(payload, 5)
    assert "payload" in checks.check_honest_broadcast(
        n, payload, outputs, [], 2, messages)


def test_broadcast_check_rejects_wrong_rounds_and_traffic():
    n, payload = 4, b"p"
    outputs = {node: payload for node in range(n)}
    assert checks.check_honest_broadcast(n, payload, outputs, [], 3, 24)
    assert checks.check_honest_broadcast(n, payload, outputs, [], 2, 23)
    assert checks.erb_logical_messages(n) == 2 * n * (n - 1)


def test_omission_check_rejects_tampering():
    payload = b"x" * 32
    outputs = {0: payload, 1: payload, 2: payload, 3: payload}
    rounds = {0: 2, 1: 2, 2: 2, 3: 2}

    def check(**changes):
        args = dict(n=5, t=2, faulty=4, initiator=0, payload=payload,
                    outputs=outputs, decided_rounds=rounds, halted=[4],
                    rounds=2)
        args.update(changes)
        return checks.check_omission_broadcast(**args)

    assert check() is None
    assert check(outputs={**outputs, 1: _flip(payload)})
    assert check(halted=[])
    assert check(halted=[3, 4])
    assert check(rounds=4)
    assert check(decided_rounds={**rounds, 2: 4})
    # A faulty initiator needs agreement only, not its payload.
    other = {node: b"other" for node in range(4)}
    assert check(initiator=4, outputs=other) is None


def _program_epochs(n: int, seed: int, epochs: int):
    beacon = RandomBeacon(n, seed=seed, session=True)
    try:
        out = []
        for _ in range(epochs):
            record = beacon.next_beacon()
            out.append((record, dict(beacon.last_result.outputs)))
        return out
    finally:
        beacon.close()


def test_beacon_chain_matches_the_program():
    chain = checks.BeaconChain(beacon_seed=11, n=5)
    for record, outputs in _program_epochs(5, 11, 3):
        assert chain.check(record.epoch, record.value, record.prev_digest,
                           record.digest, outputs) is None


def test_beacon_check_rejects_a_wrong_value():
    (record, outputs), = _program_epochs(5, 11, 1)
    chain = checks.BeaconChain(beacon_seed=11, n=5)
    wrong = record.value ^ 1
    assert chain.check(record.epoch, wrong, record.prev_digest,
                       checks.record_digest(0, wrong, record.prev_digest),
                       {node: wrong for node in outputs})
    assert chain.epoch == 0          # a failed epoch does not advance


def test_beacon_check_rejects_disagreement():
    (record, outputs), = _program_epochs(5, 11, 1)
    chain = checks.BeaconChain(beacon_seed=11, n=5)
    outputs[3] = record.value ^ (1 << 7)
    assert chain.check(record.epoch, record.value, record.prev_digest,
                       record.digest, outputs)


def test_beacon_check_rejects_a_broken_link():
    epochs = _program_epochs(5, 11, 2)
    chain = checks.BeaconChain(beacon_seed=11, n=5)
    first, second = epochs[0][0], epochs[1][0]
    assert chain.check(first.epoch, first.value, first.prev_digest,
                       first.digest, epochs[0][1]) is None
    bad_prev = _flip(second.prev_digest)
    assert "link" in chain.check(
        second.epoch, second.value, bad_prev,
        checks.record_digest(1, second.value, bad_prev), epochs[1][1])
    assert "digest" in chain.check(
        second.epoch, second.value, second.prev_digest,
        _flip(second.digest, 3), epochs[1][1])


# ----------------------------------------------------------------------
# the command and BENCHMARK.json agree
# ----------------------------------------------------------------------

def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    bench = _bench()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == workloads.PER_LAYER
    assert list(workloads.WORKLOADS) == list(run_cli.WORKLOAD_NAMES)
    gated = [w["name"] for w in bench["workloads"]]
    assert gated == [n for n in workloads.WORKLOADS if n != "beacon_sharded"]
    assert bench["command"] == ["python3", "perfbench/run.py"]


def test_printed_result_has_the_contract_shape():
    wl = dataclasses.replace(workloads.WORKLOADS["wire_beacon"],
                             **TINY["wire_beacon"])
    result = workloads.run(wl, seed=1, seconds=0.05, trace=False,
                           min_timed_ops=4)
    assert isinstance(result.attempted, int) and result.attempted >= 1
    assert all(value > 0 for value in result.metrics.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire_beacon",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
