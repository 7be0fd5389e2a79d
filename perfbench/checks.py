"""Correctness checks computed apart from the program.

Nothing here imports ``repro``.  The beacon checks rebuild the epoch
seeds, the enclave RDRAND draws and the hash chain from their documented
definitions with :mod:`hashlib` alone:

* a generator seeded with ``s`` keys itself with
  ``SHA-256(b"repro-rng:" + repr(s))``; ``fork(label)`` keys a child with
  ``SHA-256(key + b"|fork|" + repr(label))``; output block ``i`` is
  ``SHA-256(key + i as 8 big-endian bytes)``, and a ``k``-bit draw takes
  the first ``ceil(k/8)`` bytes, big-endian, shifted right to ``k`` bits;
* node ``i``'s contribution to an epoch run with engine seed ``s`` is the
  first :data:`RANDOM_BITS`-bit draw of
  ``rng(("simulation", s)).fork(("rdrand", i))``;
* ``H_d(x) = SHA-256(b"repro-hash:" + d + b"\\x00" + x)`` and values are
  hashed in the program's tagged length-prefixed encoding;
* epoch ``e``'s engine seed is the first 8 bytes of
  ``H_beacon-epoch-seed(enc((beacon_seed, e, prev)))`` with ``prev = b""``
  for epoch 0 and the previous record digest after it;
* record ``e``'s digest is ``H_beacon-record(enc((e, value, prev)))``,
  anchored at ``GENESIS = H_beacon-record(b"beacon-genesis")``.

Every check returns ``None`` when the output is right and a short reason
when it is not, so a failed operation can say why.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Optional, Sequence

#: Bits of every node's epoch contribution.  The beacon workloads ask the
#: program for contributions of this size, and the checks recompute them.
RANDOM_BITS = 128


# ----------------------------------------------------------------------
# the documented primitives, rebuilt
# ----------------------------------------------------------------------

def _rng_key(seed: object) -> bytes:
    return hashlib.sha256(b"repro-rng:" + repr(seed).encode("utf-8")).digest()


def _fork_key(key: bytes, label: object) -> bytes:
    return hashlib.sha256(key + b"|fork|" + repr(label).encode("utf-8")).digest()


def _first_bits(key: bytes, k: int) -> int:
    nbytes = (k + 7) // 8
    stream = b""
    block = 0
    while len(stream) < nbytes:
        stream += hashlib.sha256(key + block.to_bytes(8, "big")).digest()
        block += 1
    return int.from_bytes(stream[:nbytes], "big") >> (8 * nbytes - k)


def contribution(engine_seed: int, node_id: int) -> int:
    """Node ``node_id``'s RDRAND draw in a run seeded ``engine_seed``."""
    key = _fork_key(_rng_key(("simulation", engine_seed)), ("rdrand", node_id))
    return _first_bits(key, RANDOM_BITS)


def _enc(value: object) -> bytes:
    """The tagged length-prefixed encoding, for the types the chain uses."""
    if isinstance(value, bool):
        raise TypeError("booleans are not part of the beacon chain")
    if isinstance(value, int):
        sign = b"-" if value < 0 else b"+"
        magnitude = abs(value)
        body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        return b"i" + (len(body) + 1).to_bytes(4, "big") + sign + body
    if isinstance(value, bytes):
        return b"b" + len(value).to_bytes(4, "big") + value
    if isinstance(value, tuple):
        return b"t" + len(value).to_bytes(4, "big") + b"".join(
            _enc(item) for item in value
        )
    raise TypeError(f"unsupported chain value {type(value).__name__}")


def _hash(domain: str, data: bytes) -> bytes:
    return hashlib.sha256(
        b"repro-hash:" + domain.encode("utf-8") + b"\x00" + data
    ).digest()


GENESIS = _hash("beacon-record", b"beacon-genesis")


def epoch_engine_seed(beacon_seed: int, epoch: int, prev: bytes) -> int:
    material = _hash("beacon-epoch-seed", _enc((beacon_seed, epoch, prev)))
    return int.from_bytes(material[:8], "big")


def record_digest(epoch: int, value: int, prev: bytes) -> bytes:
    return _hash("beacon-record", _enc((epoch, value, prev)))


# ----------------------------------------------------------------------
# the beacon chain, followed epoch by epoch
# ----------------------------------------------------------------------

class BeaconChain:
    """The expected chain of one beacon, advanced one epoch at a time.

    :meth:`check` compares one epoch's published record and every node's
    output against the value and digests recomputed here; only a correct
    epoch advances the chain, so one bad epoch fails every later one too
    (a broken link cannot be silently skipped).
    """

    def __init__(self, beacon_seed: int, n: int) -> None:
        self.beacon_seed = beacon_seed
        self.n = n
        self.epoch = 0
        self._prev_seed = b""
        self._prev_record = GENESIS

    def expected_value(self) -> int:
        seed = epoch_engine_seed(self.beacon_seed, self.epoch, self._prev_seed)
        value = 0
        for node in range(self.n):
            value ^= contribution(seed, node)
        return value

    def check(
        self,
        record_epoch: int,
        value: int,
        prev_digest: bytes,
        digest: bytes,
        node_outputs: Mapping[int, object],
    ) -> Optional[str]:
        """Check one epoch; advances the chain only when it is right."""
        if sorted(node_outputs) != list(range(self.n)):
            return f"outputs from {len(node_outputs)} of {self.n} nodes"
        if any(out != value for out in node_outputs.values()):
            return "nodes disagree on the epoch value"
        if record_epoch != self.epoch:
            return f"record epoch {record_epoch}, expected {self.epoch}"
        if value != self.expected_value():
            return "epoch value is not the XOR of the RDRAND contributions"
        if prev_digest != self._prev_record:
            return "record does not link to the previous digest"
        expected = record_digest(self.epoch, value, self._prev_record)
        if digest != expected:
            return "record digest does not match its contents"
        self.epoch += 1
        self._prev_seed = expected
        self._prev_record = expected
        return None


# ----------------------------------------------------------------------
# reliable broadcast
# ----------------------------------------------------------------------

def erb_logical_messages(n: int) -> int:
    """Algorithm 2, all honest: INIT to N-1 peers, N-1 ECHO multicasts to
    N-1 peers each, and one ACK per INIT and ECHO: ``2N(N-1)``."""
    init = n - 1
    echo = (n - 1) * (n - 1)
    return 2 * (init + echo)


def check_honest_broadcast(
    n: int,
    payload: bytes,
    outputs: Mapping[int, object],
    halted: Sequence[int],
    rounds: int,
    messages: int,
) -> Optional[str]:
    if halted:
        return f"nodes {sorted(halted)} halted in an honest run"
    if sorted(outputs) != list(range(n)):
        return f"outputs from {len(outputs)} of {n} nodes"
    wrong = [node for node, out in outputs.items() if out != payload]
    if wrong:
        return f"nodes {wrong[:5]} output something other than the payload"
    if rounds != 2:
        return f"decided in {rounds} rounds, expected 2"
    if messages != erb_logical_messages(n):
        return f"{messages} logical messages, expected {erb_logical_messages(n)}"
    return None


def check_omission_broadcast(
    n: int,
    t: int,
    faulty: int,
    initiator: int,
    payload: bytes,
    outputs: Mapping[int, object],
    decided_rounds: Mapping[int, Optional[int]],
    halted: Iterable[int],
    rounds: int,
) -> Optional[str]:
    """One faulty node (``f = 1``): agreement among the honest, validity
    when the initiator is honest, termination within ``min(f+2, t+2)``
    rounds, and halt-on-divergence of exactly the faulty node (P4)."""
    halted = sorted(halted)
    if halted != [faulty]:
        return f"halted {halted}, expected exactly [{faulty}]"
    honest = [node for node in range(n) if node != faulty]
    missing = [node for node in honest if node not in outputs]
    if missing:
        return f"honest nodes {missing} did not decide"
    values = {outputs[node] for node in honest}
    if len(values) != 1:
        return "honest nodes disagree"
    if initiator != faulty and values != {payload}:
        return "honest initiator's payload was not delivered"
    bound = min(1 + 2, t + 2)
    if rounds > bound:
        return f"ran {rounds} rounds, bound {bound}"
    late = [node for node in honest if (decided_rounds.get(node) or 0) > bound]
    if late:
        return f"nodes {late} decided after round {bound}"
    return None
