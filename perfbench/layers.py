"""Timing and counting wrappers at the program's layer boundaries.

The traced run installs these from the benchmark's own files; nothing is
added inside ``src/repro``.  Each wrapper times one public entry point of
a layer and records into the program's process-wide profiling registry
(:data:`repro.obs.metrics.PROFILER`).  That registry is the one the
sharded engine already ships home from its forked workers at the end of
every run, so calls made inside shard workers are counted too.

Times are inclusive: a layer's time contains the time of the layers it
calls (``channel.write`` contains ``crypto.aead_seal``).

Install before any network is built: the engine caches bound handlers
and transport methods when it builds a network, so a wrapper installed
later would miss them.  :meth:`LayerTrace.uninstall` restores every
original.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.apps.beacon  # noqa: F401  (load every module that binds encode/decode)
import repro.net.parallel  # noqa: F401
import repro.net.wire  # noqa: F401
from repro.channel.peer_channel import SecureChannel
from repro.common import serialization
from repro.core.erb import ErbProgram
from repro.core.erng import ErngProgram
from repro.crypto.aead import AEAD
from repro.crypto.dh import DiffieHellman
from repro.net.simulator import SynchronousNetwork
from repro.net.transport import FullTransport, ModeledTransport, PlainTransport
from repro.obs.metrics import PROFILER
from repro.sgx.attestation import AttestationAuthority

#: Prefix of every registry entry the wrappers write, so they never mix
#: with the program's own profiling names.
PREFIX = "bench."


def _arg_len(index: int) -> Callable[..., int]:
    """Byte count of positional argument ``index``."""
    return lambda args, kwargs: len(args[index])


_TRANSPORTS = (FullTransport, ModeledTransport, PlainTransport)

#: (stem, owner, attribute, byte counter or None).  Methods are looked up
#: on the owner class; stems are shared where several entry points make
#: up one layer operation (all seal forms of all transports).
METHODS: List[Tuple[str, type, str, Optional[Callable]]] = [
    ("session.recycle", SynchronousNetwork, "begin_session_run", None),
    ("engine.run", SynchronousNetwork, "run", None),
    *[
        (stem, cls, attr, None)
        for cls in _TRANSPORTS
        for stem, attr in (
            ("transport.seal", "write"),
            ("transport.seal", "seal_envelope"),
            ("transport.seal", "seal_envelope_wave"),
            ("transport.open", "read"),
            ("transport.open", "open_envelope"),
            ("transport.open", "open_envelope_wave"),
        )
    ],
    ("channel.establish", SecureChannel, "establish", None),
    ("channel.write", SecureChannel, "write", None),
    ("channel.write", SecureChannel, "write_envelope", None),
    ("channel.read", SecureChannel, "read", None),
    ("channel.read", SecureChannel, "read_envelope", None),
    ("sgx.quote_issue", AttestationAuthority, "issue_quote", None),
    ("sgx.quote_verify", AttestationAuthority, "verify_quote", None),
    ("crypto.dh_keygen", DiffieHellman, "generate_keypair", None),
    ("crypto.dh_agree", DiffieHellman, "shared_secret", None),
    ("crypto.aead_seal", AEAD, "seal", _arg_len(1)),
    ("crypto.aead_open", AEAD, "open", _arg_len(1)),
    ("core.handler", ErbProgram, "on_message", None),
    ("core.handler", ErngProgram, "on_message", None),
]

#: Module-level functions, replaced wherever a ``repro`` module bound them
#: by name (``from repro.common.serialization import encode``).  The
#: defining module keeps its original, so recursive calls inside
#: ``encode`` are not counted as calls into the layer.
FUNCTIONS: List[Tuple[str, object, str, Optional[Callable]]] = [
    ("serialization.encode", serialization, "encode", None),
    ("serialization.decode", serialization, "decode", _arg_len(0)),
]


def _wrap(fn: Callable, stem: str, nbytes: Optional[Callable]) -> Callable:
    hist = PREFIX + stem

    if nbytes is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                PROFILER.observe(hist, perf_counter() - t0)
        return wrapper

    counter = hist + "_bytes"

    @functools.wraps(fn)
    def wrapper_bytes(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            PROFILER.observe(hist, perf_counter() - t0)
            PROFILER.registry.counter(counter).inc(nbytes(args, kwargs))
    return wrapper_bytes


class LayerTrace:
    """Installs the wrappers and reads what they recorded."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("layer wrappers are already installed")
        PROFILER.enable()
        for stem, cls, attr, nbytes in METHODS:
            if attr not in cls.__dict__:
                continue        # inherited: the defining class is listed
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(raw.__func__, stem, nbytes))
            else:
                wrapped = _wrap(raw, stem, nbytes)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        for stem, module, attr, nbytes in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = _wrap(original, stem, nbytes)
            for name, loaded in list(sys.modules.items()):
                if (
                    loaded is None
                    or loaded is module
                    or not (name == "repro" or name.startswith("repro."))
                ):
                    continue
                for key, value in vars(loaded).items():
                    if value is original:
                        self._undo.append((loaded, key, original))
                        setattr(loaded, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        PROFILER.disable()

    @staticmethod
    def snapshot() -> Dict[str, float]:
        """``{stem_calls, stem_s, stem_bytes}`` totals recorded so far."""
        out: Dict[str, float] = {}
        registry = PROFILER.registry
        if registry is None:
            return out
        dump = registry.dump()
        for name, hist in dump["histograms"].items():
            if name.startswith(PREFIX):
                stem = name[len(PREFIX):]
                out[stem + "_calls"] = hist["count"]
                out[stem + "_s"] = hist["total"]
        for name, value in dump["counters"].items():
            if name.startswith(PREFIX):
                out[name[len(PREFIX):]] = value
        return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}

