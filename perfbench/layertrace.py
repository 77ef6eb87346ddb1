"""Per-layer host-time attribution with a profiler hook.

:class:`LayerTracer` installs a ``sys.setprofile`` hook for the length of
a ``with`` block.  Each Python function is charged to the layer package
of ``src/repro`` that defines it (``sim``, ``host``, ``net``,
``pairedmsg``, ``rpc``, ``core``, ``obs``); every other repro module
and the benchmark's own code count as ``other``.  Builtins and library
code outside repro (``random``, ``dataclasses``, ...) inherit the layer
of their caller, so the per-layer self times sum to the traced host
time.  The hook's own bookkeeping runs between two clock reads and is
charged to no layer.

The hook also counts the layer-boundary work that no program counter
records, from the public functions where it happens: bytes through the
rpc message codec, replies fed to collators, data segments split off
and data segments put on the wire, and events emitted on the bus.
"""

from __future__ import annotations

import collections
import inspect
import os
import sys
import time
from typing import Callable, Dict, Optional

from repro.core import collators
from repro.net.network import Network
from repro.obs.bus import EventBus
from repro.pairedmsg import segments
from repro.rpc import messages

LAYERS = ("sim", "host", "net", "pairedmsg", "rpc", "core", "obs")
OTHER = "other"

_REPRO_DIR = os.path.dirname(os.path.abspath(segments.__file__))
_REPRO_DIR = os.path.dirname(_REPRO_DIR) + os.sep


def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to: a name from :data:`LAYERS`,
    ``other`` for the rest of repro and the benchmark, or None for code
    outside both (which inherits its caller's layer)."""
    path = os.path.abspath(filename)
    if path.startswith(_REPRO_DIR):
        package = path[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return package if package in LAYERS else OTHER
    if os.path.dirname(path) == os.path.dirname(os.path.abspath(__file__)):
        return OTHER
    return None


class LayerTracer:
    """Self host time per layer, plus boundary counts, for a block."""

    def __init__(self):
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        self.counts: Dict[str, int] = collections.Counter()
        self._layers: Dict[object, Optional[str]] = {}
        self._stack = [OTHER]
        self._on_call: Dict[object, Callable] = {}
        self._on_return: Dict[object, Callable] = {}
        self._watch()

    def _watch(self) -> None:
        def count(key, size=None):
            def handler(frame, arg):
                self.counts[key] += 1 if size is None else size(frame, arg)
            return handler

        for fn in (messages.encode_call, messages.encode_return,
                   messages.encode_error):
            self._on_return[fn.__code__] = count(
                "rpc_bytes", lambda frame, arg: len(arg) if arg else 0)
        for fn in (messages.decode_call, messages.decode_return):
            self._on_call[fn.__code__] = count(
                "rpc_bytes", lambda frame, arg: len(frame.f_locals["data"]))
        for _, cls in inspect.getmembers(collators, inspect.isclass):
            if cls.__module__ == collators.__name__ and "add" in vars(cls):
                self._on_call[cls.add.__code__] = count("collator_adds")
        self._on_return[segments.split_message.__code__] = count(
            "segments_split", lambda frame, arg: len(arg) if arg else 0)
        self._on_call[Network.send.__code__] = count(
            "data_segments_sent", self._is_data_segment)
        self._on_call[EventBus.emit.__code__] = count("bus_emits")

    @staticmethod
    def _is_data_segment(frame, arg) -> int:
        segment = segments.decode(frame.f_locals["datagram"].payload)
        return int(not segment.ack and segment.msg_type in (
            segments.MSG_CALL, segments.MSG_RETURN))

    def _make_hook(self):
        """The profiler hook, as a closure over locals for speed.  Only
        Python calls and returns move time between layers; builtin
        calls (``c_call``/``c_return``) are ignored, so their time stays
        with the caller's layer."""
        perf_counter = time.perf_counter
        self_s = self.self_s
        layers = self._layers
        on_call = self._on_call
        on_return = self._on_return
        stack = self._stack
        last = perf_counter()

        def hook(frame, event, arg):
            nonlocal last
            if event == "call":
                now = perf_counter()
                current = stack[-1]
                self_s[current] += now - last
                code = frame.f_code
                try:
                    layer = layers[code]
                except KeyError:
                    layer = layers[code] = layer_of_file(code.co_filename)
                stack.append(current if layer is None else layer)
                handler = on_call.get(code)
                if handler is not None:
                    handler(frame, arg)
                last = perf_counter()
            elif event == "return":
                now = perf_counter()
                self_s[stack.pop() if len(stack) > 1 else stack[0]] += (
                    now - last)
                handler = on_return.get(frame.f_code)
                if handler is not None:
                    handler(frame, arg)
                last = perf_counter()

        return hook

    def __enter__(self) -> "LayerTracer":
        # The bottom entry stands for frames that were already running
        # when the hook went in; returns from them are charged to it.
        self._stack[:] = [OTHER]
        sys.setprofile(self._make_hook())
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)

    @property
    def traced_s(self) -> float:
        return sum(self.self_s.values())
