"""Span recorder that wraps nnsig's public functions from outside the package.

``Tracer.install()`` replaces each function in ``TRACED`` at every module
binding that refers to it (``nnsig.matrix.mat_mul`` and
``nnsig.network.mat_mul`` alike, plus the package re-exports), so calls made
inside the library are recorded as well as calls made by the benchmark.  Each
call records one span: id, parent id, name, start and end in nanoseconds, the
CPU time its thread used meanwhile, and the thread.  Spans stay in memory
until ``write()``.  A span's self time is its duration minus the durations of
its child spans; children run on the parent's thread, one after another, so
their durations never overlap.  Self time is kept both as wall time and as
thread CPU time: when two threads compute at once they take turns holding the
interpreter lock, so a span's wall time also counts the other thread's turns.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) pairs; an attribute with a dot is a method on a class.
TRACED = {
    "matrix": (
        "mat_mul", "mat_pow", "mat_inv", "det", "mat_vec", "vec_mat",
        "read_matrix", "encode_matrix", "read_vector", "encode_vector",
    ),
    "network": ("build_network", "unroll"),
    "scheme": (
        "keygen", "sign", "verify", "hash_to_field",
        "serialize_signature", "parse_signature", "parse_public_key", "parse_secret_key",
        "SecretKey.public_key", "SecretKey.signing_matrix",
    ),
    "sync": (
        "SyncSession.dh_message", "SyncSession.receive_dh",
        "SyncSession.public_vector", "SyncSession.finalize", "recv_frame",
    ),
    "hardness": ("make_instance", "brute_force_solve", "estimate"),
}


def span_name(module: str, attr: str) -> str:
    """``matrix.mat_mul``; methods drop their class: ``scheme.public_key``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records nested spans for the functions in ``TRACED`` while installed."""

    def __init__(self) -> None:
        self.spans = []  # (id, parent, name, start_ns, end_ns, cpu_ns, thread)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _wrap(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            cpu_start = cpu_clock()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                cpu = cpu_clock() - cpu_start
                stack.pop()
                spans.append((span_id, parent, name, start, end, cpu, threading.get_ident()))

        return traced

    def install(self) -> None:
        """Swap every binding of every traced function for its wrapper."""
        modules = [m for key, m in sys.modules.items() if key == "nnsig" or key.startswith("nnsig.")]
        for module_name, attrs in TRACED.items():
            home = sys.modules[f"nnsig.{module_name}"]
            for attr in attrs:
                name = span_name(module_name, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, original))
                    self._undo.append((cls, meth, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, attr, None) is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        """name -> [calls, self wall seconds, self CPU seconds] over all spans."""
        child_wall = defaultdict(int)
        child_cpu = defaultdict(int)
        for _, parent, _, start, end, cpu, _ in self.spans:
            if parent:
                child_wall[parent] += end - start
                child_cpu[parent] += cpu
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, name, start, end, cpu, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start - child_wall[span_id]) / 1e9
            entry[2] += (cpu - child_cpu[span_id]) / 1e9
        return dict(out)

    def write(self, path, record: dict) -> None:
        """One JSON header line with the run record, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"record": record}) + "\n")
            for span_id, parent, name, start, end, cpu, thread in self.spans:
                fh.write(
                    f'{{"id":{span_id},"parent":{parent},"name":"{name}","start_ns":{start},'
                    f'"end_ns":{end},"cpu_ns":{cpu},"thread":{thread}}}\n'
                )
