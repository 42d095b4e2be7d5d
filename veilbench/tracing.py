"""In-memory span tracer that times calls into veil's layers from outside.

`Tracer.install()` replaces each public function at the name its caller
looks it up under -- a module global such as ``veil.chain.verify``, a class
attribute such as ``ConstraintSystem.serialize``, or a module's own ``copy``
reference -- with a wrapper that records a span (name, start, end, parent,
thread).  `uninstall()` puts the originals back, so untraced runs execute the
program exactly as shipped.  Spans stay in memory until `dump()`.

A span's parent is the innermost open span of its own thread; a thread with
no open span (the lowering workers of `compile_source`) hangs its spans under
the innermost open span of the thread that installed the tracer.  A layer's
self time is its span's duration minus the union of its children's
intervals, so children that overlap in time are not subtracted twice.
"""
from __future__ import annotations

import copy as _copy
import importlib
import inspect
import json
import re
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

# (module, attribute path, layer name): each is patched where callers find it
SPAN_TARGETS = [
    ("veil.compiler", "compile_source", "compiler.compile_source"),
    ("veil.compiler", "load_artifact", "compiler.load_artifact"),
    ("veil.compiler", "parse", "parser.parse"),
    ("veil.compiler", "analyze", "analysis.analyze"),
    ("veil.compiler", "transform_contract", "transform.transform_contract"),
    ("veil.compiler", "inline_calls", "lowering.inline_calls"),
    ("veil.compiler", "lower", "lowering.lower"),
    ("veil.compiler", "keygen", "proving.keygen"),
    ("veil.proving", "keygen", "proving.keygen"),
    ("veil.proving", "KeyCache.get_or_generate", "proving.keycache"),
    ("veil.compiler", "build_manifest", "emit.emit"),
    ("veil.compiler", "emit_main_contract", "emit.emit"),
    ("veil.compiler", "emit_verifier_contract", "emit.emit"),
    ("veil.compiler", "emit_pki_contract", "emit.emit"),
    ("veil.compiler", "manifest_bytes", "emit.emit"),
    ("veil.compiler", "write_output_dir", "compiler.write_output_dir"),
    ("veil.r1cs", "ConstraintSystem.serialize", "r1cs.serialize"),
    ("veil.r1cs", "ConstraintSystem.generate_witness", "r1cs.generate_witness"),
    ("veil.r1cs", "ConstraintSystem.check", "r1cs.check"),
    ("veil.runtime", "prove", "proving.prove"),
    ("veil.chain", "verify", "proving.verify"),
    ("veil.crypto", "DummyBackend.enc", "crypto.enc"),
    ("veil.crypto", "DummyBackend.dec", "crypto.dec"),
    ("veil.crypto", "DummyBackend.keygen", "crypto.keygen"),
    ("veil.crypto", "DhArxBackend.enc", "crypto.enc"),
    ("veil.crypto", "DhArxBackend.dec", "crypto.dec"),
    ("veil.crypto", "DhArxBackend.keygen", "crypto.keygen"),
    ("veil.runtime", "connect", "runtime.connect"),
    ("veil.runtime", "account_keys", "runtime.account_keys"),
    ("veil.runtime", "verify_integrity", "runtime.verify_integrity"),
    ("veil.runtime", "ContractInterface.call", "runtime.call"),
    ("veil.runtime", "ContractInterface.simulate_call", "runtime.simulate"),
    ("veil.runtime", "ContractInterface.encode_args", "runtime.encode_args"),
    ("veil.chain", "MockChain.transact", "chain.transact"),
    ("veil.chain", "MockChain.load", "chain.load"),
    ("veil.chain", "MockChain.save", "chain.save"),
]
# calls that are counted, per phase, but get no span, so their time stays
# with the caller
COUNT_TARGETS = [
    ("veil.sha256gadget", "Sha256Gadget.compress", "sha256gadget.compressions"),
]
# modules whose `copy.deepcopy` copies contract storage
COPY_TARGETS = [("veil.runtime", "runtime.storage_copy"),
                ("veil.chain", "chain.storage_copy")]

PHASE_PREFIX = "bench."

# constraint tags are grouped by their leading letters ("sha.xor" -> sha,
# "range<32>" -> range, "add32" -> add); anything else counts as "other"
TAG_PREFIXES = ("sha", "pub", "ladder", "shared", "plain", "pk", "sk", "arx",
                "iv", "keypair", "add", "range", "enc", "zero", "dummy", "cmp",
                "mux", "eq")

TIMED_LAYERS = list(dict.fromkeys([name for _m, _p, name in SPAN_TARGETS] +
                                   [name for _m, name in COPY_TARGETS]))
CALL_COUNTED = ["r1cs.serialize", "crypto.enc", "crypto.dec", "crypto.keygen"]


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}_s": "s" for layer in TIMED_LAYERS}
    units["bench.unattributed_s"] = "s"
    units.update({f"{layer}_calls": "count" for layer in CALL_COUNTED})
    units.update({
        "proving.keys_generated": "count", "proving.keys_reused": "count",
        "sha256gadget.compressions": "count", "chain.storage_entries": "count",
        "chain.file_mb": "MB", "trace.spans": "count", "trace.overhead_pct": "%",
        "bench.probe_ms": "ms",
    })
    units.update({f"lowering.constraints.{p}": "count"
                  for p in TAG_PREFIXES + ("other",)})
    return units


def tag_prefix(tag: str) -> str:
    head = re.match(r"[a-z_]*", tag).group(0)
    return head if head in TAG_PREFIXES else "other"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class _CopyProxy:
    """Stands in for a module's `copy` reference: `deepcopy` is traced and
    every other attribute comes from the real `copy` module."""

    def __init__(self, deepcopy):
        self.deepcopy = deepcopy

    def __getattr__(self, attr):
        return getattr(_copy, attr)


def _storage_entries(value) -> int:
    """Leaf entries of a storage dict; mapping values are homogeneous, so one
    value tells whether a mapping nests further."""
    if not isinstance(value, dict):
        return 1
    total = 0
    for v in value.values():
        if isinstance(v, dict) and v:
            first = next(iter(v.values()))
            total += sum(_storage_entries(x) for x in v.values()) \
                if isinstance(first, dict) else len(v)
        else:
            total += 1
    return total


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, thread]
        self.counts: Counter = Counter()
        self._stacks: Dict[int, List[int]] = {}
        self._root_thread = threading.get_ident()
        self._patches: list = []
        self._lock = threading.Lock()  # lowering workers open spans too

    # -- recording --

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent: Optional[int] = stack[-1]
        else:
            root = self._stacks.get(self._root_thread)
            parent = root[-1] if root else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tid])
        stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stacks[self.spans[idx][4]].pop()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    @contextmanager
    def phase(self, name: str):
        """A benchmark phase: a root span."""
        idx = self._open(PHASE_PREFIX + name)
        try:
            yield
        finally:
            self._close(idx)

    def _timed(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def current_phase(self) -> Optional[str]:
        root = self._stacks.get(self._root_thread)
        return self.spans[root[0]][0][len(PHASE_PREFIX):] if root else None

    def _counted(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[f"{tracer.current_phase()}:{name}"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --

    def _patch(self, owner, attr: str, make):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in SPAN_TARGETS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, lambda fn, name=name: self._timed(fn, name))
        for module_name, path, name in COUNT_TARGETS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, lambda fn, name=name: self._counted(fn, name))
        for module_name, name in COPY_TARGETS:
            module = importlib.import_module(module_name)
            deepcopy = self._timed(_copy.deepcopy, name)
            if name == "chain.storage_copy":
                deepcopy = self._with_entry_count(deepcopy)
            self._patch(module, "copy", lambda _m, d=deepcopy: _CopyProxy(d))

    def _with_entry_count(self, deepcopy):
        counts = self.counts

        def wrapper(value, *args, **kwargs):
            counts["chain.storage_copies"] += 1
            counts["chain.storage_entries"] += _storage_entries(value)
            return deepcopy(value, *args, **kwargs)

        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis --

    def self_times(self) -> List[float]:
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(i)
        out = []
        for i, (_name, start, end, _parent, _tid) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2])
                                 for c in children[i]):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def _root_of(self, i: int) -> int:
        while self.spans[i][3] is not None:
            i = self.spans[i][3]
        return i

    def _in_phases(self):
        """(span, its phase, self seconds) for every span under a phase; spans
        of the checks between phases are left out."""
        for i, self_s in enumerate(self.self_times()):
            root = self.spans[self._root_of(i)][0]
            if root.startswith(PHASE_PREFIX):
                yield self.spans[i], root[len(PHASE_PREFIX):], self_s

    @staticmethod
    def _layer(name: str) -> str:
        return "bench.unattributed" if name.startswith(PHASE_PREFIX) else name

    def by_phase(self) -> Dict[str, Dict[str, float]]:
        """Self seconds per layer within each benchmark phase; a phase's own
        self time is reported as `bench.unattributed`."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, phase, self_s in self._in_phases():
            out[phase][self._layer(span[0])] += self_s
        return {p: dict(v) for p, v in out.items()}

    def phase_walls(self) -> Dict[str, float]:
        walls: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _tid in self.spans:
            if parent is None and name.startswith(PHASE_PREFIX):
                walls[name[len(PHASE_PREFIX):]] += end - start
        return dict(walls)

    def layer_metrics(self) -> Dict[str, float]:
        """Self time per layer and call counts over the phases' spans."""
        totals: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, _phase, self_s in self._in_phases():
            totals[self._layer(span[0])] += self_s
            calls[span[0]] += 1
        n_spans = sum(calls.values())
        metrics = {f"{layer}_s": totals.get(layer, 0.0)
                   for layer in TIMED_LAYERS + ["bench.unattributed"]}
        metrics.update({f"{layer}_calls": calls[layer] for layer in CALL_COUNTED})
        copies = self.counts["chain.storage_copies"]
        metrics["chain.storage_entries"] = \
            self.counts["chain.storage_entries"] / copies if copies else 0
        metrics["trace.spans"] = n_spans
        return metrics

    def dump(self, path: str, extra: dict):
        """Write every span plus the per-phase summary as JSON."""
        data = dict(extra)
        data["phase_wall_s"] = self.phase_walls()
        data["phase_self_s"] = self.by_phase()
        data["spans"] = [{"name": n, "start": s, "end": e, "parent": p,
                          "thread": t} for n, s, e, p, t in self.spans]
        with open(path, "w") as f:
            json.dump(data, f, indent=1)
