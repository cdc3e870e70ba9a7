"""In-memory span tracer that instruments flbl from outside.

Spans are recorded by replacing public module attributes of flbl with
timing wrappers while a traced section runs, and restoring them after;
flbl itself carries no tracing code.  The `bits` layer is called millions
of times per run, so it gets call and bit counters instead of spans, and
they are taken in a separate untimed pass: wrapped around every bits call,
they would cost more than some of the layers they sit in.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): the layer boundaries the tracer wraps.
# Build-side layers are wrapped where flbl.build calls them.
LAYER_CALLS = (
    ("flbl.graph", "load_graph", "graph.parse"),
    ("flbl.build", "reduce_degree3", "graph.reduce"),
    ("flbl.build", "build_edge_hierarchy", "hierarchy.build"),
    ("flbl.build", "EulerFrame", "euler.frame"),
    ("flbl.build", "build_simple_labels", "labels_simple.build"),
    ("flbl.build", "build_sqrt_labels", "labels_sqrt.build"),
    ("flbl.build", "build_rand_short", "labels_rand.build"),
    ("flbl.codeshares", "encode", "codeshares.encode"),
    ("flbl.codeshares", "decode", "codeshares.decode"),
    ("flbl.labelfile", "make_label_file", "labelfile.encode"),
    ("flbl.labelfile", "write_label_file", "labelfile.write"),
    ("flbl.labelfile", "read_label_file", "labelfile.read"),
    ("flbl.labelfile", "decode_edge", "labelfile.decode"),
    ("flbl.labelfile", "decode_vertex_label", "labelfile.decode"),
    ("flbl.labels_simple", "query_simple", "labels_simple.query"),
    ("flbl.labels_sqrt", "query_sqrt", "labels_sqrt.query"),
    ("flbl.labels_rand", "query_rand_short", "labels_rand.query"),
)


class Tracer:
    """Spans are (name, start, end, parent index, query id); parent -1 is
    a root.  Bits counters are kept per query id, from a separate pass."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._qid: str | None = None
        self.counts_by_qid: dict[str, dict[str, int]] = {}

    def _open(self, name: str) -> tuple[int, int, float]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, perf_counter()

    def _close(self, idx: int, parent: int, name: str, t0: float):
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self._qid)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx, parent, t0 = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0)
        return traced

    @contextmanager
    def root(self, name: str, qid: str):
        """A root span (one set-up or one query) with flbl's layer calls
        wrapped in spans.  The bits counters are not installed here, so
        their cost lands in no span."""
        self._qid = qid
        restore = []
        for modname, attr, span_name in LAYER_CALLS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            restore.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span_name))
        idx, parent, t0 = self._open(name)
        try:
            yield
        finally:
            self._close(idx, parent, name, t0)
            _restore(restore)
            self._qid = None

    @contextmanager
    def count(self, qid: str):
        """Count the bits calls of one set-up or query, untimed, by
        wrapping BitReader.read and the BitWriter write methods."""
        from flbl.bits import BitReader, BitWriter

        counts = {"bits.read_calls": 0, "bits.read_bits": 0, "bits.write_calls": 0}
        read = BitReader.read

        def counted_read(reader, width):
            counts["bits.read_calls"] += 1
            counts["bits.read_bits"] += width
            return read(reader, width)

        restore = [(BitReader, "read", read)]
        BitReader.read = counted_read
        for attr in ("write", "write_fields", "write_framing"):
            orig = getattr(BitWriter, attr)
            restore.append((BitWriter, attr, orig))
            setattr(BitWriter, attr, _counted(orig, counts))
        try:
            yield
        finally:
            _restore(restore)
            self.counts_by_qid[qid] = counts

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [end - start for (_, start, end, _, _) in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "qid": qid}) + "\n")


def _restore(restore: list[tuple]):
    for obj, attr, orig in restore:
        setattr(obj, attr, orig)


def _counted(method, counts):
    def counted(writer, *args):
        counts["bits.write_calls"] += 1
        return method(writer, *args)
    return counted
