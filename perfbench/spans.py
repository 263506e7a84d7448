"""Span recording for the traced run, and the per-module figures derived from it.

The tracer rebinds public thcr functions to timing wrappers. A function is
rebound in every thcr module that holds it under its name, so calls made
through an import-by-name (``dynamics`` imports ``char_poly``) or through a
module's globals (``generator_degrees`` calls ``decompose_fast``) are seen.

Each call records one span: name, start, end and parent span, plus two
integers a probe reads off the call (a 0/1 flag and a size such as a bit
length). Spans stay in typed arrays until the run ends, are written to one
span file, and every per-module figure is derived from that file.
"""

from __future__ import annotations

import array
import contextlib
import json
import sys
import time
from dataclasses import dataclass

_COLUMNS = (("name", "i"), ("parent", "i"), ("start", "q"), ("end", "q"),
            ("flag", "b"), ("size", "q"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {col: array.array(code) for col, code in _COLUMNS}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        c = self.cols
        sid = len(c["start"])
        c["name"].append(nid)
        c["parent"].append(self._stack[-1] if self._stack else -1)
        c["flag"].append(0)
        c["size"].append(0)
        c["end"].append(0)
        self._stack.append(sid)
        c["start"].append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.cols["end"][sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, probe):
        nid = self.name_id(name)
        flags, sizes = self.cols["flag"], self.cols["size"]

        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if probe is not None:
                flags[sid], sizes[sid] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Rebind each (module, function name, probe) target while the block runs."""
        thcr_modules = [m for k, m in sys.modules.items()
                        if m is not None and (k == "thcr" or k.startswith("thcr."))]
        try:
            for module, fname, probe in targets:
                original = getattr(module, fname)
                short = module.__name__.rsplit(".", 1)[-1]
                wrapper = self._wrap(original, f"{short}.{fname}", probe)
                for mod in thcr_modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
            yield self
        finally:
            while self._undo:
                mod, key, original = self._undo.pop()
                setattr(mod, key, original)

    def write(self, path) -> None:
        count = len(self.cols["start"])
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": count,
                      "columns": [[col, code] for col, code in _COLUMNS]}
            handle.write(json.dumps(header).encode() + b"\n")
            for col, _ in _COLUMNS:
                self.cols[col].tofile(handle)


@dataclass
class SpanFile:
    names: list[str]
    cols: dict[str, array.array]

    @property
    def count(self) -> int:
        return len(self.cols["start"])


def read_spans(path) -> SpanFile:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        cols = {}
        for col, code in header["columns"]:
            cols[col] = array.array(code)
            cols[col].fromfile(handle, header["count"])
    return SpanFile(header["names"], cols)


@dataclass
class NameStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    flag_sum: int = 0
    size_sum: int = 0
    size_max: int = 0


def summarize(spans: SpanFile, groups: dict[str, tuple[str, ...]]):
    """Per span name: calls, busy and self time, flag count, size total and maximum.

    Busy time is the union of a name's spans, so a call nested inside a call
    of the same name is not counted twice. Self time is a span's duration
    minus the time its child spans cover; children of one parent never
    overlap, because the traced code runs on one thread.

    ``groups`` maps a label to span-name prefixes; the union of all spans
    whose name starts with one of them is returned as that label's busy time.
    """
    c = spans.cols
    name, parent, start, end = c["name"], c["parent"], c["start"], c["end"]
    n = spans.count
    child_ns = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_ns[p] += end[i] - start[i]
    stats = [NameStats() for _ in spans.names]
    last_end = [-1] * len(spans.names)
    group_of = {}
    for label, prefixes in groups.items():
        for nid, nm in enumerate(spans.names):
            if nm.startswith(prefixes):
                group_of.setdefault(nid, []).append(label)
    group_busy = {label: 0 for label in groups}
    group_end = {label: -1 for label in groups}
    for i in range(n):
        nid = name[i]
        dur = end[i] - start[i]
        s = stats[nid]
        s.calls += 1
        s.self_ns += dur - child_ns[i]
        s.flag_sum += c["flag"][i]
        s.size_sum += c["size"][i]
        s.size_max = max(s.size_max, c["size"][i])
        # spans are stored in start order, so a span starting before the
        # last counted end of its name lies inside that span
        if start[i] >= last_end[nid]:
            s.busy_ns += dur
            last_end[nid] = end[i]
        for label in group_of.get(nid, ()):
            if start[i] >= group_end[label]:
                group_busy[label] += dur
                group_end[label] = end[i]
    return {nm: stats[nid] for nid, nm in enumerate(spans.names)}, group_busy


def count_children(spans: SpanFile, child: str, parent_name: str, flag=None) -> int:
    """Spans named ``child`` whose parent is named ``parent_name`` (and whose flag matches)."""
    names = spans.names
    if child not in names or parent_name not in names:
        return 0
    cid, pid = names.index(child), names.index(parent_name)
    c = spans.cols
    total = 0
    for i in range(spans.count):
        p = c["parent"][i]
        if c["name"][i] == cid and p >= 0 and c["name"][p] == pid:
            if flag is None or c["flag"][i] == flag:
                total += 1
    return total


def durations(spans: SpanFile, name: str) -> list[int]:
    """Durations in ns of every span called ``name``."""
    if name not in spans.names:
        return []
    nid = spans.names.index(name)
    c = spans.cols
    return [c["end"][i] - c["start"][i] for i in range(spans.count) if c["name"][i] == nid]
