"""Per-layer tracing of qreal from outside the package.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds each wrapper in every ``qreal.*`` namespace that holds the original
by name, so calls between modules are seen as well as the benchmark's own.
Each wrapped call is a span (op, span id, parent span, name, start, end),
kept in memory; a layer's self time is its span time minus its child
spans.  Work a function does without calling another wrapped function
(for instance ``np.linalg.eigh`` called straight from ``lattice``) is that
function's self time.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
from collections import Counter

LAYERS = {
    "numlin": ("null_basis", "eigh", "range_basis", "probe_compress"),
    "lattice": ("meet", "join", "complement", "sasaki", "biconditional", "com_family"),
    "spectral": ("spectral_family", "spectral_projection", "apply_value_map", "born_distribution"),
    "qlang": ("parse",),
    "qlogic": ("truth_projection", "value_identity", "holds_in", "jointly_determinate",
               "nowhere_commuting", "jpd_exists"),
    "measure": ("meter_output", "povm", "measures_in_state", "rms_noise",
                "uncertainty_report", "context_report", "search_simultaneous"),
    "cli": ("main", "load_model", "load_observable", "load_state", "save_witness"),
}


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


# Content keys of the inputs whose repeats the waste ratios count.
_KEYS = {
    "spectral.spectral_family": lambda obs, *a, **k: _digest(obs.matrix),
    "lattice.com_family": lambda projs, *a, **k: _digest(*(p.matrix for p in projs)),
    "measure.meter_output": lambda model, *a, **k: _digest(
        model.unitary, model.meter.matrix, model.probe_state),
}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.self_ms", "ms", "lower"))
    out.append(("measure.search.restarts", "count", "lower"))
    out.append(("measure.search.restart_ms_p50", "ms", "lower"))
    for name in _KEYS:
        out.append((f"{name}.distinct_per_call", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._op = -1
        self._active = False
        self._seen: dict[str, set] = {name: set() for name in _KEYS}
        self.distinct = Counter()
        self.keyed_calls = Counter()
        self.restarts: list[int] = []
        self.restart_s: list[float] = []

    def install(self) -> None:
        for layer, functions in LAYERS.items():
            module = sys.modules[f"qreal.{layer}"]
            for fn in functions:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "qreal" or name.startswith("qreal.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def begin_op(self) -> None:
        """Start a new op: repeats are counted within one op only."""
        self._flush_keys()
        self._op += 1
        self._active = True

    def end_op(self) -> None:
        """Stop recording until the next op, so answer checks go unseen."""
        self._active = False

    def _flush_keys(self) -> None:
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def _wrap(self, name: str, fn):
        key_of = _KEYS.get(name)
        is_search = name == "measure.search_simultaneous"

        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            if key_of is not None:
                self._seen[name].add(key_of(*args, **kwargs))
                self.keyed_calls[name] += 1
            if is_search:
                kwargs["progress"] = self._restart_clock(kwargs.get("progress"))
            span = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self._op, span, parent, name, 0.0, 0.0))
            self._stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span] = (self._op, span, parent, name, start, end)

        traced.__wrapped__ = fn
        return traced

    def _restart_clock(self, inner):
        """Progress callback that times each restart, then defers to ``inner``."""
        marks = [time.perf_counter()]
        self.restarts.append(0)

        def progress(index, defect):
            now = time.perf_counter()
            self.restart_s.append(now - marks[-1])
            marks.append(now)
            self.restarts[-1] += 1
            if inner is not None:
                inner(index, defect)

        return progress

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per round of the workload's batch."""
        self._flush_keys()
        calls = Counter()
        total = Counter()
        child = Counter()
        for _, _, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][3]] += end - start
        out = {}
        for layer, functions in LAYERS.items():
            for fn in functions:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls[name] / rounds
                out[f"{name}.self_ms"] = 1e3 * (total[name] - child[name]) / rounds
        out["measure.search.restarts"] = statistics.median(self.restarts) if self.restarts else 0
        out["measure.search.restart_ms_p50"] = (
            1e3 * statistics.median(self.restart_s) if self.restart_s else 0.0)
        for name in _KEYS:
            made = self.keyed_calls[name]
            out[f"{name}.distinct_per_call"] = self.distinct[name] / made if made else 1.0
        return out
