"""The traced pass: spans around public calls, cProfile self time by layer.

Spans are recorded by wrappers this file installs around public
functions of ``repro`` (:data:`SPANS`); nothing under ``src/`` knows
about them.  Each span is ``[name, start_ns, end_ns, parent, chunk]``;
a span's self time is its duration minus the time its child spans
cover.  cProfile self time is bucketed by the ``src/repro/<subpackage>``
that owns the function (:data:`LAYER_OF`); time in the standard
library and in builtins goes to the layer of its callers, in
proportion to the self time each call edge carried.
"""

from __future__ import annotations

import pstats
import time
from importlib import import_module
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .stats import percentile

#: Public calls wrapped with a span: (module, attribute path, span name).
#: Every wrapped name is looked up on its module or class at call time
#: by its callers, so replacing the attribute reaches every call.
SPANS = (
    ("repro.runtime.executor", "run_trial", "run_trial"),
    ("repro.core.session", "PaymentSession.launch", "launch"),
    ("repro.core.session", "PaymentSession.run", "session_run"),
    ("repro.core.session", "PaymentSession.collect", "collect"),
    ("repro.sim.kernel", "Simulator.run", "sim_run"),
    ("repro.verification.properties", "property_columns", "property_columns"),
    ("repro.workload.runner", "run_workload_cell", "run_workload_cell"),
    ("repro.verification", "explore_payment", "explore_payment"),
    ("repro.runtime.persist", "RecordWriter.write", "record_write"),
    ("repro.analysis.store", "RecordStore.load", "store_load"),
    ("repro.analysis.query", "analyze_store", "analyze_store"),
    ("repro.analysis.query", "diff_stores", "diff_stores"),
)

#: ``src/repro/<subpackage>`` -> layer.  Modules directly under
#: ``src/repro`` (clocks, errors, the CLI) and any subpackage not listed
#: count as ``core``; the benchmark's own code counts as ``bench``.
LAYER_OF = {
    "sim": "sim",
    "net": "net",
    "ledger": "ledger",
    "crypto": "crypto",
    "anta": "anta",
    "protocols": "protocols",
    "consensus": "protocols",
    "byzantine": "protocols",
    "deals": "protocols",
    "core": "core",
    "properties": "properties",
    "verification": "properties",
    "scenarios": "scenarios",
    "workload": "workload",
    "runtime": "runtime",
    "analysis": "analysis",
    "experiments": "experiments",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values())) + ("bench",)

#: Exact work counts: metric -> functions whose cProfile call counts add up.
COUNTS = {
    "sim.timers": ("repro.sim.kernel:Simulator.schedule",
                   "repro.sim.kernel:Simulator.schedule_at"),
    "sim.trace_records": ("repro.sim.trace:TraceEvent.__init__",),
    "net.messages": ("repro.net.network:Network.send",),
    "ledger.blocks": ("repro.ledger.blockchain:SimpleChain._produce_block",),
    "crypto.signs": ("repro.crypto.signatures:sign",),
    "crypto.verifies": ("repro.crypto.signatures:verify",),
    "anta.transitions": ("repro.anta.automaton:TimedAutomaton._enter",),
    "core.sessions": ("repro.core.session:PaymentSession._build_env",),
    "core.arena_resets": ("repro.core.session:PaymentSession._reset_arena",),
}

Span = List[Any]


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner = import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Spans:
    """Span recorder; :meth:`install` wraps every call in :data:`SPANS`."""

    def __init__(self, chunk_of) -> None:
        #: Called at span start; returns the index of the chunk in progress.
        self.chunk_of = chunk_of
        self.records: List[Span] = []
        #: Events executed by every ``Simulator.run`` (its return value).
        self.events = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(records)
            records.append(
                [name, clock(), 0, stack[-1] if stack else -1, self.chunk_of()]
            )
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                records[index][2] = clock()
            if name == "sim_run":
                self.events += result
            return result

        return wrapper

    def install(self) -> None:
        for module, path, name in SPANS:
            owner, attr = _resolve(module, path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self.wrap(name, raw))
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def self_times(records: Sequence[Span]) -> List[int]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0] * len(records)
    for _, start, end, parent, _ in records:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(records)]


def span_summary(records: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total and self seconds, p50 durations in ms."""
    selves = self_times(records)
    grouped: Dict[str, Tuple[List[int], List[int]]] = {}
    for span, own in zip(records, selves):
        durations, owns = grouped.setdefault(span[0], ([], []))
        durations.append(span[2] - span[1])
        owns.append(own)
    return {
        name: {
            "count": len(durations),
            "total_s": sum(durations) / 1e9,
            "self_s": sum(owns) / 1e9,
            "p50_ms": percentile(durations, 50) / 1e6,
            "self_p50_ms": percentile(owns, 50) / 1e6,
            "min_self_ns": min(owns),
        }
        for name, (durations, owns) in grouped.items()
    }


def layer_of(filename: str, repro_root: str, bench_root: str) -> Optional[str]:
    """The layer that owns a source file, or None for stdlib and builtins."""
    if filename.startswith(repro_root):
        head = filename[len(repro_root):].lstrip("/\\").replace("\\", "/")
        package = head.split("/", 1)[0]
        return LAYER_OF.get(package, "core") if "/" in head else "core"
    if filename.startswith(bench_root):
        return "bench"
    return None


def layer_times(stats: Dict, repro_root: str, bench_root: str) -> Dict[str, float]:
    """cProfile self seconds per layer (``stats`` as in ``pstats.Stats.stats``)."""
    memo: Dict[Any, Dict[str, float]] = {}
    visiting = set()

    def owners(func) -> Dict[str, float]:
        """Fractions of ``func``'s self time owed to each layer."""
        own = layer_of(func[0], repro_root, bench_root)
        if own is not None:
            return {own: 1.0}
        if func in memo:
            return memo[func]
        if func in visiting:
            return {}
        visiting.add(func)
        callers = stats[func][4] if func in stats else {}
        use_time = any(edge[2] for edge in callers.values())
        mix: Dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[2] if use_time else edge[1]
            for layer, part in owners(caller).items():
                mix[layer] = mix.get(layer, 0.0) + weight * part
        visiting.discard(func)
        total = sum(mix.values())
        memo[func] = (
            {layer: part / total for layer, part in mix.items()}
            if total else {"bench": 1.0}
        )
        return memo[func]

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tt, _, _) in stats.items():
        for layer, part in owners(func).items():
            seconds[layer] += tt * part
    return seconds


def count_calls(stats: Dict) -> Dict[str, int]:
    """The :data:`COUNTS` metrics plus ``py.calls``, from cProfile call counts."""
    counts: Dict[str, int] = {}
    for metric, refs in COUNTS.items():
        total = 0
        for ref in refs:
            owner, attr = _resolve(*ref.split(":"))
            code = getattr(owner, attr).__code__
            entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            total += entry[1] if entry else 0
        counts[metric] = total
    counts["py.calls"] = sum(entry[1] for entry in stats.values())
    return counts


def profile_layers(profiler) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds per layer and the exact call counts of one profile."""
    import repro

    stats = pstats.Stats(profiler).stats
    repro_root = str(Path(repro.__file__).resolve().parent)
    bench_root = str(Path(__file__).resolve().parent)
    return layer_times(stats, repro_root, bench_root), count_calls(stats)
