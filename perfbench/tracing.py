"""Per-layer tracing for the benchmark, installed from outside the library.

``install`` replaces chosen k2tlab functions with timing wrappers at every
module attribute that holds them, so each caller's own name lookup (for
example ``detect.mask_has_clique`` inside ``suites``, or ``ramsey``'s
imported ``contains_subgraph``) reaches the wrapper. Nothing in ``src/`` is
changed.

A wrapper records a span (name, start, end, parent span, op id) and keeps
running totals: calls, self time (span minus the spans nested in it) and,
for predicates, how often the result was true. A function already active
on the stack is passed through, so recursive kernels count only the
outermost entry and ``.calls`` means calls from the layer above. Spans stay
in memory, up to ``SPAN_CAP`` per process, and are written when the run
ends; the totals do not depend on that cap.

The exhaustive suites run their shard bodies in forked pool workers.
``ShardBody`` replaces each body there: in a worker it records into a fresh
recorder and returns the records inside the shard's result dict, and the
``suites._run_shards`` wrapper merges them back and strips the extra key,
so the library sees its own results. Pool workers inherit the wrappers and
``ORIGINALS`` through fork, which is how ``ProcessPoolExecutor`` starts them
on Linux.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict

perf = time.perf_counter

SPAN_CAP = 100_000

CURRENT = None
"""The Recorder that wrappers in this process write to; None when idle."""

ORIGINALS: dict = {}
"""Wrapped key -> the library's own function."""

_INSTALLED: list = []

# (module, attribute, metric key, hook). Functions that share a key are
# reported together.
TARGETS = (
    ("detect", "mask_has_induced_k2t", "detect.mask_has_induced_k2t", "hit"),
    ("detect", "mask_has_clique", "detect.mask_has_clique", "hit"),
    ("detect", "_max_clique_size", "detect._max_clique_size", None),
    ("detect", "_mask_lex_independent_tset", "detect._mask_lex_independent_tset", None),
    ("detect", "find_independent_set", "detect.find_independent_set", None),
    ("detect", "_independent_set_mask", "detect._independent_set_mask", None),
    ("detect", "contains_subgraph", "detect.contains_subgraph", None),
    ("detect", "find_induced_k2t", "detect.find_induced_k2t", None),
    ("detect", "max_clique", "detect.max_clique", None),
    ("constructions", "iter_masks", "constructions.iter_masks", "iter:graphs"),
    ("suites", "_guarantee_table", "suites.tables", None),
    ("suites", "_proof_tables", "suites.tables", None),
    ("bounds", "theorem_clique_r", "bounds.theorem_clique_r", "probes"),
    ("bounds", "clique_lower_report", "bounds.clique_lower_report", None),
    ("bounds", "clique_guarantee", "bounds.clique_guarantee", None),
    ("bounds", "induced_turan_upper", "bounds.induced_turan_upper", None),
    ("ramsey", "ramsey_exact", "ramsey.ramsey_exact", "ramsey"),
    ("ramsey", "_extensions", "ramsey._extensions", "iter:candidates"),
    ("ramsey", "_is_good", "ramsey._is_good", "good"),
    ("ramsey", "invariant_key", "ramsey.invariant_key", None),
    ("ramsey", "is_isomorphic", "ramsey.is_isomorphic", "iso"),
    ("witness", "extract", "witness.extract", "outcome"),
    ("witness", "verify_trace", "witness.verify_trace", None),
    ("witness", "ledger", "witness.ledger", None),
    ("witness", "greedy_packing", "witness.greedy_packing", None),
    ("witness", "pigeonhole_edge", "witness.pigeonhole_edge", None),
    ("graphs", "graph6_decode", "graphs.graph6_decode", None),
    ("graphs", "graph6_encode", "graphs.graph6_encode", None),
    ("graphs", "induced_subgraph", "graphs.induced_subgraph", None),
)
SHARD_BODIES = ("_clique_shard", "_proof_shard", "_turan_shard")
RAMSEY_LEVELS = range(1, 11)
OUTCOMES = ("induced-k2t-found", "h-embedded", "hypothesis-not-met", "boundary-degenerate")
# These run once or more per labelled graph of a shard, or per Ramsey
# candidate: they are timed and counted but not kept as spans, so that pool
# workers ship back totals rather than a span per graph.
NO_SPAN = frozenset({
    "constructions.iter_masks",
    "ramsey._extensions",
    "detect.mask_has_induced_k2t",
    "detect.mask_has_clique",
    "detect._max_clique_size",
    "detect._mask_lex_independent_tset",
})


def _metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    keys = []
    for _, _, key, hook in TARGETS:
        if key in keys:
            continue
        keys.append(key)
        if hook and hook.startswith("iter:"):
            out.append((f"{key}.{hook[5:]}", "count"))
            if key == "constructions.iter_masks":
                out.append((f"{key}.self_s", "s"))
            continue
        out.append((f"{key}.calls", "count"))
        out.append((f"{key}.self_s", "s"))
        if hook == "probes":
            out.append((f"{key}.probes", "count"))
        ratio = {"hit": "hit_ratio", "good": "pass_ratio", "iso": "true_ratio"}.get(hook)
        if ratio:
            out.append((f"{key}.{ratio}", "ratio"))
    out = [(name, unit) for name, unit in out if name != "suites.tables.calls"]
    out += [
        ("suites.driver.shards", "count"),
        ("suites.driver.wall_s", "s"),
        ("suites.driver.shard_busy_max_s", "s"),
        ("suites.driver.overhead_s", "s"),
        ("suites.driver.imbalance", "ratio"),
    ]
    out += [(f"ramsey.level.{n}.survivors", "count") for n in RAMSEY_LEVELS]
    out += [(f"witness.outcome.{tag}.count", "count") for tag in OUTCOMES]
    out += [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]
    return out


METRICS = _metric_names()


class Recorder:
    """Spans and running totals of one process (or one pool task)."""

    def __init__(self, op=None):
        self.pid = os.getpid()
        self.op = op
        self.stack: list = []
        self.next_id = 0
        self.spans: list = []
        self.dropped = 0
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.hits = defaultdict(int)
        self.counts = defaultdict(int)
        self.driver: list = []
        self.ramsey_calls: list = []
        self.level_good = defaultdict(int)
        self.level_dup = defaultdict(int)
        self.in_ramsey = 0

    def enter(self, key: str) -> list:
        span_id = self.next_id
        self.next_id += 1
        frame = [key, perf(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf()
        self.stack.pop()
        key, start, child_s, span_id = frame
        duration = end - start
        self.calls[key] += 1
        self.self_s[key] += duration - child_s
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        else:
            parent = -1
        if key in NO_SPAN:
            return
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, key, start, end, parent, self.op))
        else:
            self.dropped += 1

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "hits": dict(self.hits),
            "counts": dict(self.counts),
            "spans": self.spans,
            "dropped": self.dropped,
            "next_id": self.next_id,
        }

    def merge(self, data: dict, parent: int) -> None:
        """Fold a pool task's records in; its root spans hang off
        ``parent`` and its span ids are shifted past ours."""
        for name in ("calls", "self_s", "hits", "counts"):
            mine = getattr(self, name)
            for key, value in data[name].items():
                mine[key] += value
        offset = self.next_id
        self.next_id += data["next_id"]
        room = SPAN_CAP - len(self.spans)
        spans = data["spans"]
        for span_id, key, start, end, par, op in spans[:room]:
            self.spans.append(
                (span_id + offset, key, start, end, parent if par < 0 else par + offset, op)
            )
        self.dropped += data["dropped"] + max(0, len(spans) - room)


def _wrap(key: str, fn, hook):
    depth = 0

    def wrapper(*args, **kwargs):
        nonlocal depth
        rec = CURRENT
        if depth or rec is None:
            return fn(*args, **kwargs)
        if hook == "probes":
            args = _counting_probe(rec, *args, **kwargs)
            kwargs = {}
        elif hook == "ramsey":
            rec.in_ramsey += 1
            rec.level_good.clear()
            rec.level_dup.clear()
        depth += 1
        frame = rec.enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            depth -= 1
            rec.exit(frame)
            if hook == "ramsey":
                rec.in_ramsey -= 1
        if hook in ("hit", "iso", "good") and result:
            rec.hits[key] += 1
            if hook == "good":
                rec.level_good[args[0].n] += 1
            elif hook == "iso" and rec.in_ramsey:
                rec.level_dup[args[0].n] += 1
        elif hook == "outcome":
            rec.counts[f"witness.outcome.{result.outcome}.count"] += 1
        elif hook == "ramsey":
            _record_levels(rec, args[0])
        return result

    return wrapper


def _counting_probe(rec, n, alpha, t, ramsey_fn=None):
    probe = ramsey_fn if ramsey_fn is not None else sys.modules["k2tlab.bounds"]._es_ramsey

    def counted(t_, r_):
        rec.counts["bounds.theorem_clique_r.probes"] += 1
        return probe(t_, r_)

    return (n, alpha, t, counted)


def _record_levels(rec: Recorder, query) -> None:
    top = max(rec.level_good, default=0)
    levels = [rec.level_good[n] - rec.level_dup[n] for n in range(1, top + 1)]
    while levels and levels[-1] == 0:
        levels.pop()
    for n, survivors in enumerate(levels, start=1):
        rec.counts[f"ramsey.level.{n}.survivors"] += survivors
    encode = ORIGINALS["graphs.graph6_encode"]
    members = tuple(encode(m) for m in query.family.members)
    rec.ramsey_calls.append((query.t, members, levels))


def _wrap_iter(key: str, fn, count_key: str):
    def wrapper(*args, **kwargs):
        rec = CURRENT
        it = fn(*args, **kwargs)
        if rec is None:
            return it
        return _timed_steps(rec, key, it, count_key)

    return wrapper


def _timed_steps(rec: Recorder, key: str, it, count_key: str):
    while True:
        frame = rec.enter(key)
        try:
            item = next(it)
        except StopIteration:
            rec.exit(frame)
            return
        rec.exit(frame)
        rec.counts[count_key] += 1
        yield item


class ShardBody:
    """Stand-in for a suites shard body; picklable, so the pool can ship
    it to its workers by reference to this module."""

    def __init__(self, name: str, op=None):
        self.name = name
        self.op = op

    def __call__(self, args):
        global CURRENT
        fn = ORIGINALS[f"suites.{self.name}"]
        outer = CURRENT
        in_worker = outer is None or os.getpid() != outer.pid
        rec = Recorder(op=self.op) if in_worker else outer
        CURRENT = rec
        start = perf()
        frame = rec.enter("suites.shard")
        try:
            result = fn(args)
        finally:
            rec.exit(frame)
            CURRENT = outer
        extra = {"busy": perf() - start}
        if in_worker:
            extra["data"] = rec.export()
        result["_trace"] = extra
        return result


def _run_shards(fn, args_list, workers):
    rec = CURRENT
    if rec is None or not isinstance(fn, ShardBody):
        return ORIGINALS["suites._run_shards"](fn, args_list, workers)
    frame = rec.enter("suites.driver")
    body = ShardBody(fn.name, op=rec.op)
    start = perf()
    try:
        results = ORIGINALS["suites._run_shards"](body, args_list, workers)
        wall = perf() - start
        busy = []
        for result in results:
            extra = result.pop("_trace")
            busy.append(extra["busy"])
            if "data" in extra:
                rec.merge(extra["data"], parent=frame[3])
    finally:
        rec.exit(frame)
    # Mirrors the library's own test for using the process pool.
    if workers > 1 and len(args_list) > 1:
        rec.driver.append((wall, busy))
    return results


def _replace_everywhere(old, new) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "k2tlab" or name.startswith("k2tlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                _INSTALLED.append((module, attr, old))


def install() -> Recorder:
    """Wrap every target and start recording in this process."""
    global CURRENT
    mods = {name: sys.modules[f"k2tlab.{name}"] for name in
            ("detect", "constructions", "suites", "bounds", "ramsey", "witness", "graphs")}
    for mod, attr, key, hook in TARGETS:
        fn = getattr(mods[mod], attr)
        ORIGINALS[f"{mod}.{attr}"] = fn
        if hook and hook.startswith("iter:"):
            new = _wrap_iter(key, fn, f"{key}.{hook[5:]}")
        else:
            new = _wrap(key, fn, hook)
        _replace_everywhere(fn, new)
    suites = mods["suites"]
    for name in SHARD_BODIES:
        fn = getattr(suites, name)
        ORIGINALS[f"suites.{name}"] = fn
        _replace_everywhere(fn, ShardBody(name))
    ORIGINALS["suites._run_shards"] = suites._run_shards
    _replace_everywhere(suites._run_shards, _run_shards)
    CURRENT = Recorder()
    return CURRENT


def uninstall() -> None:
    global CURRENT
    CURRENT = None
    while _INSTALLED:
        module, attr, old = _INSTALLED.pop()
        setattr(module, attr, old)


def pass_metrics(rec: Recorder) -> dict:
    """Per-layer values of one pass, then clear the running totals."""
    out = {}
    for name, _ in METRICS:
        key, _, stat = name.rpartition(".")
        if name.startswith(("suites.driver.", "trace.")):
            continue
        if stat == "calls":
            out[name] = rec.calls.get(key, 0)
        elif stat == "self_s":
            out[name] = rec.self_s.get(key, 0.0)
        elif stat.endswith("_ratio"):
            calls = rec.calls.get(key, 0)
            out[name] = rec.hits.get(key, 0) / calls if calls else 0.0
        else:
            out[name] = rec.counts.get(name, 0)
    walls = [wall for wall, _ in rec.driver]
    peaks = [max(busy) for _, busy in rec.driver]
    medians = [statistics.median(busy) for _, busy in rec.driver]
    out["suites.driver.shards"] = sum(len(busy) for _, busy in rec.driver)
    out["suites.driver.wall_s"] = sum(walls)
    out["suites.driver.shard_busy_max_s"] = sum(peaks)
    out["suites.driver.overhead_s"] = sum(walls) - sum(peaks)
    out["suites.driver.imbalance"] = sum(peaks) / sum(medians) if medians else 0.0
    rec.reset()
    return out
