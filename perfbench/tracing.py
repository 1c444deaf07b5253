"""Outside-in span tracing for the traced benchmark run.

The tracer rebinds trustmarket's public functions where their callers look
them up: the module globals of engine, eventlog and sim, the copies that
sim and cli import by name, and the methods on RatingStore, Registry and
EventLog.  Nothing under src/ is edited.  Each wrapper pushes a frame on a
span stack, so a span's self time is its duration minus its children's.

A traced run calls millions of inner functions, so spans are folded into
per-name aggregates as they close.  Spans at depth 0 and 1 (the workload's
own calls and their direct children) are kept whole in memory and written
to a side file when the run ends.  A few hooks count what the per-layer
ratios need: rows returned, rater-weight fallbacks, fan-in per opinion,
step time per round and bytes appended.
"""

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from trustmarket import cli, engine, eventlog, identity, ratings, sim

# Modules whose globals are searched for each wrapped function, so a name
# imported by another module (sim.compute_opinion, cli.replay) is rebound
# to the same wrapper.
_NAMESPACES = (engine, ratings, identity, eventlog, sim, cli)

# (owner, attribute, span name).  A module owner is searched in every
# namespace; a class owner is patched on the class itself.
TARGETS = (
    (engine, "compute_opinion", "engine.compute_opinion"),
    (engine, "weighted_reputation", "engine.weighted_reputation"),
    (engine, "rater_weight", "engine.rater_weight"),
    (engine, "direct_trust", "engine.direct_trust"),
    (ratings.RatingStore, "record", "ratings.record"),
    (ratings.RatingStore, "latest_ratings_for", "ratings.latest_ratings_for"),
    (identity.Registry, "register", "identity.register"),
    (eventlog, "replay", "eventlog.replay"),
    (eventlog, "apply_event", "eventlog.apply_event"),
    (eventlog.EventLog, "append", "eventlog.append"),
    (eventlog.EventLog, "__init__", "eventlog.open"),
    (sim, "run_scenario", "sim.run_scenario"),
    (sim, "step", "sim.step"),
    (sim, "unit_draw", "sim.unit_draw"),
    (sim, "score_view", "sim.score_view"),
    (cli, "main", "cli.main"),
)

KEEP_DEPTH = 1

_OPINION = "engine.compute_opinion"
_REPUTATION = "engine.weighted_reputation"
_RATER_WEIGHT = "engine.rater_weight"


class Frame:
    __slots__ = ("child_ns", "name", "span", "fanin", "lookups", "weights")

    def __init__(self, name, span):
        self.child_ns = 0
        self.name = name
        self.span = span
        self.fanin = 0
        self.lookups = 0
        self.weights = 0


class Tracer:
    """Span stack plus per-name aggregates; install() patches, uninstall()
    restores every original."""

    def __init__(self):
        self.stack = []
        self.spans = []                       # (name, parent, start, end)
        self.agg = {}                         # name -> [calls, total, self, raised]
        self.counters = defaultdict(int)
        self.bins = {"sim.step": defaultdict(lambda: [0, 0]),
                     "engine.opinion": defaultdict(lambda: [0, 0])}
        self._opinions = []                   # open compute_opinion frames
        self._patches = []                    # (owner, attribute, original)
        self._wrappers = []                   # (owner, attribute, wrapper)
        for owner, attribute, name in TARGETS:
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._wrappers.append((owner, attribute, wrapper))
                continue
            for module in _NAMESPACES:
                for key, value in vars(module).items():
                    if value is original:
                        self._wrappers.append((module, key, wrapper))
        parse = eventlog._parse_line
        counters = self.counters

        def counted_parse(line, line_no):
            counters["eventlog.lines_parsed"] += 1
            return parse(line, line_no)
        self._wrappers.append((eventlog, "_parse_line", counted_parse))

    # -- patching ----------------------------------------------------

    def install(self):
        for owner, attribute, wrapper in self._wrappers:
            self._patches.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def suspended(self):
        """Run oracle checks on the original functions, uncounted."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- the wrapper ---------------------------------------------------

    def _wrap(self, name, fn):
        agg = self.agg.setdefault(name, [0, 0, 0, 0])
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns
        on_exit = self._hooks().get(name)
        opinions = self._opinions
        is_opinion = name == _OPINION

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = -1
            if len(stack) <= KEEP_DEPTH:
                span = len(spans)
                spans.append(None)
            frame = Frame(name, span)
            stack.append(frame)
            if is_opinion:
                opinions.append(frame)
            result = None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                if is_opinion:
                    opinions.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame.child_ns
                if not ok:
                    agg[3] += 1
                if parent is not None:
                    parent.child_ns += duration
                if span >= 0:
                    spans[span] = (name, -1 if parent is None else parent.span,
                                   start, end)
                if on_exit is not None and ok:
                    on_exit(frame, parent, args, result, duration)
        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        counters, bins, opinions = self.counters, self.bins, self._opinions

        def lookup_done(frame, parent, args, result, duration):
            rows = len(result)
            counters["ratings.latest_ratings_for.rows"] += rows
            if opinions:
                opinions[-1].lookups += 1
            if parent is None:
                return
            if parent.name == _RATER_WEIGHT and rows == 0:
                counters["engine.rater_weight.fallback"] += 1
            elif parent.name == _REPUTATION and opinions:
                opinions[-1].fanin = rows

        def weight_done(frame, parent, args, result, duration):
            if opinions:
                opinions[-1].weights += 1

        def opinion_done(frame, parent, args, result, duration):
            counters["engine.opinion.lookups"] += frame.lookups
            counters["engine.opinion.weights"] += frame.weights
            if frame.fanin:
                cell = bins["engine.opinion"][frame.fanin]
                cell[0] += 1
                cell[1] += duration

        def step_done(frame, parent, args, result, duration):
            cell = bins["sim.step"][args[0].round]
            cell[0] += 1
            cell[1] += duration

        def append_done(frame, parent, args, result, duration):
            counters["eventlog.append.bytes"] += len(
                result.to_json().encode("utf-8")) + 1

        return {"ratings.latest_ratings_for": lookup_done,
                _RATER_WEIGHT: weight_done,
                _OPINION: opinion_done,
                "sim.step": step_done,
                "eventlog.append": append_done}

    # -- reading the results -------------------------------------------

    def calls(self, name) -> int:
        return self.agg[name][0]

    def self_ms(self, name) -> float:
        return self.agg[name][2] / 1e6

    def raised(self, name) -> int:
        return self.agg[name][3]

    def write(self, path) -> None:
        """Kept spans as JSON lines, then one line of aggregates."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end}) + "\n")
            handle.write(json.dumps(
                {"aggregates": {name: {"calls": c, "total_ns": t,
                                       "self_ns": s, "raised": r}
                                for name, (c, t, s, r) in self.agg.items()},
                 "counters": dict(self.counters)}, sort_keys=True) + "\n")


def loglog_slope(cells) -> float:
    """Least-squares slope of log(mean time) on log(x) over {x: [n, ns]};
    0.0 when fewer than two distinct x are present."""
    points = [(math.log(x), math.log(total / count))
              for x, (count, total) in cells.items() if x > 0 and count]
    if len(points) < 2:
        return 0.0
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx if sxx else 0.0
