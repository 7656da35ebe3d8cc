"""Spans recorded from outside the program, around calls into each layer.

Tracer.installed() replaces each target function with a timing wrapper in
every poisset namespace that holds it (``solver`` imports
``check_antisymmetric`` and ``from_sigma``, ``cli`` imports ``classify``,
the package re-exports everything), and methods in their class.  Each span
records its name, start, end, parent span and job id; spans stay in memory
until the run ends.  Self time is a span's duration minus the time its
children cover, in wall seconds (not scaled to reference speed).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _on_poset(counts, args, result):
    poset = args[0]
    counts["poset.intervals"] += len(poset.intervals())
    counts["poset.strict_pairs"] += len(poset.strict_pairs())


def _on_chains(counts, args, result):
    counts["poset.maximal_chains"] += len(result)


def _on_system(counts, args, result):
    counts["solver.unknowns"] += result.num_unknowns
    counts["solver.rows_streamed"] += result.rows_streamed
    counts["solver.rank"] += result.rank


def _on_report(counts, args, result):
    counts["bracket.failures_kept"] += len(result.failures)


def _on_triples(counts, args, result):
    bracket = args[0]
    # computed, not counted: the verifiers visit every basis triple
    counts["bracket.triples"] += len(bracket.poset.intervals()) ** 3
    counts["bracket.failures_kept"] += len(result.failures)


def _on_biderivation(counts, args, result):
    _on_triples(counts, args, result)
    counts["bracket.stored_pairs"] += len(args[0].stored_pairs())


# (module, attribute path, span name, hook reading counts off the call)
TARGETS = [
    ("poisset.poset", "Poset.__init__", "poset.init", _on_poset),
    ("poisset.poset", "Poset.chain_components", "poset.chain_components", None),
    ("poisset.poset", "Poset.maximal_chains", "poset.maximal_chains", _on_chains),
    ("poisset.poset", "Poset.maximal_chain_overlap", "poset.maximal_chain_overlap", None),
    ("poisset.poset", "Poset.connected_components", "poset.connected_components", None),
    ("poisset.poset", "Poset.heights", "poset.heights", None),
    ("poisset.algebra", "IncidenceElement.__mul__", "algebra.mul", None),
    ("poisset.algebra", "IncidenceElement.commutator", "algebra.commutator", None),
    ("poisset.algebra", "IncidenceElement.sandwich", "algebra.sandwich", None),
    ("poisset.bracket", "Bracket.evaluate", "bracket.evaluate", None),
    ("poisset.bracket", "from_sigma", "bracket.from_sigma", None),
    ("poisset.bracket", "check_antisymmetric", "bracket.check_antisymmetric", _on_report),
    ("poisset.bracket", "check_biderivation", "bracket.check_biderivation", _on_biderivation),
    ("poisset.bracket", "check_jacobi", "bracket.check_jacobi", _on_triples),
    ("poisset.bracket", "extract_sigma", "bracket.extract_sigma", None),
    ("poisset.bracket", "is_standard", "bracket.is_standard", None),
    ("poisset.bracket", "lemma_suite", "bracket.lemma_suite", _on_report),
    ("poisset.solver", "build_system", "solver.build_system", _on_system),
    ("poisset.solver", "nullspace", "solver.nullspace", None),
    ("poisset.solver", "classify", "solver.classify", None),
    ("poisset.cli", "main", "cli.main", None),
]

LAYERS = ("poset", "algebra", "bracket", "solver", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None

    def wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:  # outside a job, e.g. a reference check
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == "poisset" or n.startswith("poisset.")]
        try:
            for module_name, path, name, hook in TARGETS:
                owner = sys.modules[module_name]
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                wrapper = self.wrap(name, original, hook)
                holders = [owner] if classes else [m for m in modules if getattr(m, attr, None) is original]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def self_times(self):
        """Yield (name, job, self seconds) for every finished span."""
        child_time = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            yield name, job, (end - start) - child_time[index]


def summarize(tracer: Tracer, jobs: dict, passes: int, splits: dict) -> tuple[dict, float]:
    """Per-layer numbers per corpus pass.

    jobs maps a job id to (wall seconds, tags).  splits maps a span name to
    the job tag that divides it (for example the ring of a classify job).
    Returns metrics by name plus the largest ratio, over jobs, of summed
    self time to job wall time, which cannot exceed 1 when spans nest.
    """
    self_s: Counter = Counter()
    split_s: Counter = Counter()
    calls: Counter = Counter()
    per_job: Counter = Counter()
    for name, job, seconds in tracer.self_times():
        self_s[name] += seconds
        calls[name] += 1
        per_job[job] += seconds
        tag = jobs[job][1].get(splits.get(name))
        if tag is not None:
            split_s[f"{name}.{tag}"] += seconds
    wall = sum(seconds for seconds, _ in jobs.values())
    out = {}
    for _, _, name, _ in TARGETS:
        out[f"{name}.self_s"] = self_s[name] / passes
        out[f"{name}.calls"] = calls[name] / passes
    for key, seconds in split_s.items():
        out[f"{key}.self_s"] = seconds / passes
    for key, value in tracer.counts.items():
        out[key] = value / passes
    if tracer.counts["solver.rows_streamed"]:
        out["solver.row_yield"] = tracer.counts["solver.rank"] / tracer.counts["solver.rows_streamed"]
    for layer in LAYERS:
        share = sum(s for name, s in self_s.items() if name.split(".")[0] == layer)
        out[f"share.{layer}"] = share / wall if wall else 0.0
    ratio = max((per_job[j] / w for j, (w, _) in jobs.items() if w > 0), default=0.0)
    return out, ratio
