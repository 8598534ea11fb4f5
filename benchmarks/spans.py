"""In-memory span recording around the library's public entry points.

A span is ``(id, name, start, end, parent id)``; every span of one run
carries the run's workload id when written out.  Wrapping replaces the
attribute that a caller resolves at call time (a module global such as
``scenewise.encoders.tokenize`` or a class attribute such as
``HierarchicalModel.encode_scene``) and ``Tracer.restore`` puts the
original back.  A name that the library no longer has is recorded as
absent and reports zero, so the benchmark survives refactors.

A layer's self time is its span time minus the part covered by its child
spans.  Spans opened on a worker thread (``ingest`` parses on a thread
pool) take the main thread's innermost open span as their parent.
"""

from __future__ import annotations

import csv
import functools
import gzip
import itertools
import statistics
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# phases whose optimizer steps are timed from ``Adam.zero_grad`` to the end
# of ``Adam.step``
STEP_PHASES = ("classifier.train", "descriptors.train", "descriptors.pretrain")


def resolve(lib: dict, path: str):
    """``(owner, attribute)`` for a dotted path such as
    ``"encoders.HierarchicalModel.encode_scene"``, or None if the library
    no longer has it.  ``lib`` maps short module names to modules."""
    module, *inner, attr = path.split(".")
    owner = lib[module]
    for part in inner:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def tape_nodes(root) -> int:
    """Nodes reachable from ``root`` through parents that take gradients:
    the set ``autodiff.backward`` visits."""
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        for parent in getattr(node, "_parents", ()):
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class Tracer:
    """Records spans, counts and samples while its wrappers are installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._patched: list[tuple[object, str, object]] = []
        self._step_start = 0.0

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        opener = stack or self._main
        parent = opener[-1][0] if opener else 0
        sid = next(self._ids)
        stack.append((sid, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def enclosing(self, names) -> str | None:
        for _, name in reversed(self._stack()):
            if name in names:
                return name
        return None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a spanned version of itself.

        ``before(args)`` runs outside the span; ``after(args, result)``
        runs after it closes.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def install(self, lib) -> None:
        """Wrap every entry point the per-layer metrics are read from.

        ``lib`` maps short module names to the imported library modules.
        """
        counts, samples = self.counts, self.samples

        def count_lines(args, _):
            counts["parser.lines"] += args[1].count("\n") + 1

        def count_nodes(args):
            # the walk is tracer work, so it gets its own span
            samples["autodiff.tape_nodes"].append(
                self.call("trace.node_walk", tape_nodes, args[0]))

        def count_clip(_, factor):
            counts["autodiff.clipped"] += factor < 1.0

        def step_start(_):
            self._step_start = perf_counter()

        def step_end(_, __):
            phase = self.enclosing(STEP_PHASES)
            if phase is not None:
                samples[f"{phase}.step_ms"].append(
                    1e3 * (perf_counter() - self._step_start))

        def count_bytes(_, text):
            counts["trajectories.bytes_out"] += len(text.encode("utf-8"))

        def count_checkpoint(args, _):
            counts["checkpoint.bytes"] += Path(args[0]).stat().st_size

        targets = [
            ("parser.parse_script", "parser.parse_script", None, count_lines),
            ("corpus.ingest", "corpus.ingest", None, None),
            ("corpus.WordEmbeddings.load", "corpus.embeddings_load", None, None),
            ("encoders.tokenize", "corpus.tokenize", None, None),
            ("corpus.TokenVectors.rows", "corpus.token_rows", None, None),
            ("encoders.encode_statement", "encoders.statement", None, None),
            ("encoders.HierarchicalModel.encode_scene", "encoders.scene",
             None, None),
            ("encoders.HierarchicalModel.encode_script", "encoders.script",
             None, None),
            ("autodiff.backward", "autodiff.backward", count_nodes, None),
            ("classifier.clip_grad_norm", "autodiff.clip", None, count_clip),
            ("descriptors.clip_grad_norm", "autodiff.clip", None, count_clip),
            ("autodiff.Adam.zero_grad", "autodiff.zero_grad", step_start, None),
            ("autodiff.Adam.step", "autodiff.adam", None, step_end),
            ("classifier.train", "classifier.train", None, None),
            ("classifier.reweighted_loss", "classifier.loss", None, None),
            ("classifier.validation_ap", "classifier.validation", None, None),
            ("classifier.predictions", "classifier.predict", None, None),
            ("evaluation.micro_f1", "evaluation.micro_f1", None, None),
            ("evaluation.similarity_f1", "evaluation.similarity_f1", None, None),
            ("descriptors.pretrain_reconstruction_target",
             "descriptors.pretrain", None, None),
            ("descriptors.train_descriptors", "descriptors.train", None, None),
            ("descriptors.hinge_terms", "descriptors.hinge", None, None),
            ("descriptors.SceneBagEncoder.encode_scene", "descriptors.bag_encode",
             None, None),
            ("descriptors.descriptor_report", "descriptors.report", None, None),
            ("descriptors.DescriptorModel.weights_for_script",
             "descriptors.weights", None, None),
            ("trajectories.build_trajectories", "trajectories.build", None, None),
            ("trajectories.export", "trajectories.export", None, count_bytes),
            ("checkpoint.save_checkpoint", "checkpoint.save", None,
             count_checkpoint),
            ("checkpoint.load_checkpoint", "checkpoint.load", None, None),
        ]
        for path, name, before, after in targets:
            found = resolve(lib, path)
            if found is None:
                self.absent.append(path)
            else:
                self.wrap(*found, name, before, after)

    # -- reading the spans back --------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (union of its intervals, less
        the tracer's own ``trace.*`` spans inside them) and self seconds
        (busy time not covered by child spans).

        Only spans inside a ``bench.<phase>`` span count: library calls the
        benchmark makes to prepare or check a phase are left out.
        """
        parent_of = {sid: parent for sid, _, _, _, parent in self.spans}
        tracer_time: Counter[int] = Counter()
        for _, name, start, end, parent in self.spans:
            if not name.startswith("trace."):
                continue
            while parent:
                tracer_time[parent] += end - start
                parent = parent_of.get(parent, 0)
        inside = {sid: True for sid, name, _, _, _ in self.spans
                  if name.startswith("bench.")}

        def in_phase(sid: int) -> bool:
            chain = []
            while sid and sid not in inside:
                chain.append(sid)
                sid = parent_of.get(sid, 0)
            found = inside.get(sid, False)
            inside.update(dict.fromkeys(chain, found))
            return found

        spans = [s for s in self.spans if in_phase(s[0])]
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in spans:
            children[parent].append((start, end))
        by_name: defaultdict[str, list[tuple[float, float, int]]] = defaultdict(list)
        for sid, name, start, end, _ in spans:
            by_name[name].append((start, end, sid))
        out = {}
        for name, group in by_name.items():
            busy = union_length([(s, e) for s, e, _ in group]) \
                - sum(tracer_time[sid] for _, _, sid in group)
            if any(sid in children for _, _, sid in group):
                own = sum(e - s - union_length(children[sid]) for s, e, sid in group)
            else:
                own = busy
            out[name] = {"calls": len(group), "busy_s": busy, "self_s": own}
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["workload", "id", "name", "start", "end", "parent"])
            for sid, name, start, end, parent in self.spans:
                writer.writerow([self.workload, sid, name, f"{start:.9f}",
                                 f"{end:.9f}", parent])


def union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        elif end > hi:
            hi = end
    if hi is not None:
        total += hi - lo
    return total


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of ``values``; 0 when there are none."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
