"""Spans around calls into the public functions of each cayley_embed layer.

The tracer replaces each listed function wherever a module of the package
holds it as an attribute (``screening.reducible``, ``embed.find_embedding``,
the package root, ...), so calls made inside the library are seen as well as
the benchmark's own.  Spans stay in memory; ``restore`` puts every original
function back, so passes run between traced ones pay nothing.  A function that a later refactor renames or stops exporting
is reported as not observed instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional

# (module, function) -> summary of the result kept on the span, or None.
TRACED: dict[tuple[str, str], Optional[Callable[["Tracer", tuple, Any], Any]]] = {
    ("pls", "canonical_form"): None,
    ("pls", "enumerate_species"): lambda tr, args, r: tr.note_species(r),
    ("screening", "reducible"): lambda tr, args, r: r is not None,
    ("screening", "psi"): lambda tr, args, r: (sum(r.survivor_counts.values()), len(r.obstacles)),
    ("embed", "embeds_in_class"): None,
    ("embed", "quadrangle_violation"): None,
    ("embed", "find_embedding"): lambda tr, args, r: r.embeddable,
    ("embed", "count_embeddings_pinned"): lambda tr, args, r: r,
    ("embed", "embed_diagonal_partition"): lambda tr, args, r: r[0],
    ("groups", "groups_of_order"): None,
    ("groups", "group_from_table"): None,
}

NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.note: Any = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "note": self.note,
        }


class Tracer:
    """Records a span for every call made between ``install`` and ``restore``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.not_observed: list[str] = []
        self._species_seen = 0

    def note_species(self, levels: dict) -> tuple[int, int, bool]:
        """(top size, species up to it, whether this call built a new level).

        Levels are cached per process, so only the first call that reaches a
        size does the enumeration work.
        """
        total = sum(len(v) for v in levels.values())
        built = total > self._species_seen
        self._species_seen = max(self._species_seen, total)
        return max(levels), total, built

    def install(self) -> None:
        self.not_observed = []
        package = sys.modules["cayley_embed"]
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "cayley_embed"]
        for (mod_name, fn_name), summary in TRACED.items():
            module = sys.modules.get(f"cayley_embed.{mod_name}")
            original = getattr(module, fn_name, None)
            if not callable(original):
                self.not_observed.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, summary)
            for m in modules + [package]:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, summary) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if summary is not None:
                span.note = summary(self, args, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(*groups: list[Span]) -> dict[str, float]:
    """Per-layer totals over groups of spans, each recorded by one ``take``."""
    spans = [s for g in groups for s in g]
    own = [t for g in groups for t in self_times(g)]
    calls = dict.fromkeys(NAMES, 0)
    self_s = dict.fromkeys(NAMES, 0.0)
    out: dict[str, float] = {}
    yes = dict.fromkeys(NAMES, 0)
    no_self = dict.fromkeys(NAMES, 0.0)
    embeddings = survivors = obstacles = species = 0
    levels: dict[int, float] = {}
    for s, t in zip(spans, own):
        calls[s.name] += 1
        self_s[s.name] += t
        if isinstance(s.note, bool):
            if s.note:
                yes[s.name] += 1
            else:
                no_self[s.name] += t
        elif s.name == "embed.count_embeddings_pinned":
            embeddings += s.note
        elif s.name == "screening.psi":
            survivors += s.note[0]
            obstacles += s.note[1]
        elif s.name == "pls.enumerate_species":
            size, total, built = s.note
            if built:
                levels[size] = s.end - s.start
                species = max(species, total)
    for name in NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    def ratio(name: str) -> float:
        return yes[name] / calls[name] if calls[name] else 0.0

    out["screening.reducible.reduced_ratio"] = ratio("screening.reducible")
    out["embed.find_embedding.embeddable_ratio"] = ratio("embed.find_embedding")
    out["embed.find_embedding.negative_self_s"] = no_self["embed.find_embedding"]
    out["embed.count_embeddings_pinned.embeddings"] = embeddings
    out["embed.embed_diagonal_partition.realisable_ratio"] = ratio("embed.embed_diagonal_partition")
    out["embed.embed_diagonal_partition.unrealisable_self_s"] = no_self["embed.embed_diagonal_partition"]
    out["screening.psi.survivors"] = survivors
    out["screening.psi.obstacles"] = obstacles
    out["pls.enumerate_species.species"] = species
    for size in (5, 6, 7):
        out[f"pls.enumerate_species.level{size}_s"] = levels.get(size, 0.0)
    return out
