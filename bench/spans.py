"""Spans around the package's public functions, installed from outside.

A wrapper must replace the function at every import site: ``cycles``,
``twistor``, ``birational``, ``cli`` and the package root each hold their
own reference to ``zariski_decompose``, and ``SymMatrix`` methods live on
the class.  :func:`bind` does that; :class:`Tracer` uses it to record one
span (name, start, end, parent span, item id) per call, kept in memory and
written out at the end.  Spans of the set-up carry item id -1 and are
counted apart from the items' spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import anticycle.birational
import anticycle.cli
import anticycle.config_io
import anticycle.cycles
import anticycle.pic0
import anticycle.qform
import anticycle.twistor

Q, C, B = anticycle.qform, anticycle.cycles, anticycle.birational
P, T, IO, CLI = anticycle.pic0, anticycle.twistor, anticycle.config_io, anticycle.cli

#: (metric prefix, owner, attribute) of every traced function.
TARGETS = [
    ("qform.SymMatrix.apply", Q.SymMatrix, "apply"),
    ("qform.SymMatrix.from_rows", Q.SymMatrix, "from_rows"),
    ("qform.solve_linear", Q, "solve_linear"),
    ("qform.definiteness", Q, "definiteness"),
    ("cycles.zariski_decompose", C, "zariski_decompose"),
    ("cycles.intersection_matrix", C, "intersection_matrix"),
    ("cycles.validate", C, "validate"),
    ("cycles.classify_kodaira", C, "classify_kodaira"),
    ("birational.blow_up_node", B, "blow_up_node"),
    ("birational.contract_to_nef_model", B, "contract_to_nef_model"),
    ("pic0.family_profile", P, "family_profile"),
    ("twistor.validate_pencil", T, "validate_pencil"),
    ("twistor.algebraic_dimension", T, "algebraic_dimension"),
    ("twistor.normalize_rotation", T, "normalize_rotation"),
    ("twistor.build_resolved_model", T, "build_resolved_model"),
    ("twistor.prove_E_fixed", T, "prove_E_fixed"),
    ("config_io.parse_config", IO, "parse_config"),
    ("config_io.build_cycle", IO, "build_cycle"),
    ("config_io.build_pencil", IO, "build_pencil"),
    ("config_io.random_cycle_walk", IO, "random_cycle_walk"),
    ("cli.build_parser", CLI, "build_parser"),
    ("cli.run", CLI, "run"),
]
#: Functions that only the set-up calls: no item metrics for them.
SETUP_ONLY = {"config_io.random_cycle_walk"}
ITEM_TARGETS = [t for t in TARGETS if t[0] not in SETUP_ONLY]
#: Functions whose set-up spans give ``setup.<name>.*`` metrics.
SETUP_TARGETS = ("config_io.random_cycle_walk", "birational.blow_up_node", "cycles.zariski_decompose")


def bind(owner, attr: str, make_wrapper) -> list:
    """Replace ``owner.attr`` with ``make_wrapper(original)`` at every site.

    Returns undo records for :func:`unbind`.
    """
    raw = owner.__dict__[attr]
    static = isinstance(raw, staticmethod)
    original = raw.__func__ if static else raw
    wrapper = make_wrapper(original)
    undo = [(owner, attr, raw)]
    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
    if isinstance(owner, type):
        return undo
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "anticycle" or name.startswith("anticycle.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, value))
                setattr(module, key, wrapper)
    return undo


def unbind(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


class Tracer:
    """In-memory spans; ``item`` tags the spans of the item being run."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, item)
        self.item = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)

        return wrapper

    def install(self) -> None:
        for name, owner, attr in TARGETS:
            self._undo += bind(owner, attr, lambda fn, n=name: self._wrap(n, fn))

    def uninstall(self) -> None:
        unbind(self._undo)
        self._undo = []

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("index,name,start,end,parent,item\n")
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                out.write(f"{index},{name},{start:.9f},{end:.9f},{parent},{item}\n")

    def _nearest(self, names: set[str]) -> list[str | None]:
        """For each span, the name of its nearest ancestor in ``names``."""
        found: list[str | None] = []
        for _, _, _, parent, _ in self.spans:
            found.append(None if parent < 0 else (
                self.spans[parent][0] if self.spans[parent][0] in names else found[parent]
            ))
        return found

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics.  ``<name>.calls`` and ``.self_s`` and the
        ratios cover the items' spans only; the set-up's spans (item -1)
        give ``setup.<name>.calls`` and ``.self_s`` for SETUP_TARGETS."""
        calls: Counter = Counter()
        own: defaultdict = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, _, item) in enumerate(self.spans):
            key = name if item >= 0 else f"setup.{name}"
            calls[key] += 1
            own[key] += end - start - covered[index]
        out: dict[str, float] = {}
        for name in [name for name, _, _ in ITEM_TARGETS] + [f"setup.{n}" for n in SETUP_TARGETS]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = own[name]

        def per_call(child: str, parents: set[str]) -> Counter:
            return Counter(
                anc for (name, *_, item), anc in zip(self.spans, self._nearest(parents))
                if name == child and anc is not None and item >= 0
            )

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        decompose = "cycles.zariski_decompose"
        solves = per_call("qform.solve_linear", {decompose})
        out[f"{decompose}.solves_per_call"] = ratio(solves[decompose], calls[decompose])
        surgery = {"birational.blow_up_node", "birational.contract_to_nef_model"}
        outer = sum(1 for anc, (name, *_, item) in zip(self._nearest(surgery), self.spans)
                    if name in surgery and anc is None and item >= 0)
        decomposes = per_call("cycles.zariski_decompose", surgery)
        out["birational.decompose_per_call"] = ratio(sum(decomposes.values()), outer)
        adim = {"twistor.algebraic_dimension"}
        calls_adim = calls["twistor.algebraic_dimension"]
        out["twistor.algebraic_dimension.decompose_per_call"] = ratio(
            sum(per_call("cycles.zariski_decompose", adim).values()), calls_adim
        )
        out["twistor.algebraic_dimension.intersection_matrix_per_call"] = ratio(
            sum(per_call("cycles.intersection_matrix", adim).values()), calls_adim
        )
        return out
