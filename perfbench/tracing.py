"""In-memory spans around the calls into qrl's layers, installed from outside.

The tracer replaces each public function of a qrl module by a timing wrapper
wherever a qrl module holds that function under its name: in the defining
module, so that calls inside the module go through it, and in every module
that imported it with `from .x import name`. Nothing under `src/` changes.

Calls into `cfrac`, `classno`, `families`, `criterion` and `cli`, and the
benchmark's own item spans, are recorded as spans: name, start, end, parent
span, item index, and how many leaf calls ran directly inside. Calls into
`intarith` and `quadorder`, and the constructions of `QuadIrrational` and
`QuadIdeal`, are leaves: they are far too many to keep one span each, so
only their call counts and times are kept. A call's self time is its
duration minus the time its wrapped callees cover.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("intarith", "quadorder", "cfrac", "classno", "families", "criterion", "cli")
LEAF_LAYERS = ("intarith", "quadorder")
COUNTED_CLASSES = (("quadorder", "QuadIrrational"), ("quadorder", "QuadIdeal"))


def _scan_counts(bound: inspect.BoundArguments, result) -> dict[str, int]:
    args = bound.arguments
    candidates = max(0, args["k_max"] - args.get("k_min", 1) + 1)
    return {
        "families.sieve_candidates": candidates,
        "families.sieve_survivors": len(result),
    }


# Work counts taken from a wrapped call's arguments and result.
RESULT_COUNTS = {
    "cfrac.cf_expand": lambda bound, r: {"cfrac.cycle_states": len(r.period)},
    "classno.reduced_forms": lambda bound, r: {"classno.reduced_forms.forms": len(r)},
    "criterion.enumerate_power_products": lambda bound, r: {
        "criterion.power_products": len(r.vectors)
    },
    "families.scan_squarefree": _scan_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.epoch = perf_counter()
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.item = -1
        # frame: [name, start, covered, span id or None, leaf-call Counter or None]
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        frame = [name, perf_counter(), 0.0, None, None]
        if span:
            frame[3] = self._next_id
            self._next_id += 1
        else:
            for outer in reversed(self._stack):
                if outer[3] is not None:
                    if outer[4] is None:
                        outer[4] = Counter()
                    outer[4][name] += 1
                    break
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, covered, span_id, leaf_calls = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            parent = next(
                (f[3] for f in reversed(self._stack) if f[3] is not None), None
            )
            self.spans.append(
                [span_id, name, start - self.epoch, end - self.epoch, parent,
                 self.item, dict(leaf_calls) if leaf_calls else {}]
            )

    def span(self, name: str) -> "_Span":
        """Context manager recording one span of the benchmark's own."""
        return _Span(self, name)

    def _wrap(self, name: str, fn, span: bool):
        counter = RESULT_COUNTS.get(name)
        signature = inspect.signature(fn) if counter else None
        enter, leave, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                counts.update(counter(bound, result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of qrl's seven modules in place."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrapped[id(obj)] = self._wrap(name, obj, layer not in LEAF_LAYERS)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for layer, cls_name in COUNTED_CLASSES:
            cls = getattr(modules[layer], cls_name)
            original = cls.__post_init__
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"{layer}.{cls_name}", original, False)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        record = {
            "fields": ["id", "name", "start_s", "end_s", "parent", "item", "leaf_calls"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self) -> None:
        self.frame = self.tracer._enter(self.name, True)

    def __exit__(self, *exc) -> bool:
        self.tracer._exit(self.frame)
        return False
