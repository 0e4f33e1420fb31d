"""Per-layer spans around permpoly's public functions, from outside.

install() replaces every public function of the traced modules, and a
few methods, with a wrapper that records a span.  A function is
replaced under every name a caller resolves it by: permpoly.polytopes
imports strict_separation_lp from permpoly.lp, so both module
attributes get the wrapper.  Spans nest; a span's self time is its
duration minus the time covered by its child spans.  Recording happens
only while Tracer.active is set, so untimed verification leaves no
trace.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("groups", "reps", "linalg", "intlinalg", "lp", "polytopes",
           "characters")

# methods that carry a layer's work, with the span name they report under
METHODS = (
    ("groups", "FiniteGroup", "generate", "groups.generate"),
    ("groups", "FiniteGroup", "coset_action", "groups.coset_action"),
    ("groups", "FiniteGroup", "subgroups_of_order", "groups.subgroups_of_order"),
    ("reps", "PermRep", "_validate", "reps.PermRep"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []  # open spans: [name, start, child seconds]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self, key):
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.self_s[key] += dur - child
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][2] += dur

    def inside(self, name):
        return any(frame[0] == name for frame in self.stack)

    def error(self, module, exc):
        # count an exception once, in the innermost module it left
        if not getattr(exc, "_perfbench_counted", False):
            self.counters[module + ".errors"] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass


def _span_key(name, args, result, tracer):
    """The key a finished call is recorded under, plus its counters."""
    if name == "polytopes.is_face":
        tracer.counters["polytopes.is_face.faces"] += bool(result.is_face)
        return name + (".pair" if len(set(args[1])) == 2 else ".subset")
    if name == "characters.character_table":
        return name + "." + result.route.replace("-", "_")
    if name == "groups.subgroups_of_order":
        tracer.counters[name + ".found"] += len(result)
    elif name == "reps.effectively_equivalent":
        tracer.counters[name + ".witnesses"] += result is not None
    elif name.startswith("lp.") and tracer.inside("polytopes.is_face"):
        tracer.counters["polytopes.is_face.lp_calls"] += 1
    return name


def _wrap(tracer, name, fn):
    module = name.split(".")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.error(module, exc)
            tracer.exit(name)
            raise
        tracer.exit(_span_key(name, args, result, tracer))
        return result

    return traced


def _wrap_generator(tracer, name, fn):
    """Time each next() of a generator; the consumer's work between
    items stays outside the span."""
    module = name.split(".")[0]

    def iterate(gen):
        while True:
            tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                tracer.exit(name)
                return
            except Exception as exc:
                tracer.error(module, exc)
                tracer.exit(name)
                raise
            tracer.exit(name)
            tracer.counters[name + ".yielded"] += 1
            if tracer.inside("reps.effectively_equivalent"):
                tracer.counters["reps.effectively_equivalent.isomorphisms_tried"] += 1
            yield item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        return iterate(gen) if tracer.active else gen

    return traced


def install():
    """Wrap the traced layers of the imported permpoly; returns the Tracer."""
    tracer = Tracer()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "permpoly" or name.startswith("permpoly.")}
    replaced = {}
    for short in MODULES:
        mod = modules["permpoly." + short]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = "%s.%s" % (short, attr)
            wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap
            replaced[fn] = wrap(tracer, name, fn)
    # rebind every module-level name that resolves to a wrapped function
    for mod in modules.values():
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replaced:
                setattr(mod, attr, replaced[val])
    for short, cls_name, attr, name in METHODS:
        cls = getattr(modules["permpoly." + short], cls_name)
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, name, raw.__func__)))
        else:
            setattr(cls, attr, _wrap(tracer, name, raw))
    return tracer
