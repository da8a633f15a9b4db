"""Traced run: per-layer work counts and self times of the program.

Spans are recorded from the benchmark's own files: the public functions
and methods of each module of `taut` are wrapped at run time, and `taut`
itself is left untouched.  A span's self time is its duration minus the
time of the spans it encloses, so each layer's self time is work done in
that layer's own code.  Counts are taken at the same wrappers.  Spans are
folded into per-name totals as they close; the per-operation totals are
written to a trace file when the run ends.  A name the program no longer
has is skipped with a note on standard error, and its figures read 0, so
the traced run outlives the refactors it measures.

The traced pass runs the workload's operations in order until --seconds
have passed; the same operations are then run untraced, and the ratio of
the two is the tracing overhead.  Every figure is per operation unless
its name says max or share, and every time is at reference speed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

RING_METHODS = {
    "ZTau": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
             "__rmul__", "__pow__", "__lt__", "__abs__", "sign", "floor", "ceil",
             "norm", "conj"),
    "QTau": ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__lt__",
             "__abs__", "sign", "floor", "ceil"),
}
CONSTRUCTIONS = {
    "connect_tuple": "connect", "connect_tuple_derived": "derived",
    "factor_local": "factor", "commutator_trick": "commutator",
    "defect_witness": "defect", "defect_witness_search": "defect",
}
CERTIFICATES = ("TransitivityCertificate", "FactorCertificate",
                "CommutatorCertificate", "DefectWitness")
# `kind` of a rot result (as in its certificate JSON) -> route of `rot`
ROUTES = {"ztau": "translation", "rational": "rational", "enclosure": "enclosure"}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []   # child time of each open span
        self.self_s: Counter = Counter()      # span name -> self seconds
        self.calls: Counter = Counter()       # span or counter name -> calls
        self.outer_s: Counter = Counter()     # label -> seconds of outermost spans
        self.open: Counter = Counter()        # group -> open spans
        self.maxima: Counter = Counter()
        self.totals: Counter = Counter()
        self.noted: set[str] = set()
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name: str, group: str | None = None,
             label: str | None = None, pre=None, post=None):
        """Timed wrapper.  If group is given, the duration of spans opened
        while no other span of the group is open is added to label."""
        tr = self

        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            frame = [0.0]
            tr.stack.append(frame)
            outermost = False
            if group:
                outermost = tr.open[group] == 0
                tr.open[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tr.stack.pop()
                if tr.stack:
                    tr.stack[-1][0] += dt
                tr.self_s[name] += dt - frame[0]
                tr.calls[name] += 1
                if group:
                    tr.open[group] -= 1
                    if outermost:
                        tr.outer_s[label or name] += dt
            if post:
                post(result, args, state)
            return result

        return wrapper

    def mediant_counter(self, fn):
        """Untimed wrapper of LiftMap.__mul__: a product taken inside `rot`
        but outside `rot_enclosure` is one Stern-Brocot mediant."""
        tr = self

        def wrapper(*args, **kwargs):
            if tr.open["lift.rot"] and not tr.open["lift.enclosure"]:
                tr.calls["lift.sb_step"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def note(self, what: str) -> None:
        if what not in self.noted:
            self.noted.add(what)
            print(f"tracing: {what} not in the program; its figures read 0",
                  file=sys.stderr)

    def lookup(self, owner, name: str):
        """owner's own attribute name, or None (noted) if it has none."""
        value = vars(owner).get(name)
        if value is None:
            self.note(f"{owner.__name__}.{name}")
        return value

    def patch_method(self, cls, attr: str, make) -> None:
        """Replace the method cls.attr by make(method), if cls has it."""
        fn = self.lookup(cls, attr) if cls is not None else None
        if fn is not None:
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, make(fn))

    def patch_function(self, modules, home, name: str, make) -> None:
        """Replace the function home.name by make(function) in every module
        that holds it under any name, if home has it."""
        fn = self.lookup(home, name)
        if fn is None:
            return
        wrapped = make(fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def install(self) -> None:
        import importlib

        names = ("ring", "plmap", "circle", "lift", "construct", "expr", "cli")
        mods = {n: importlib.import_module(f"taut.{n}") for n in names}
        every = list(mods.values()) + [importlib.import_module("taut")]
        ring, plmap, circle, lift = mods["ring"], mods["plmap"], mods["circle"], mods["lift"]
        span, method, function = self.span, self.patch_method, self.patch_function

        for cls_name, methods in RING_METHODS.items():
            cls = self.lookup(ring, cls_name)
            for m in methods:
                method(cls, m, lambda f, n=f"ring.{cls_name}.{m}": span(f, n))
        for fn_name in ("tau_pow", "is_tau_power"):
            function(every, ring, fn_name, lambda f, n=f"ring.{fn_name}": span(f, n))

        pl = self.lookup(plmap, "PLMap")
        method(pl, "__mul__", lambda f: span(f, "plmap.compose", post=self._after_compose))
        method(pl, "__init__", lambda f: span(f, "plmap.build", post=self._after_build))
        method(pl, "shift_roots", lambda f: span(f, "plmap.shift_roots"))
        for m in ("eval", "eval_zt"):
            method(pl, m, lambda f: span(f, "plmap.eval"))

        cm = self.lookup(circle, "CircleMap")
        method(cm, "compose_with_carry", lambda f: span(f, "circle.compose"))
        method(cm, "inverse_with_carry", lambda f: span(f, "circle.inverse"))

        method(self.lookup(lift, "LiftMap"), "__mul__", self.mediant_counter)
        function(every, lift, "rot", lambda f: span(
            f, "lift.rot", group="lift.rot", pre=lambda args: self.calls["lift.sb_step"],
            post=self._after_rot))
        function(every, lift, "rot_enclosure", lambda f: span(
            f, "lift.enclosure", group="lift.enclosure", post=self._after_enclosure))
        for fn_name in ("verify_rot", "verify_scl"):
            function(every, lift, fn_name, lambda f, n=f"lift.{fn_name}": span(
                f, n, group="lift.verify", label="lift.verify"))

        con = mods["construct"]
        for fn_name, label in CONSTRUCTIONS.items():
            function(every, con, fn_name, lambda f, n=f"construct.{fn_name}",
                     label=f"construct.{label}": span(f, n, group="construct", label=label))
        for cls_name in CERTIFICATES:
            method(self.lookup(con, cls_name), "verify",
                   lambda f, n=f"construct.{cls_name}.verify": span(
                       f, n, group="construct.verify", label="construct.verify"))

        for fn_name, group in (("parse", "expr.parse"), ("evaluate", "expr.evaluate"),
                               ("serialize", "expr.serialize"),
                               ("canonical_json", "expr.serialize"),
                               ("deserialize", "expr.deserialize")):
            function(every, mods["expr"], fn_name, lambda f, n=f"expr.{fn_name}", g=group:
                     span(f, n, group=g, label=g))

        function(every, mods["cli"], "main", lambda f: span(f, "cli.main"))

    # -- counts taken at the wrappers ----------------------------------------

    def _after_compose(self, result, args, state) -> None:
        self.totals["pieces_out"] += len(getattr(result, "ks", ()))

    def _after_build(self, result, args, state) -> None:
        table = args[0]
        self.maxima["pieces"] = max(self.maxima["pieces"], len(getattr(table, "ks", ())))
        bits = max((max(abs(z.a).bit_length(), abs(z.b).bit_length())
                    for z in getattr(table, "xs", []) + getattr(table, "ys", [])),
                   default=0)
        self.maxima["coeff_bits"] = max(self.maxima["coeff_bits"], bits)

    def _after_rot(self, result, args, steps_before) -> None:
        steps = self.calls["lift.sb_step"] - steps_before
        self.totals["sb_steps"] += steps
        kind = getattr(result, "kind", None)
        route = ROUTES.get(kind)
        if route is None:
            self.note(f"rot result kind {kind!r}")
            return
        self.totals[f"route_{route}"] += 1
        if route != "enclosure":
            self.totals["sb_useful"] += steps

    def _after_enclosure(self, result, args, state) -> None:
        asked, used = args[1], getattr(result, "iterations", args[1])
        while used < asked:
            used *= 2
            self.totals["cap_retries"] += 1

    def layer_self_s(self) -> dict:
        out = Counter()
        for name, s in self.self_s.items():
            out[name.split(".")[0]] += s
        return out


def _fresh_interpreter(args: list[str], src: Path) -> tuple[float, str]:
    """Run args in a fresh interpreter importing from src: (wall seconds, stdout)."""
    t0 = perf_counter()
    out = subprocess.run([sys.executable] + args, check=True, cwd=src.parent,
                         env={"PYTHONPATH": str(src), "PATH": ""},
                         capture_output=True, text=True).stdout
    return perf_counter() - t0, out


def _run_ops(ops, main, gauge, path: Path, stop_after: float | None = None,
             on_op=None):
    """Answer and replay ops in order, until stop_after seconds have passed;
    returns (samples, answer texts, failed)."""
    from run import run_op

    samples, first, failed = [], [None] * len(ops), 0
    begin = perf_counter()
    for i, op in enumerate(ops):
        if stop_after is not None and perf_counter() - begin >= stop_after:
            break
        gauge.maybe_sample()
        done = run_op(op, main, path)
        if done is None:
            failed += 1
            continue
        first[i], times = done
        samples.append(times)
        if on_op:
            on_op(op, times)
    return samples, first, failed


def traced_run(ops, taut, seconds: float, gauge, path: Path, trace_path: Path) -> dict:
    from run import SRC

    tracer = Tracer()
    per_op = []
    last = {}

    def on_op(op, times):
        t0, t1, c0, c1 = times
        now = tracer.layer_self_s()
        per_op.append({"family": op.family, "answer_ms": 1000 * (t1 - t0),
                       "check_ms": 1000 * (c1 - c0),
                       "self_ms": {k: 1000 * (v - last.get(k, 0.0)) for k, v in now.items()}})
        last.update(now)

    tracer.install()
    try:
        t_begin = perf_counter()
        samples, first, failed = _run_ops(ops, taut.cli.main, gauge, path,
                                          seconds, on_op)
        t_end = perf_counter()
    finally:
        tracer.uninstall()
    done = len(samples) + failed
    plain, _, _ = _run_ops(ops[:done], taut.cli.main, gauge, path)

    def total(ss):
        return sum((a1 - a0) * gauge.factor(a0, a1) + (c1 - c0) * gauge.factor(c0, c1)
                   for a0, a1, c0, c1 in ss)

    speed = gauge.factor(t_begin, t_end)
    n = max(1, len(samples))
    ms = 1000 * speed / n
    t, c, o = tracer.totals, tracer.calls, tracer.outer_s
    layers = tracer.layer_self_s()
    sb = t["sb_steps"]
    report = {
        "ring.calls": (sum(v for k, v in c.items() if k.startswith("ring.")) / n, "count"),
        "ring.self_ms": (layers["ring"] * ms, "ms"),
        "ring.max_coeff_bits": (tracer.maxima["coeff_bits"], "bits"),
        "plmap.compose_calls": (c["plmap.compose"] / n, "count"),
        "plmap.compose_self_ms": (tracer.self_s["plmap.compose"] * ms, "ms"),
        "plmap.pieces_out": (t["pieces_out"] / n, "count"),
        "plmap.max_pieces": (tracer.maxima["pieces"], "count"),
        "plmap.tables_built": (c["plmap.build"] / n, "count"),
        "plmap.build_self_ms": (tracer.self_s["plmap.build"] * ms, "ms"),
        "plmap.shift_roots_calls": (c["plmap.shift_roots"] / n, "count"),
        "plmap.shift_roots_self_ms": (tracer.self_s["plmap.shift_roots"] * ms, "ms"),
        "plmap.eval_calls": (c["plmap.eval"] / n, "count"),
        "circle.compose_calls": (c["circle.compose"] / n, "count"),
        "circle.compose_self_ms": (tracer.self_s["circle.compose"] * ms, "ms"),
        "circle.inverse_calls": (c["circle.inverse"] / n, "count"),
        "lift.rot_calls": (c["lift.rot"] / n, "count"),
        "lift.rot_self_ms": (tracer.self_s["lift.rot"] * ms, "ms"),
        "lift.route_translation": (t["route_translation"] / n, "count"),
        "lift.route_rational": (t["route_rational"] / n, "count"),
        "lift.route_enclosure": (t["route_enclosure"] / n, "count"),
        "lift.sb_steps": (sb / n, "count"),
        "lift.sb_useful_share": (t["sb_useful"] / sb if sb else 1.0, "share"),
        "lift.enclosure_ms": (o["lift.enclosure"] * ms, "ms"),
        "lift.enclosure_cap_retries": (t["cap_retries"] / n, "count"),
        "lift.verify_ms": (o["lift.verify"] * ms, "ms"),
        "construct.connect_ms": (o["construct.connect"] * ms, "ms"),
        "construct.derived_ms": (o["construct.derived"] * ms, "ms"),
        "construct.factor_ms": (o["construct.factor"] * ms, "ms"),
        "construct.commutator_ms": (o["construct.commutator"] * ms, "ms"),
        "construct.defect_ms": (o["construct.defect"] * ms, "ms"),
        "construct.verify_ms": (o["construct.verify"] * ms, "ms"),
        "expr.parse_ms": (o["expr.parse"] * ms, "ms"),
        "expr.evaluate_ms": (o["expr.evaluate"] * ms, "ms"),
        "expr.serialize_ms": (o["expr.serialize"] * ms, "ms"),
        "expr.deserialize_ms": (o["expr.deserialize"] * ms, "ms"),
        "cli.main_self_ms": (tracer.self_s["cli.main"] * ms, "ms"),
    }
    # medians of five fresh interpreters: `import taut` inside one, and a
    # whole `taut scl` command from outside
    t0 = perf_counter()
    code = "import time; t = time.perf_counter(); import taut; print(time.perf_counter() - t)"
    imports = [float(_fresh_interpreter(["-c", code], SRC)[1]) for _ in range(5)]
    report["cli.import_ms"] = (1000 * statistics.median(imports)
                               * gauge.factor(t0, perf_counter()), "ms")
    t0 = perf_counter()
    command = ["-m", "taut.cli", "scl", "--json", "--", "lift(trans(t),0)"]
    spawns = [_fresh_interpreter(command, SRC)[0] for _ in range(5)]
    report["cli.spawn_ms"] = (1000 * statistics.median(spawns)
                              * gauge.factor(t0, perf_counter()), "ms")
    report["trace.overhead_pct"] = (100 * (total(samples) / total(plain) - 1), "%")
    trace_path.write_text(json.dumps({"operations": per_op}, indent=1), encoding="utf-8")
    print(json.dumps({"traced_operations": len(samples),
                      "overhead_pct": report["trace.overhead_pct"][0]}))
    report.update(first=first, attempted=done, failed=failed)
    return report
