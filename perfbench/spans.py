"""Spans around the calls into each psdmask layer, recorded from outside src/.

``Tracer.install`` wraps every public module-level function of the layer
modules and rebinds the wrapper under every name that binds the original in
any loaded psdmask module.  Most call sites bind names by direct import
(``from .linalg import is_psd``), so patching only the defining module would
miss them.  ``evaluate_array`` is wrapped on each ``PreserverFunction``
subclass.  An object that captured a function before ``install`` (a
``functools.partial``, a default argument, a table built at import) would
still call the original, and its calls would count as the caller's self
time; psdmask holds no such reference to a public function.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover.  Aggregates are kept for
every span; the per-span log is kept in memory while ``recording`` is set
and written out by ``save``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("patterns", "functions", "linalg", "operators", "witnesses", "verify", "suite", "cli")

WITNESS_CONSTRUCTORS = (
    "witnesses.rank_one_gram",
    "witnesses.duplicated_pair_gram",
    "witnesses.overlap_probe",
    "witnesses.tail_gram",
    "witnesses.all_ones_witness",
    "witnesses.tensor_blowup",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []  # outermost spans of each name only
        self.depth: list[int] = []
        self.stack: list[int] = []
        self.child: list[float] = []
        self.recording = False
        self.paused = False  # set while the benchmark judges outputs between calls
        self.log_name = array("i")
        self.log_parent = array("i")
        self.log_start = array("d")
        self.log_end = array("d")
        # (checked, random_gram checks, refuted) per verdict returned by a span
        self.verdicts: list[tuple[int, int, bool]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.depth.append(0)
        return self._ids[name]

    def _wrap(self, fn, name: str, on_return=None):
        nid = self._intern(name)
        tracer = self
        stack, child = self.stack, self.child
        calls, self_s, incl_s, depth = self.calls, self.self_s, self.incl_s, self.depth
        log_name, log_parent, log_start, log_end = (
            self.log_name, self.log_parent, self.log_start, self.log_end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if tracer.recording:
                idx = len(log_name)
                log_name.append(nid)
                log_parent.append(stack[-1] if stack else -1)
                log_start.append(0.0)
                log_end.append(0.0)
            else:
                idx = -1
            stack.append(idx)
            child.append(0.0)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                d = t1 - t0
                stack.pop()
                self_s[nid] += d - child.pop()
                calls[nid] += 1
                depth[nid] -= 1
                if depth[nid] == 0:
                    incl_s[nid] += d
                if child:
                    child[-1] += d
                if idx >= 0:
                    log_start[idx] = t0
                    log_end[idx] = t1
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _on_verdict(self, verdict) -> None:
        random = sum(verdict.stats.get("families", {}).get("random_gram", {}).values())
        self.verdicts.append((int(verdict.stats["checked"]), int(random), bool(verdict.refuted)))

    def install(self) -> None:
        hooks = {
            "verify.verify_preservation": self._on_verdict,
            "verify.refute_scalar_outside_interval": self._on_verdict,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"psdmask.{layer}")
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    span = f"{layer}.{name}"
                    wrapped[id(obj)] = (obj, self._wrap(obj, span, hooks.get(span)))
        for modname, mod in list(sys.modules.items()):
            if modname != "psdmask" and not modname.startswith("psdmask."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))
        functions = importlib.import_module("psdmask.functions")
        for cls in list(vars(functions).values()):
            if (inspect.isclass(cls) and issubclass(cls, functions.PreserverFunction)
                    and "evaluate_array" in vars(cls)):
                orig = vars(cls)["evaluate_array"]
                setattr(cls, "evaluate_array", self._wrap(orig, "functions.evaluate_array"))
                self._restore.append((cls, "evaluate_array", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _sum(self, table: list, names) -> float:
        return float(sum(table[self._ids[n]] for n in names if n in self._ids))

    def metrics(self, passes: int, pass_s: float, untraced_pass_s: float,
                scale: float) -> dict[str, float]:
        """Per-layer metrics per pass of the traced phase, as named in
        BENCHMARK.json.

        ``pass_s`` is the mean traced pass time, which the layer self times
        and ``trace.remainder_s`` add up to; ``untraced_pass_s`` is the
        untraced phase's, already in reference seconds.  Every time is
        multiplied by ``scale`` to put it in reference seconds.
        """
        calls = lambda *n: self._sum(self.calls, n) / passes
        incl = lambda *n: scale * self._sum(self.incl_s, n) / passes
        own = lambda *n: scale * self._sum(self.self_s, n) / passes
        layer_self = {
            layer: own(*[n for n in self.names if n.startswith(layer + ".")]) for layer in LAYERS
        }
        checks = sum(v[0] for v in self.verdicts)
        random = sum(v[1] for v in self.verdicts)
        refuted = [v[0] for v in self.verdicts if v[2]]
        tries = calls("witnesses.corner_extend")
        out = {
            "patterns.validate_calls": calls("patterns.validate_rule"),
            "patterns.validate_s": incl("patterns.validate_rule"),
            "patterns.mask_calls": calls("patterns.mask_matrix"),
            "patterns.mask_s": incl("patterns.mask_matrix"),
            "functions.eval_calls": calls("functions.evaluate_array"),
            "functions.eval_s": incl("functions.evaluate_array"),
            "functions.equivariance_s": incl("functions.conjugate_equivariance_check"),
            "linalg.hermitian_calls": calls("linalg.exact_hermitian"),
            "linalg.hermitian_s": own("linalg.exact_hermitian"),
            "linalg.eig_calls": calls("linalg.eig_extremes"),
            "linalg.eig_s": incl("linalg.eig_extremes"),
            "linalg.eig_per_check": (calls("linalg.eig_extremes") * passes / checks) if checks else 0.0,
            "operators.apply_calls": calls("operators.apply"),
            "operators.apply_self_s": own("operators.apply"),
            "witnesses.build_calls": calls(*WITNESS_CONSTRUCTORS),
            "witnesses.build_s": incl(*WITNESS_CONSTRUCTORS),
            "witnesses.embed_calls": calls("witnesses.embed_at"),
            "witnesses.embed_s": incl("witnesses.embed_at"),
            "witnesses.corner_tries": tries,
            "witnesses.corner_accept_ratio": calls("witnesses.corner_extend_auto") / tries if tries else 0.0,
            "witnesses.corner_s": incl("witnesses.corner_extend_auto"),
            "verify.checks": checks / passes,
            "verify.battery_checks": (checks - random) / passes,
            "verify.random_checks": random / passes,
            "verify.sample_calls": calls("verify.sample_psd"),
            "verify.sample_s": incl("verify.sample_psd"),
            "verify.checks_to_refute": sum(refuted) / len(refuted) if refuted else 0.0,
            "verify.refute_scalar_s": incl("verify.refute_scalar_outside_interval"),
            "trace.wall_s": scale * pass_s,
            "trace.untraced_wall_s": untraced_pass_s,
            "trace.overhead_frac": scale * pass_s / untraced_pass_s - 1.0,
            "trace.remainder_s": scale * pass_s - sum(layer_self.values()),
            "trace.spans": sum(self.calls) / passes,
        }
        out.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
        return out

    def save(self, path) -> None:
        """Write the span log: a name table and one row per span."""
        start = np.asarray(self.log_start, dtype=np.float64)
        origin = float(start.min()) if start.size else 0.0
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.log_name, dtype=np.int32),
            parent=np.asarray(self.log_parent, dtype=np.int32),
            start_s=start - origin,
            end_s=np.asarray(self.log_end, dtype=np.float64) - origin,
        )
