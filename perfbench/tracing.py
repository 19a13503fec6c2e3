"""Spans and counters around dictelab's entry points, installed from outside.

`Tracer.install` replaces each hooked function, in every loaded `dictelab`
module that refers to it, with a wrapper that counts the call and times it
as a span. `Tracer.remove` puts the originals back. Nothing in the package
changes; the untraced run measures the unpatched code.

A call made while a span of the same module is open is internal to that
layer: it opens no span, so recursion (`FdChecker.check_expr`, `fd_step`)
is timed once at its outermost call, and a step taken inside `fd_eval`
stays in the evaluator's time. Internal calls are still counted where the
hook says so. A layer's self time is its spans' duration minus the time
covered by the spans they caused; the benchmark opens a `bench` span
around every item, so the self times of one pass add up to its wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span layer or None, counter, count internal calls)
HOOKS = (
    ("parser", "parse_program", "parser.parse", "parser.parse_calls", False),
    ("parser", "parse_context", "parser.parse", "parser.parse_calls", False),
    ("source_typer", "typecheck_program", "source_typer.typecheck",
     "source_typer.typecheck_calls", False),
    ("fd_core", "fd_env_wf", "fd_core.env_wf", "fd_core.env_wf_calls", False),
    ("fd_core", "FdChecker.check_expr", "fd_core.check",
     "fd_core.check_calls", True),
    ("fd_core", "fd_eval", "fd_core.eval", "fd_core.eval_calls", False),
    ("fd_core", "fd_step", "fd_core.step", "fd_core.steps", False),
    ("target_core", "tgt_eval", "target_core.eval", "target_core.eval_calls",
     False),
    ("syntax", "alpha_eq", "syntax.alpha_eq", "syntax.alpha_eq_calls", False),
    ("syntax", "subst", None, "syntax.subst_calls", True),
    ("harness", "check_coherence", "harness.coherence",
     "harness.coherence_calls", False),
    ("harness", "check_decomposition", "harness.decompose",
     "harness.decompose_calls", False),
    ("harness", "check_metatheory", "harness.meta", "harness.meta_calls",
     False),
    ("harness", "generate_fd_term", "harness.gen", "harness.gen_calls", False),
    ("cli", "main", "cli.main", "cli.main_calls", False),
)

_MARK = "_perfbench_wrapper"


def _count_typecheck(counts, result):
    counts["source_typer.elabs"] += len(result.fd_elabs) + len(result.tgt_elabs)
    counts["source_typer.truncated"] += bool(result.fd_truncated
                                             or result.tgt_truncated)


# Counters read from the result of an outermost call.
_ON_RESULT = {"source_typer.typecheck": _count_typecheck}


def _dictelab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dictelab"
                                  or name.startswith("dictelab."))]


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []      # [module, start, child time]
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # -- installing -------------------------------------------------------

    def install(self):
        for module, attr, layer, counter, count_internal in HOOKS:
            mod = sys.modules.get(f"dictelab.{module}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, orig, self._wrap(
                    orig, module, layer, counter, count_internal))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, module, layer, counter, count_internal)
            for m in _dictelab_modules():
                if vars(m).get(attr) is orig:
                    self._patch(m, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, fn, module, layer, counter, count_internal):
        counts = self.counts
        if layer is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            setattr(counted, _MARK, True)
            return counted

        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        on_result = _ON_RESULT.get(layer)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and stack[-1][0] == module:
                if count_internal:
                    counts[counter] += 1
                return fn(*args, **kwargs)
            counts[counter] += 1
            frame = [module, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if on_result is not None:
                on_result(counts, result)
            return result

        setattr(spanned, _MARK, True)
        return spanned

    # -- spans opened by the benchmark ------------------------------------

    def open(self, module: str):
        self._stack.append([module, time.perf_counter(), 0.0])

    def close(self, layer: str):
        frame = self._stack.pop()
        duration = time.perf_counter() - frame[1]
        self.self_s[layer] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def absorb(self, self_s: dict, counts: dict):
        """Add spans measured in a child process to the open span."""
        for layer, seconds in self_s.items():
            self.self_s[layer] += seconds
        self.counts.update(counts)
        if self._stack:
            self._stack[-1][2] += sum(self_s.values())

    def snapshot(self):
        return dict(self.self_s), Counter(self.counts)


def leftover_wrappers() -> list[str]:
    """Names in dictelab that still hold a tracing wrapper."""
    found = []
    for m in _dictelab_modules():
        for name, value in vars(m).items():
            if getattr(value, _MARK, False):
                found.append(f"{m.__name__}.{name}")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if getattr(fn, _MARK, False):
                        found.append(f"{m.__name__}.{name}.{meth}")
    return found
