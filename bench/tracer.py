"""Span tracer for the cdsp benchmark's traced run.

It replaces cdsp's public functions at their module attributes (and at every
``from .x import f`` binding of the same object) with wrappers that record a
span per call: name, start, end, parent span and analysis id. The pipeline
looks these functions up through module attributes or module globals at call
time, so the wrappers see every call. Spans stay in memory until the run
ends. Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from cdsp.errors import CdspError

ROOT = "analysis"

# Layer (cdsp module) -> public functions wrapped in the traced run.
WRAPPED = {
    "measure": ("parse_measure",),
    "fejer": ("build_trig", "factorize", "verify_identity"),
    "numerics": ("poly_roots", "solve_linear", "cholesky_herm", "synthetic_division"),
    "dirichlet": ("build_dirichlet",),
    "debranges": ("extract_C", "eval_S"),
    "verdict": ("decide", "offdiag_sums", "psd_search", "moment_truncation"),
    "oracle": ("monomial_gram", "cauchy_dual_matrix", "bn_dual_probe",
               "dual_norm", "norm_sq"),
    "report": ("run_oracle", "build_report", "report_to_json"),
}


def _count_eval_S(counts, args, kwargs, out):
    z = args[1] if len(args) > 1 else kwargs["z"]
    u = args[2] if len(args) > 2 else kwargs["u"]
    counts["debranges.eval_S.points"] += np.broadcast(np.asarray(z), np.asarray(u)).size


def _count_decide(counts, args, kwargs, v):
    pol = v.policy
    premises_ok = all(ev.premise_ok for ev in v.pair_evidence)
    zero_test = premises_ok and (v.max_offdiag_norm > pol.zero_reject
                                 or v.max_offdiag_norm <= pol.zero_accept)
    counts["verdict.decide.runs"] += 1
    counts["verdict.zero_test_decided"] += zero_test
    counts["verdict.psd_probes"] += len(v.psd_probes)
    counts["verdict.psd_violations"] += sum(
        p.min_eig < -pol.psd_tol * max(abs(p.trace), 1e-300) for p in v.psd_probes)


def _count_json(counts, args, kwargs, text):
    counts["report.json_bytes"] += len(text.encode())


# Counts taken at a span's boundary from its arguments and result. They run
# after the span has closed, so their cost is tracing overhead in the parent.
HOOKS = {"debranges.eval_S": _count_eval_S, "verdict.decide": _count_decide,
         "report.report_to_json": _count_json}

# Per-analysis counters reported as medians, and ratios of counter totals.
COUNTER_METRICS = ("debranges.eval_S.points", "verdict.psd_probes", "report.json_bytes")
RATIO_METRICS = {
    "verdict.zero_test_decided_share": ("verdict.zero_test_decided", "verdict.decide.runs"),
    "verdict.probe_yield": ("verdict.psd_violations", "verdict.psd_probes"),
}


class Tracer:
    """Records spans for the analyses run between ``begin`` and ``end``."""

    def __init__(self):
        # span: [name, start, end, parent index, analysis id, (error id, type) or None]
        self.spans = []
        self.counts = []            # per analysis: counter name -> value
        self._stack = []
        self._patches = []

    def install(self):
        by_id = {}
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"cdsp.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                by_id[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cdsp" and not mod_name.startswith("cdsp."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id and callable(val):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, by_id[id(val)])

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], len(counts) - 1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except CdspError as exc:
                span[5] = (id(exc), type(exc).__name__)
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts[-1], args, kwargs, out)
            return out
        return traced

    def begin(self, t0: float):
        """Open the root span of the next analysis at time ``t0``."""
        self.counts.append(defaultdict(float))
        self._stack[:] = [len(self.spans)]
        self.spans.append([ROOT, t0, 0.0, -1, len(self.counts) - 1, None])

    def end(self, t1: float):
        self.spans[self._stack.pop()][2] = t1

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,analysis,error\n")
            for name, s, e, parent, aid, err in self.spans:
                fh.write(f"{name},{s:.9f},{e:.9f},{parent},{aid},{err[1] if err else ''}\n")

    def summarize(self, keep, scales):
        """Per-analysis inclusive time, self time and calls by span name, for
        the analyses in ``keep``, plus typed errors counted at the innermost
        span that raised them. Times of analysis ``aid`` are multiplied by
        ``scales[aid]`` (see speed.py)."""
        keep = sorted(keep)
        row = {aid: i for i, aid in enumerate(keep)}
        incl = [defaultdict(float) for _ in keep]
        self_t = [defaultdict(float) for _ in keep]
        calls = [Counter() for _ in keep]
        child_time = [0.0] * len(self.spans)
        child_err = [set() for _ in self.spans]
        for name, s, e, parent, aid, err in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
                if err:
                    child_err[parent].add(err[0])
        errors = Counter()
        for i, (name, s, e, parent, aid, err) in enumerate(self.spans):
            if aid not in row:
                continue
            r, f = row[aid], scales[aid]
            incl[r][name] += (e - s) * f
            self_t[r][name] += (e - s - child_time[i]) * f
            calls[r][name] += 1
            if err and err[0] not in child_err[i]:
                errors[name] += 1
        return Summary(incl, self_t, calls, errors, [self.counts[aid] for aid in keep])


class Summary:
    def __init__(self, incl, self_t, calls, errors, counts):
        self.incl, self.self_t, self.calls = incl, self_t, calls
        self.errors, self.counts = errors, counts

    def analysis_ms(self):
        return [a[ROOT] * 1e3 for a in self.incl]

    def metric(self, name: str) -> float:
        """One per-layer metric: medians per analysis of self time, inclusive
        time, calls or counters; totals of errors; ratios of totals."""
        if name in RATIO_METRICS:
            num, den = (sum(c.get(k, 0) for c in self.counts) for k in RATIO_METRICS[name])
            return num / den if den else 0.0
        if name in COUNTER_METRICS:
            return statistics.median(c.get(name, 0) for c in self.counts)
        span, kind = name.rsplit(".", 1)
        if kind == "errors":
            return float(self.errors[span])
        table = {"self_ms": self.self_t, "ms": self.incl, "calls": self.calls}[kind]
        scale = 1e3 if kind != "calls" else 1
        return statistics.median(a.get(span, 0) * scale for a in table)

    def median_breakdown(self):
        """Self time by layer of the analysis with the median traced time;
        the parts add up to that analysis's time exactly."""
        times = self.analysis_ms()
        row = sorted(range(len(times)), key=times.__getitem__)[(len(times) - 1) // 2]
        by_layer = defaultdict(float)
        for name, t in self.self_t[row].items():
            by_layer["unattributed" if name == ROOT else name.split(".")[0]] += t * 1e3
        return times[row], dict(by_layer)


def top_level_stage_ms(tracer: Tracer) -> list:
    """For each analysis, inclusive ms of the spans whose parent is its root."""
    out = [defaultdict(float) for _ in tracer.counts]
    roots = set()
    for i, (name, s, e, parent, aid, err) in enumerate(tracer.spans):
        if parent < 0:
            roots.add(i)
        elif parent in roots:
            out[aid][name] += (e - s) * 1e3
    return out
