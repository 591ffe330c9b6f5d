"""Spans around the calls into each ``noma_ggn`` module, recorded from outside.

A span is (name, start, end, parent index, attributes). Wrappers replace the
program's functions where their callers look them up (``noma_ggn.pep.
integrate_semi_infinite`` is what ``pep`` calls, not ``noma_ggn.specfun``'s
binding), and are removed after the traced pass. A name that no longer
exists is recorded as missing and the metrics built on it report ``None``;
nothing else depends on it. Untraced runs never import this module.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

# (where the caller looks the name up, span name)
TARGETS = (
    ("noma_ggn.pep.integrate_semi_infinite", "specfun.quad"),
    ("noma_ggn.pep.lower_incomplete_gamma_reg", "specfun.gamma"),
    ("noma_ggn.pep.upper_incomplete_gamma_reg", "specfun.gamma"),
    ("noma_ggn.pep.ordered_pdf", "channel.pdf"),
    ("noma_ggn.pep.enumerate_error_events", "noma.enumerate"),
    ("noma_ggn.pep.pep_exact", "pep.exact"),
    ("noma_ggn.cli.pep_exact", "pep.exact"),
    ("noma_ggn.pep.pep_direct", "pep.direct"),
    ("noma_ggn.cli.pep_direct", "pep.direct"),
    ("noma_ggn.pep.pep_closed_form", "pep.closed"),
    ("noma_ggn.cli.pep_closed_form", "pep.closed"),
    ("noma_ggn.pep.union_bound", "pep.union"),
    ("noma_ggn.cli.union_bound", "pep.union"),
    ("noma_ggn.ggd.GGNoiseModel.sample", "ggd.sample"),
    ("noma_ggn.mc.stream_rng", "ggd.stream"),
    ("noma_ggn.cli.simulate_ber", "mc.simulate"),
    ("noma_ggn.cli.estimate_pep_mc", "mc.estimate"),
    ("noma_ggn.cli.run_sweep", "cli.sweep"),
    ("noma_ggn.cli.main", "cli.main"),
)

# per-layer metric -> (unit, span names it is built from)
METRICS = {
    "specfun.quad_calls": ("count", ("specfun.quad",)),
    "specfun.quad_nodes": ("count", ("specfun.quad",)),
    "specfun.quad_ms": ("ms", ("specfun.quad",)),
    "specfun.gamma_calls": ("count", ("specfun.gamma",)),
    "specfun.gamma_ms": ("ms", ("specfun.gamma",)),
    "channel.pdf_calls": ("count", ("channel.pdf",)),
    "channel.pdf_ms": ("ms", ("channel.pdf",)),
    "pep.exact_ms": ("ms", ("pep.exact",)),
    "pep.direct_ms": ("ms", ("pep.direct",)),
    "pep.closed_ms": ("ms", ("pep.closed",)),
    "pep.exact_quads_per_call": ("count", ("pep.exact", "specfun.quad")),
    "pep.union_ms": ("ms", ("pep.union",)),
    "pep.union_pep_evals": ("count", ("pep.union", "pep.exact")),
    "pep.union_distinct_ratio": ("ratio", ("pep.union", "pep.exact")),
    "noma.enumerate_ms": ("ms", ("noma.enumerate",)),
    "noma.events": ("count", ("noma.enumerate",)),
    "ggd.sample_ms": ("ms", ("ggd.sample",)),
    "ggd.samples": ("count", ("ggd.sample",)),
    "mc.simulate_ms": ("ms", ("mc.simulate",)),
    "mc.estimate_ms": ("ms", ("mc.estimate",)),
    "mc.trials": ("count", ("mc.simulate", "mc.estimate")),
    "mc.blocks": ("count", ("ggd.stream",)),
    "mc.trials_per_s": ("1/s", ("mc.simulate", "mc.estimate")),
    "mc.self_ms": ("ms", ("mc.simulate", "mc.estimate", "ggd.sample", "ggd.stream")),
    "cli.sweep_ms": ("ms", ("cli.sweep",)),
    "cli.self_ms": ("ms", ("cli.main", "cli.sweep")),
    "cli.rows": ("count", ("cli.sweep",)),
}


def _resolve(path: str):
    """(owner object, attribute) for a dotted path, or None if gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


def _event_key(args, kwargs):
    """(alpha, L, l, mu, |upsilon| / |d|) of a pep_exact call: the PEP depends
    on the event only through these, and |upsilon| / |d| is kappa up to a
    factor fixed by alpha."""
    event = args[0] if args else kwargs["event"]
    model = args[1] if len(args) > 1 else kwargs["model"]
    ratio = abs(event.upsilon) / abs(event.zeta - event.X)
    return (model.alpha, event.L, event.l, event.mu, float(f"{ratio:.12g}"))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []
        self._saved = []
        self.missing = set()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            attrs = None
            if name == "specfun.quad":
                counter = [0]
                inner = args[0]

                def counted(x):
                    counter[0] += getattr(x, "size", 1)
                    return inner(x)

                args = (counted,) + args[1:]
            elif name == "pep.exact":
                attrs = {"key": _event_key(args, kwargs)}
            elif name in ("mc.simulate", "mc.estimate"):
                # simulate_ber(config, model, trials, ...),
                # estimate_pep_mc(event, config, model, trials, ...)
                at = 2 if name == "mc.simulate" else 3
                attrs = {"trials": int(args[at] if len(args) > at else kwargs["trials"])}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "specfun.quad":
                span[4] = {"nodes": counter[0]}
            elif name in ("noma.enumerate", "cli.sweep"):
                span[4] = {"n": len(result)}
            elif name == "ggd.sample":
                span[4] = {"n": getattr(result, "size", 1)}
            return result

        return traced

    def install(self):
        for path, name in TARGETS:
            found = _resolve(path)
            if found is None:
                self.missing.add(path)
                continue
            owner, attr = found
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the columns, then one row per
        span with times in microseconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["index", "name", "start_us", "end_us", "parent", "attrs"]) + "\n")
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                attrs = {k: v for k, v in (attrs or {}).items() if k != "key"}
                row = [i, name, round(1e6 * (start - origin), 1), round(1e6 * (end - origin), 1), parent, attrs]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass; ``run.py`` adds
        ``trace.overhead_s``, which needs the untraced passes."""
        gone = {name for path, name in TARGETS if path in self.missing}
        by_name = defaultdict(list)
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            by_name[span[0]].append(span)
            if span[3] >= 0:
                children[span[3]].append(i)

        def total_ms(*names):
            return 1e3 * sum(s[2] - s[1] for n in names for s in by_name[n])

        def self_ms(layer):
            ms = 0.0
            for i, s in enumerate(self.spans):
                if s[0].split(".")[0] != layer:
                    continue
                covered = sum(self.spans[c][2] - self.spans[c][1] for c in children[i])
                ms += 1e3 * (s[2] - s[1] - covered)
            return ms

        exact_calls = len(by_name["pep.exact"])
        union_evals = [
            s[4]["key"] for s in by_name["pep.exact"] if s[3] >= 0 and self.spans[s[3]][0] == "pep.union"
        ]
        quads_in_exact = sum(
            1 for s in by_name["specfun.quad"] if s[3] >= 0 and self.spans[s[3]][0] == "pep.exact"
        )
        trials = sum(s[4]["trials"] for n in ("mc.simulate", "mc.estimate") for s in by_name[n])
        mc_ms = total_ms("mc.simulate", "mc.estimate")
        values = {
            "specfun.quad_calls": len(by_name["specfun.quad"]),
            "specfun.quad_nodes": sum(s[4]["nodes"] for s in by_name["specfun.quad"]),
            "specfun.quad_ms": total_ms("specfun.quad"),
            "specfun.gamma_calls": len(by_name["specfun.gamma"]),
            "specfun.gamma_ms": total_ms("specfun.gamma"),
            "channel.pdf_calls": len(by_name["channel.pdf"]),
            "channel.pdf_ms": total_ms("channel.pdf"),
            "pep.exact_ms": total_ms("pep.exact"),
            "pep.direct_ms": total_ms("pep.direct"),
            "pep.closed_ms": total_ms("pep.closed"),
            "pep.exact_quads_per_call": quads_in_exact / exact_calls if exact_calls else 0.0,
            "pep.union_ms": total_ms("pep.union"),
            "pep.union_pep_evals": len(union_evals),
            "pep.union_distinct_ratio": len(set(union_evals)) / len(union_evals) if union_evals else 0.0,
            "noma.enumerate_ms": total_ms("noma.enumerate"),
            "noma.events": sum(s[4]["n"] for s in by_name["noma.enumerate"]),
            "ggd.sample_ms": total_ms("ggd.sample"),
            "ggd.samples": sum(s[4]["n"] for s in by_name["ggd.sample"]),
            "mc.simulate_ms": total_ms("mc.simulate"),
            "mc.estimate_ms": total_ms("mc.estimate"),
            "mc.trials": trials,
            "mc.blocks": len(by_name["ggd.stream"]),
            "mc.trials_per_s": trials / (mc_ms / 1e3) if mc_ms > 0 else 0.0,
            "mc.self_ms": self_ms("mc"),
            "cli.sweep_ms": total_ms("cli.sweep"),
            "cli.self_ms": self_ms("cli"),
            "cli.rows": sum(s[4]["n"] for s in by_name["cli.sweep"]),
        }
        out = {}
        for metric, (unit, needs) in METRICS.items():
            value = None if gone.intersection(needs) else values[metric]
            out[metric] = {"value": value, "unit": unit}
        return out
