"""In-memory span recorder for the traced run, and the per-layer metrics
computed from its spans.

A span covers one call the benchmark makes into a qlevy module.  It records
its name, start, end, the span that encloses it and the op it belongs to, so
spans from one op share an id.  Spans stay in memory and are written out
when the run ends.
"""

import itertools
import json
import math
import statistics
import time
from collections import defaultdict


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans and gauges cost one method call."""

    op = None

    def span(self, name, **attrs):
        return _NULL_SPAN

    def gauge(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []
        self.gauges = defaultdict(list)
        self.op = None
        self._stack = []
        self._ids = itertools.count()

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def gauge(self, name, value):
        self.gauges[name].append(float(value))

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            fh.write(json.dumps({"gauges": self.gauges}, sort_keys=True) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"name": name, **attrs}

    def __enter__(self):
        tr = self.tracer
        rec = self.record
        rec["id"] = next(tr._ids)
        rec["parent"] = tr._stack[-1] if tr._stack else None
        rec["op"] = tr.op
        tr._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        self.record["end"] = end
        if exc_type is not None:
            self.record["error"] = exc_type.__name__
        tr.spans.append(self.record)
        return False


def slope(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x in sizes]
    ys = [math.log(y) for y in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


BATTERIES = ("axioms", "cocycle", "gns", "derivations", "montecarlo")
CLI_VERBS = ("validate", "semigroup", "cocycle-eval")


def layer_metrics(tracer, cocycle_pieces, overhead_ratio):
    """Name -> (value, unit) for every per-layer metric of the benchmark."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s["name"]].append(s)

    def durations(name, keep=lambda s: True):
        out = [s["end"] - s["start"] for s in by_name[name]
               if "sweep" not in s and "error" not in s and keep(s)]
        if not out:
            raise RuntimeError(f"traced run recorded no {name} span")
        return out

    def ms(name, **match):
        return 1e3 * statistics.median(durations(
            name, lambda s: all(s.get(k) == v for k, v in match.items())))

    def sweep(name, axis):
        sizes = defaultdict(list)
        for s in by_name[name]:
            if s.get("sweep") == axis:
                sizes[s["size"]].append(1e3 * (s["end"] - s["start"]))
        if len(sizes) < 2:
            raise RuntimeError(f"traced run recorded no {name} sweep over {axis}")
        xs = sorted(sizes)
        ys = [statistics.median(sizes[x]) for x in xs]
        return dict(zip(xs, ys)), slope(xs, ys)

    def worst(gauge):
        if not tracer.gauges[gauge]:
            raise RuntimeError(f"traced run recorded no {gauge}")
        return max(tracer.gauges[gauge])

    d_ms, d_slope = sweep("algebra.validate_bialgebra", "d")
    n_ms, n_slope = sweep("algebra.validate_bialgebra", "N")
    _, pieces_slope = sweep("cocycle.matrix_element", "pieces")
    _, nmax_slope = sweep("cocycle.simplex_series_oracle", "n_max")
    out = {
        "algebra.validate_bialgebra.ms_d8": (d_ms[8], "ms"),
        "algebra.validate_bialgebra.slope_d": (d_slope, "exponent"),
        "algebra.choi.ms_N8": (n_ms[8], "ms"),
        "algebra.choi.slope_N": (n_slope, "exponent"),
    }
    for name in ("algebra.build_group_algebra", "algebra.build_function_algebra",
                 "algebra.class_hypergroup_algebra"):
        out[f"{name}.ms"] = (ms(name), "ms")
    out["algebra.load_bialgebra.ms"] = (ms("algebra.load_bialgebra", control=None), "ms")
    out["fixtures.bundled_fixtures.s"] = (ms("fixtures.bundled_fixtures") / 1e3, "s")
    out["import.s"] = (ms("import") / 1e3, "s")
    per_piece = [1e6 * (s["end"] - s["start"]) / s["pieces"]
                 for s in by_name["cocycle.matrix_element"] if "sweep" not in s]
    out["cocycle.matrix_element.us_per_piece"] = (statistics.median(per_piece), "us")
    out["cocycle.matrix_element.slope_pieces"] = (pieces_slope, "exponent")
    out["cocycle.check_cocycle_identity.ms"] = (ms("cocycle.check_cocycle_identity"), "ms")
    out["cocycle.simplex_series_oracle.ms"] = (ms("cocycle.simplex_series_oracle"), "ms")
    out["cocycle.simplex_series_oracle.slope_nmax"] = (nmax_slope, "exponent")
    out["cocycle.pieces"] = (cocycle_pieces, "count")
    out["cocycle.identity_margin"] = (worst("cocycle.identity_margin"), "ratio")
    out["cocycle.oracle_margin"] = (worst("cocycle.oracle_margin"), "ratio")
    out["convolution.semigroup_at.us"] = (1e3 * ms("convolution.semigroup_at"), "us")
    out["convolution.amplified_norm.ms"] = (ms("convolution.amplified_norm"), "ms")
    for name in ("generators.gns_construct", "generators.intertwine_minimal",
                 "derivations.solve_inner", "derivations.implement_chi_structure"):
        out[f"{name}.ms"] = (ms(name), "ms")
    for battery in BATTERIES:
        out[f"harness.run_report.{battery}_ms"] = (ms("harness.run_report", battery=battery),
                                                   "ms")
    rates = [s["samples"] / (s["end"] - s["start"])
             for s in by_name["harness.simulate_compound_poisson"]]
    out["harness.simulate_compound_poisson.samples_per_s"] = (statistics.median(rates), "1/s")
    for verb in CLI_VERBS:
        out[f"cli.main.{verb}_ms"] = (ms("cli.main", verb=verb), "ms")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    bad = [k for k, (v, _) in out.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite per-layer metrics: {bad}")
    return out
