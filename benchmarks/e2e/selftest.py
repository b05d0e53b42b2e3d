"""``run.py --selftest``: the benchmark checks its own arithmetic on a
synthetic span tree before anyone trusts a layer number.

- self time = duration minus the union of child intervals, with children
  that overlap each other (parallel workers) counted once;
- a span on a worker thread with no open parent is adopted by the
  innermost enclosing span of another thread and inherits its request id;
- percentile and sample-count rules: p90 needs 100 samples, p99 needs
  1000, fewer yield None; the estimators (`fast`, `paired_ratio`, `typical`, the reference
  scaling) do what the README says;
- a missing entry point yields a null layer metric and a warning, never a
  crash or a silently dropped row.
"""

from __future__ import annotations

import math
import warnings

from e2e import harness as h
from e2e import metrics
from e2e import trace as tr


def _span(layer, start, end, parent=None, request=None, thread=1):
    return [layer, float(start), float(end), parent, request, thread]


def check_self_times() -> None:
    root = _span("request", 0, 100, request="cold:x#0")
    search = _span("search", 10, 70, root, "cold:x#0")
    legal = _span("legality", 20, 40, search, "cold:x#0")
    plan = _span("plan", 40, 50, search, "cold:x#0")
    cc = _span("cc", 70, 95, root, "cold:x#0")
    spans = [root, search, legal, plan, cc]
    own = dict(zip(("request", "search", "legality", "plan", "cc"),
                   tr.self_times(spans)))
    assert own == {"request": 15.0, "search": 30.0, "legality": 20.0,
                   "plan": 10.0, "cc": 25.0}, own
    per_request = tr.by_request(spans)["cold:x#0"]
    assert math.isclose(sum(per_request.values()), 100.0), per_request


def check_orphans() -> None:
    """compile_many: the context span on the main thread, two overlapping
    compile spans on worker threads, one with a child of its own."""
    root = _span("request", 0, 100, request="cold:ctx#0", thread=1)
    ctx = _span("solvers.context", 5, 90, root, "cold:ctx#0", thread=1)
    w1 = _span("compile", 10, 60, None, None, thread=2)
    w1_cc = _span("cc", 30, 55, w1, None, thread=2)
    w2 = _span("compile", 12, 80, None, None, thread=3)
    stray = _span("compile", 200, 210, None, None, thread=4)   # encloser: none
    spans = [root, ctx, w1, w1_cc, w2, stray]
    assert tr.adopt_orphans(spans) == 2
    assert w1[tr.PARENT] is ctx and w2[tr.PARENT] is ctx
    assert stray[tr.PARENT] is None and stray[tr.REQUEST] is None
    assert w1_cc[tr.REQUEST] == "cold:ctx#0", "request id must reach the subtree"
    own = tr.self_times(spans)
    # ctx spans 85; its children cover [10, 80] once, not 50 + 68
    assert math.isclose(own[1], 85.0 - 70.0), own[1]
    per_request = tr.by_request(spans)["cold:ctx#0"]
    # parallel work: summed self time exceeds the request's wall time
    assert sum(per_request.values()) > 100.0


def check_percentiles() -> None:
    assert h.percentile(list(range(99)), 90) is None
    assert h.percentile(list(range(105)), 90) == 94
    assert h.percentile(list(range(999)), 99) is None
    assert h.percentile(list(range(1000)), 99) == 989
    assert math.isclose(h.geomean([1.0, 100.0]), 10.0)
    # fast: the minimum below 8 samples, the lower quartile from 8 on
    assert h.fast([3.0, 1.0, 2.0]) == 1.0
    assert h.fast([float(x) for x in range(1, 12)]) == 3.0
    assert h.paired_ratio([2.0, 4.0, 30.0], [1.0, 2.0, 3.0]) == 2.0
    # typical: every request type weighs the same, one wild sample does not
    by_type = {"a": [1.0, 1.0, 1.0, 50.0], "b": [5.0], "c": [9.0, 11.0]}
    value, n = h.typical(by_type)
    assert n == 7 and math.isclose(value, (1.0 * 5.0 * 9.0) ** (1 / 3)), value
    value, _n = h.typical(by_type, h.median)
    assert math.isclose(value, (1.0 * 5.0 * 10.0) ** (1 / 3)), value
    # the reference scales a time to nominal machine speed
    ref = h.Reference()
    assert math.isclose(ref.normalise(1.0, 2 * ref.NOMINAL_S, 2 * ref.NOMINAL_S), 0.5)
    assert ref.normalise(1.0, None, None) == 1.0


def check_missing_entrypoint() -> None:
    table = [("core.plan.build_ms", "repro.core.plan", "renamed_away"),
             ("cost.model_ms", "repro.no_such_module", "plan_cost"),
             ("ir.validate_ms", "repro.ir.validate", "validate_program")]
    tracer = tr.Tracer(table)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    try:
        assert len(tracer.missing) == 2, tracer.missing
        assert len([w for w in caught if "entry point" in str(w.message)]) == 2
        assert tracer.covered_layers() == {"ir.validate_ms"}
        run = h.Run(True, 0, 0.0, tracer=tracer)
        with run.span("request", "cold:probe#0"):
            from repro.ir import kernels
            from repro.ir.validate import validate_program

            validate_program(kernels.mvm())
        tr.layer_metrics(run, tracer)
        assert "ir.validate_ms" in run.metrics and run.metrics["ir.validate_ms"][1] == 1
        assert run.metrics["trace.missing_entrypoints"][0] == 2
        values = {name: value for name, (value, _n) in run.metrics.items()}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = metrics.result_metrics("cold_compile", values, trace=True)
        assert out["core.plan.build_ms"]["value"] is None
        assert out["cost.model_ms"]["value"] is None
        # ... and a number nobody can mistake for a time in the result line
        line = metrics.numeric(out)
        assert line["cost.model_ms"] == {"value": -1.0, "unit": "ms"}
        assert line["ir.validate_ms"] == out["ir.validate_ms"]
        assert any("cost.model_ms" in str(w.message) for w in caught)
        assert out["ir.validate_ms"]["value"] > 0
        # a layer this workload never enters: 0, not null
        assert out["core.daemon.rss_mb"]["value"] == 0.0
        assert set(out) == {name for name, *_ in metrics.PER_LAYER}
    finally:
        tracer.uninstall()
    from repro.ir import validate

    assert not hasattr(validate.validate_program, "__wrapped__"), "uninstall failed"


def main() -> int:
    checks = (check_self_times, check_orphans, check_percentiles,
              check_missing_entrypoint)
    for check in checks:
        check()
        print(f"selftest: {check.__name__} ok")
    return 0
