"""Checks of the benchmark's own arithmetic: the percentile rule, quartile
spread, self time and span bookkeeping.  Run with

    python3 -m pytest perfbench/test_perfbench.py
"""

import statistics
import sys
import types

import pytest

from stats import (REFERENCE_MS, WINDOW, covered_length, percentile, quartile_spread,
                   samples_beyond, scale_factors, self_times, tail_percentile)
from tracing import (Tracer, group_shares, layer_metrics, linalg_parent, span_group,
                     step_span_totals)


def test_percentile_is_nearest_rank():
    xs = list(range(1, 11))
    assert percentile(xs, 50) == 5
    assert percentile(xs, 90) == 9
    assert percentile(xs, 91) == 10
    assert percentile(xs, 100) == 10
    assert percentile([3.0], 50) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3     # order of input does not matter


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_p90_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 90)


def test_quartile_spread_matches_statistics_quantiles():
    xs = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.8, 9.7, 10.0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == (q3 - q1) / med
    assert quartile_spread([2.0] * 10) == 0.0


def test_scale_factors_use_the_bursts_around_each_step():
    bursts = [REFERENCE_MS] * 10
    assert scale_factors(bursts) == [1.0] * 9
    slow = [2 * REFERENCE_MS] * 10       # machine at half speed: times scale by 1/2
    assert scale_factors(slow) == [0.5] * 9
    mixed = [REFERENCE_MS] * 20 + [2 * REFERENCE_MS] * 20
    f = scale_factors(mixed)
    assert len(f) == 39
    assert f[0] == 1.0 and f[-1] == 0.5
    assert f[19 - WINDOW - 1] == 1.0     # window still entirely before the change
    assert scale_factors([REFERENCE_MS]) == []


def test_covered_length_merges_and_clips():
    assert covered_length([], 0, 10) == 0.0
    assert covered_length([(1, 3), (2, 5)], 0, 10) == 4
    assert covered_length([(1, 3), (4, 5)], 0, 10) == 3
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([(20, 30)], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        (0.0, 10.0, -1),     # root
        (1.0, 3.0, 0),       # child
        (2.0, 5.0, 0),       # overlaps the first child
        (9.0, 12.0, 0),      # runs past the root: only [9, 10] counts
        (1.5, 2.0, 1),       # grandchild: counts against its parent, not the root
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])


def test_self_times_of_nested_tree_sum_to_root():
    spans = [(0.0, 8.0, -1), (1.0, 4.0, 0), (1.5, 2.5, 1), (5.0, 7.0, 0), (5.5, 6.0, 3)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_tracer_records_parents_and_restores():
    mod = types.ModuleType("capflow_fake_layer")
    sys.modules[mod.__name__] = mod
    try:
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        tracer = Tracer()
        orig_inner = mod.inner
        tracer._patch(mod, "inner", tracer.wrap("forms.inner", mod.inner))
        tracer._patch(mod, "outer", tracer.wrap("control.outer", mod.outer))
        assert mod.outer(1) == 4
        tracer.uninstall()
        assert mod.inner is orig_inner
        names = [(s[0], s[1]) for s in tracer.spans]
        assert names == [("control.outer", -1), ("forms.inner", 0)]
    finally:
        del sys.modules[mod.__name__]


def _span(name, parent, start, end, attrs=None):
    return [name, parent, start, end, attrs]


def test_linear_solves_are_attributed_by_ancestor():
    spans = [
        _span("control.run_instantaneous_control", -1, 0.0, 1.0),
        _span("ale.solve_domain_velocity", 0, 0.0, 0.1),
        _span("linalg.spsolve", 1, 0.01, 0.05),
        _span("forms.solve", 0, 0.2, 0.4),
        _span("linalg.spsolve", 3, 0.2, 0.3),
        _span("adjoint.solve_adjoint", 0, 0.5, 0.8),
        _span("forms.solve", 5, 0.5, 0.8),
        _span("linalg.splu", 6, 0.5, 0.7),
    ]
    assert [linalg_parent(spans, i) for i in (2, 4, 7)] == ["ale", "state", "adjoint"]
    m = layer_metrics(spans, [(0.0, 1.0)])
    assert m["linalg.ale.ms"][0] == pytest.approx(40.0)
    assert m["linalg.state.ms"][0] == pytest.approx(100.0)
    assert m["linalg.adjoint.ms"][0] == pytest.approx(200.0)
    assert m["linalg.calls"][0] == 3
    assert m["forms.solve.calls"][0] == 2
    assert m["forms.solve.self_ms"][0] == pytest.approx(100.0 + 100.0)


def test_step_totals_count_top_level_spans_per_step():
    spans = [
        _span("control.run_instantaneous_control", -1, 0.0, 2.0),
        _span("forms.assemble_state_system", 0, 0.1, 0.4),
        _span("forms.state_blocks", 1, 0.1, 0.3),       # nested: inside its parent's time
        _span("forms.solve", 0, 0.5, 0.9),
        _span("forms.solve", 0, 1.2, 1.7),
    ]
    totals = step_span_totals(spans, [(0.0, 1.0), (1.0, 2.0)])
    assert totals == pytest.approx([700.0, 500.0])


def test_groups_are_disjoint_and_claimed_by_nearest_module():
    spans = [
        _span("control.run_instantaneous_control", -1, 0.0, 2.0),
        _span("ale.solve_domain_velocity", 0, 0.0, 0.2),
        _span("forms.element_data", 1, 0.0, 0.05),        # ALE's own assembly
        _span("linalg.spsolve", 1, 0.1, 0.2),             # ALE's own solve
        _span("forms.assemble_state_system", 0, 0.2, 0.5),
        _span("scipy.bmat", 4, 0.4, 0.5),
        _span("forms.solve", 0, 0.5, 0.9),
        _span("linalg.spsolve", 6, 0.5, 0.8),
        _span("adjoint.assemble_adjoint_system", 0, 1.0, 1.4),
        _span("forms.state_blocks", 8, 1.0, 1.3),         # second state_blocks
        _span("control.objective_increment", 0, 1.4, 1.6),
        _span("forms.mass_matrix", 10, 1.4, 1.5),
        _span("writers.write_vtk_snapshot", 0, 1.6, 1.8),
        _span("writers.write_history_csv", -1, 2.5, 2.7),  # after the last step
    ]
    groups = [span_group(spans, i) for i in range(len(spans))]
    assert groups == [None, "mesh_motion", "mesh_motion", "mesh_motion", "assembly",
                      "assembly", "linalg", "linalg", "adjoint", "adjoint", None,
                      "assembly", "writers", "writers"]
    shares = group_shares(spans, [(0.0, 1.0), (1.0, 2.0)])
    assert shares["mesh_motion"] == pytest.approx(10.0)
    assert shares["assembly"] == pytest.approx(20.0)        # 0.3 + 0.1 mass matrix of 2 s
    assert shares["linalg"] == pytest.approx(20.0)
    assert shares["adjoint"] == pytest.approx(20.0)
    assert shares["writers"] == pytest.approx(10.0)        # the CSV write is outside the steps
    assert shares["other"] == pytest.approx(20.0)          # loop and objective self time
    assert sum(shares.values()) == pytest.approx(100.0)


def test_overhead_is_taken_per_untraced_traced_pair():
    import run
    reps = []
    for traced, ms in [(False, 10.0), (True, 11.0), (False, 20.0), (True, 20.5), (False, 9.0)]:
        rep = run.Rep(traced=traced)
        t = 0.0
        for _ in range(5):      # bursts at the reference speed: steps are not rescaled
            rep.marks.append((t, t, REFERENCE_MS))
            t += ms / 1e3
        reps.append(rep)
    assert run.overhead_pairs(reps) == pytest.approx([1.0, 0.5])
