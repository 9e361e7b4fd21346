import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascal import sim
from cascal.cascade import CalibrationDataset
from cascal.errors import DegenerateTable
from cascal.lut import (
    LookupTable,
    LutCascade,
    build_lut,
    calibrate_lut_cascade,
    lut_eval,
)


def table(pairs):
    return build_lut(CalibrationDataset(
        x=np.array([p[0] for p in pairs], dtype=float),
        y=np.array([p[1] for p in pairs], dtype=float),
    ))


class TestBuildLut:
    def test_identity_segment(self):
        t = table([(0.0, 0.0), (1.0, 1.0)])
        np.testing.assert_array_equal(t.breakpoints, [0.0, 1.0])
        np.testing.assert_array_equal(t.values, [0.0, 1.0])

    def test_sorts_unsorted_input(self):
        t = table([(1.0, 1.0), (0.0, 0.0)])
        np.testing.assert_array_equal(t.breakpoints, [0.0, 1.0])
        np.testing.assert_array_equal(t.values, [0.0, 1.0])

    def test_duplicates_collapse_by_averaging(self):
        t = table([(0.5, 1.0), (0.5, 3.0), (1.0, 1.0), (0.0, 0.0)])
        np.testing.assert_array_equal(t.breakpoints, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(t.values, [0.0, 2.0, 1.0])

    def test_degenerate_after_collapse(self):
        with pytest.raises(DegenerateTable):
            table([(0.5, 1.0), (0.5, 2.0), (0.5, 3.0)])

    def test_strictly_increasing_required_on_direct_construction(self):
        with pytest.raises(ValueError):
            LookupTable(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(DegenerateTable):
            LookupTable(np.array([0.0]), np.array([1.0]))

    @given(st.permutations(list(range(6))))
    def test_permutation_invariant(self, order):
        xs = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        ys = xs**2
        t = build_lut(CalibrationDataset(xs[order], ys[order]))
        np.testing.assert_array_equal(t.breakpoints, xs)
        np.testing.assert_array_equal(t.values, ys)

    @given(st.permutations(list(range(6))))
    def test_duplicates_summed_in_input_order(self, order):
        # 1e16 + 1.0 - 1e16 is 0.0 in floats, 1e16 - 1e16 + 1.0 is 1.0.
        xs = np.array([0.5, 0.5, 0.5, 0.0, 0.25, 1.0])[order]
        ys = np.array([1e16, 1.0, -1e16, 0.0, 0.5, 1.0])[order]
        total = 0.0
        for x, y in zip(xs, ys):
            if x == 0.5:
                total += y
        t = build_lut(CalibrationDataset(xs, ys))
        np.testing.assert_array_equal(t.breakpoints, [0.0, 0.25, 0.5, 1.0])
        assert t.values[2] == total / 3


class TestLutEval:
    def test_identity_interpolation(self):
        t = table([(0.0, 0.0), (1.0, 1.0)])
        assert lut_eval(t, 0.25) == 0.25

    def test_segment_midpoint(self):
        t = table([(0.0, 0.0), (1.0, 2.0)])
        assert lut_eval(t, 0.5) == 1.0

    def test_slope_extrapolation(self):
        t = table([(0.0, 0.0), (1.0, 2.0)])
        assert lut_eval(t, 1.5) == pytest.approx(3.0, rel=1e-12)
        assert lut_eval(t, -0.5) == pytest.approx(-1.0, rel=1e-12)

    def test_clamp_extrapolation(self):
        t = table([(0.0, 0.0), (1.0, 2.0)])
        assert lut_eval(t, 1.5, extrapolation="clamp") == 2.0
        assert lut_eval(t, -0.5, extrapolation="clamp") == 0.0

    def test_unknown_mode_rejected(self):
        t = table([(0.0, 0.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            lut_eval(t, 0.5, extrapolation="spline")

    def test_exact_at_breakpoints(self, rng):
        xs = np.sort(rng.uniform(0, 1, 8))
        ys = rng.normal(size=8)
        t = build_lut(CalibrationDataset(xs, ys))
        for x, y in zip(xs, ys):
            assert lut_eval(t, x) == y

    @given(st.integers(min_value=0, max_value=6))
    def test_piecewise_linear_midpoints(self, k):
        rng = np.random.default_rng(k)
        xs = np.sort(rng.uniform(0, 1, 8))
        xs += 0.01 * np.arange(8)  # ensure distinct
        ys = rng.normal(size=8)
        t = build_lut(CalibrationDataset(xs, ys))
        mids = 0.5 * (t.breakpoints[:-1] + t.breakpoints[1:])
        want = 0.5 * (t.values[:-1] + t.values[1:])
        got = lut_eval(t, mids)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_vector_eval(self):
        t = table([(0.0, 0.0), (1.0, 2.0)])
        out = lut_eval(t, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 2.0])


class TestLutCascade:
    def test_identity_sensors_compose_to_identity(self, rng):
        x = np.linspace(0.0, 1.0, 30)
        d1 = CalibrationDataset(x, x + rng.normal(0, 1e-4, 30))
        d2 = CalibrationDataset(x, x + rng.normal(0, 1e-4, 30))
        model = calibrate_lut_cascade(d1, d2)
        grid = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(model.apply(grid) - grid)) <= 1e-3

    def test_exactly_representable_truth_has_zero_cost(self):
        # identity truth with zero noise: both tables are exact,
        # so the cascaded map matches the ground-truth correction
        pair = sim.TruthPair(
            sensor1=sim.SensorTruth(np.zeros(0), np.zeros(0), np.zeros(0), 0.0),
            sensor2=sim.SensorTruth(np.zeros(0), np.zeros(0), np.zeros(0), 0.0),
        )
        x = np.linspace(0.0, 1.0, 25)
        d = CalibrationDataset(x, x.copy())
        model = calibrate_lut_cascade(d, d)
        assert sim.cost_j(model.apply, pair) <= 1e-8

    def test_relabels_through_first_table(self):
        # first table doubles; relabeled targets must be doubled d1.y
        d2 = CalibrationDataset(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        d1 = CalibrationDataset(np.array([0.0, 0.5, 1.0]),
                                np.array([0.1, 0.4, 0.9]))
        model = calibrate_lut_cascade(d1, d2)
        np.testing.assert_allclose(model.stage_two.values,
                                   [0.2, 0.8, 1.8], rtol=1e-12)

    def test_dict_roundtrip(self):
        d2 = CalibrationDataset(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        d1 = CalibrationDataset(np.array([0.0, 1.0]), np.array([0.1, 0.9]))
        model = calibrate_lut_cascade(d1, d2, extrapolation="clamp")
        back = LutCascade.from_dict(model.to_dict())
        assert back.extrapolation == model.extrapolation
        for mine, theirs in ((model.stage_one, back.stage_one),
                             (model.stage_two, back.stage_two)):
            np.testing.assert_array_equal(theirs.breakpoints, mine.breakpoints)
            np.testing.assert_array_equal(theirs.values, mine.values)

    def test_from_dict_rejects_foreign_method_tag(self):
        d = CalibrationDataset(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        doc = calibrate_lut_cascade(d, d).to_dict()
        doc["method_tag"] = "bayes"
        with pytest.raises(ValueError, match="not a LUT model"):
            LutCascade.from_dict(doc)
