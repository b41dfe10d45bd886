"""Tests for traffic generation: traces, value models, arrival models."""

import numpy as np
import pytest

from repro.scenarios import VALUE_KINDS
from repro.switch.packet import Packet
from repro.traffic.bernoulli import BernoulliTraffic
from repro.traffic.appmix import ApplicationMixTraffic
from repro.traffic.bursty import BurstyTraffic
from repro.traffic.hotspot import DiagonalTraffic, HotspotTraffic
from repro.traffic.paretoburst import ParetoBurstTraffic
from repro.traffic.trace import Trace
from repro.traffic.values import (
    exponential_values,
    geometric_class_values,
    pareto_values,
    two_value,
    uniform_values,
    unit_values,
)


class TestTrace:
    def test_basic_stats(self):
        packets = [
            Packet(0, 1.0, 0, 0, 0),
            Packet(1, 2.0, 0, 1, 1),
            Packet(2, 3.0, 2, 0, 1),
        ]
        t = Trace(packets, 2, 2, name="t")
        assert len(t) == 3
        assert t.n_slots == 3
        assert t.total_value == 6.0
        assert not t.is_unit_valued
        assert t.max_value() == 3.0 and t.min_value() == 1.0

    def test_arrivals_by_slot(self):
        packets = [Packet(0, 1.0, 1, 0, 0), Packet(1, 1.0, 1, 1, 1)]
        t = Trace(packets, 2, 2)
        assert list(t.arrivals(0)) == []
        assert len(t.arrivals(1)) == 2
        assert list(t.arrivals(99)) == []

    def test_load_matrix_and_offered_load(self):
        packets = [Packet(i, 1.0, 0, 0, 1) for i in range(4)]
        t = Trace(packets, 2, 2)
        assert t.load_matrix() == [[0, 4], [0, 0]]
        assert t.offered_load() == pytest.approx(4 / (1 * 2))

    def test_empty_trace(self):
        t = Trace([], 2, 2)
        assert len(t) == 0
        assert t.n_slots == 0
        assert t.offered_load() == 0.0

    def test_json_roundtrip(self, tmp_path):
        packets = [Packet(0, 2.5, 1, 0, 1), Packet(1, 1.0, 3, 1, 0)]
        t = Trace(packets, 2, 2, name="roundtrip")
        path = str(tmp_path / "trace.json")
        t.save(path)
        t2 = Trace.load(path)
        assert t2.name == "roundtrip"
        assert len(t2) == 2
        assert t2.packets[0].value == 2.5
        assert t2.packets[1].arrival == 3

    def test_describe(self):
        t = Trace([Packet(0, 1.0, 0, 0, 0)], 2, 2)
        d = t.describe()
        assert d["n_packets"] == 1
        assert d["unit_valued"] is True


NAN, INF = float("nan"), float("inf")

#: Rejected parameter sets per value kind (``unit`` takes none).
BAD_VALUE_PARAMS = {
    "unit": [],
    "uniform": [{"lo": 5.0, "hi": 2.0}, {"lo": 0.0}, {"lo": NAN},
                {"hi": INF}, {"hi": NAN}],
    "two-value": [{"alpha": 0.5}, {"alpha": INF}, {"alpha": NAN},
                  {"p_high": 1.5}, {"p_high": NAN}],
    "exponential": [{"mean": 1.0}, {"mean": INF}, {"mean": NAN}],
    "pareto": [{"shape": 0.0}, {"shape": NAN}, {"shape": INF},
               {"scale": -1.0}, {"scale": NAN}, {"scale": INF}],
    "classes": [{"n_classes": 0}, {"n_classes": 2.5}, {"base": 1.0},
                {"base": NAN}, {"base": INF}],
}


@pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
def test_value_factory_rejects_bad_params(kind, rng):
    for params in BAD_VALUE_PARAMS[kind]:
        with pytest.raises(ValueError):
            VALUE_KINDS[kind](**params)
    # The defaults build a model that draws finite positive values.
    value = VALUE_KINDS[kind]()(rng)
    assert 0 < value < INF


class TestValueModels:
    def test_unit(self, rng):
        vm = unit_values()
        assert all(vm(rng) == 1.0 for _ in range(5))

    def test_uniform_range(self, rng):
        vm = uniform_values(2.0, 5.0)
        vals = [vm(rng) for _ in range(200)]
        assert all(2.0 <= v <= 5.0 for v in vals)

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_values(5.0, 2.0)
        with pytest.raises(ValueError):
            uniform_values(0.0, 2.0)

    def test_two_value_support(self, rng):
        vm = two_value(alpha=7.0, p_high=0.5)
        vals = {vm(rng) for _ in range(300)}
        assert vals == {1.0, 7.0}

    def test_two_value_frequency(self, rng):
        vm = two_value(alpha=7.0, p_high=0.25)
        vals = [vm(rng) for _ in range(4000)]
        frac = sum(1 for v in vals if v == 7.0) / len(vals)
        assert 0.18 < frac < 0.32

    def test_two_value_validation(self):
        with pytest.raises(ValueError):
            two_value(alpha=0.5)
        with pytest.raises(ValueError):
            two_value(p_high=1.5)

    def test_exponential_positive(self, rng):
        vm = exponential_values(mean=5.0)
        assert all(vm(rng) >= 1.0 for _ in range(100))

    def test_pareto_heavy_tail(self, rng):
        vm = pareto_values(shape=1.5)
        vals = [vm(rng) for _ in range(2000)]
        assert max(vals) > 10 * np.median(vals)

    def test_geometric_classes(self, rng):
        vm = geometric_class_values(n_classes=3, base=4.0)
        vals = {vm(rng) for _ in range(300)}
        assert vals == {1.0, 4.0, 16.0}


class TestBernoulli:
    def test_deterministic_given_seed(self):
        m = BernoulliTraffic(3, 3, load=0.7)
        t1 = m.generate(20, seed=11)
        t2 = m.generate(20, seed=11)
        assert [p.pid for p in t1.packets] == [p.pid for p in t2.packets]
        assert [(p.src, p.dst) for p in t1.packets] == [
            (p.src, p.dst) for p in t2.packets
        ]

    def test_seed_changes_output(self):
        m = BernoulliTraffic(3, 3, load=0.7)
        t1 = m.generate(20, seed=1)
        t2 = m.generate(20, seed=2)
        assert [(p.src, p.dst, p.arrival) for p in t1.packets] != [
            (p.src, p.dst, p.arrival) for p in t2.packets
        ]

    def test_load_calibration(self):
        m = BernoulliTraffic(4, 4, load=0.5)
        t = m.generate(500, seed=3)
        per_input_per_slot = len(t) / (500 * 4)
        assert 0.42 < per_input_per_slot < 0.58

    def test_overload_supported(self):
        m = BernoulliTraffic(2, 2, load=2.5)
        t = m.generate(100, seed=3)
        assert len(t) / (100 * 2) > 2.0

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            BernoulliTraffic(2, 2, load=-1.0)


class TestBursty:
    def test_mean_load_tracks_duty_cycle(self):
        m = BurstyTraffic(2, 2, p_on=0.2, p_off=0.2, burst_load=2.0)
        t = m.generate(1000, seed=5)
        rate = len(t) / (1000 * 2)
        # Stationary ON probability is 0.5 -> expected rate ~1.0.
        assert 0.8 < rate < 1.2

    def test_burstiness_exceeds_bernoulli(self):
        """Per-slot arrival variance under ON/OFF exceeds the Bernoulli
        model at the same mean rate."""
        bursty = BurstyTraffic(1, 1, p_on=0.1, p_off=0.1, burst_load=2.0)
        t = bursty.generate(2000, seed=9)
        counts = np.zeros(2000)
        for p in t.packets:
            counts[p.arrival] += 1
        mean = counts.mean()
        assert counts.var() > mean  # over-dispersed (Poisson has var=mean)

    def test_dst_weights_validation(self):
        with pytest.raises(ValueError):
            BurstyTraffic(2, 2, dst_weights=[1.0])
        with pytest.raises(ValueError):
            BurstyTraffic(2, 2, dst_weights=[-1.0, 2.0])

    def test_hotspot_weighting(self):
        m = BurstyTraffic(
            2, 4, p_on=0.5, p_off=0.1, burst_load=2.0,
            dst_weights=[0.7, 0.1, 0.1, 0.1],
        )
        t = m.generate(400, seed=1)
        col = [0] * 4
        for p in t.packets:
            col[p.dst] += 1
        assert col[0] > 3 * max(col[1:])


class TestHotspotAndDiagonal:
    def test_hotspot_concentration(self):
        m = HotspotTraffic(3, 3, load=1.0, hot_fraction=0.8, hot_port=2)
        t = m.generate(300, seed=2)
        counts = [0, 0, 0]
        for p in t.packets:
            counts[p.dst] += 1
        assert counts[2] > 2 * (counts[0] + counts[1])

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            HotspotTraffic(2, 2, hot_fraction=1.5)
        with pytest.raises(ValueError):
            HotspotTraffic(2, 2, hot_port=5)

    def test_diagonal_structure(self):
        m = DiagonalTraffic(4, 4, load=1.0, diag_fraction=1.0)
        t = m.generate(50, seed=1)
        assert all(p.dst == p.src for p in t.packets)

    def test_diagonal_off_component(self):
        m = DiagonalTraffic(4, 4, load=1.0, diag_fraction=0.0)
        t = m.generate(50, seed=1)
        assert all(p.dst == (p.src + 1) % 4 for p in t.packets)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("make", [
    lambda v: BernoulliTraffic(3, 3, load=v),
    lambda v: HotspotTraffic(3, 3, load=v),
    lambda v: DiagonalTraffic(3, 3, load=v),
    lambda v: BurstyTraffic(3, 3, burst_load=v),
    lambda v: ParetoBurstTraffic(3, 3, burst_load=v),
    lambda v: ApplicationMixTraffic(3, 3, load_scale=v),
], ids=["bernoulli", "hotspot", "diagonal", "bursty", "paretoburst",
        "appmix"])
def test_load_must_be_finite_and_non_negative(make, bad):
    with pytest.raises(ValueError, match="must be finite"):
        make(bad)


class TestPidOrdering:
    @pytest.mark.parametrize(
        "model",
        [
            BernoulliTraffic(3, 3, load=1.0),
            BurstyTraffic(3, 3),
            HotspotTraffic(3, 3),
            DiagonalTraffic(3, 3),
        ],
    )
    def test_pids_follow_arrival_order(self, model):
        t = model.generate(30, seed=4)
        pids = [p.pid for p in t.packets]
        arrivals = [p.arrival for p in t.packets]
        assert pids == sorted(pids)
        assert arrivals == sorted(arrivals)
