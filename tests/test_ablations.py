"""Tests for the ablation experiment definitions (short horizons; the
full versions run in benchmarks/bench_ablations.py)."""

from repro.experiments.ablations import (
    centralized_ablation,
    source_policy_ablation,
    token_policy_ablation,
    unsafe_ablation,
)

ROUNDS = 600


class TestTokenPolicyAblation:
    def test_three_policies_reported(self):
        rows = token_policy_ablation(rounds=ROUNDS)
        assert [row.policy for row in rows] == ["round-robin", "random", "sticky"]

    def test_round_robin_fair_sticky_starves(self):
        rows = {row.policy: row for row in token_policy_ablation(rounds=ROUNDS)}
        assert rows["round-robin"].fairness > 0.8
        assert rows["sticky"].fairness < 0.2
        starved = min(rows["sticky"].per_source_consumed.values())
        assert starved == 0

    def test_fairness_metric_bounds(self):
        for row in token_policy_ablation(rounds=ROUNDS):
            assert 0.0 <= row.fairness <= 1.0


class TestUnsafeAblation:
    def test_safety_story(self):
        rows = {row.variant: row for row in unsafe_ablation(rounds=ROUNDS)}
        assert rows["signaled (paper)"].safety_violations == 0
        assert rows["greedy (no signal)"].safety_violations > 0

    def test_greedy_throughput_not_lower(self):
        rows = {row.variant: row for row in unsafe_ablation(rounds=ROUNDS)}
        assert (
            rows["greedy (no signal)"].throughput
            >= rows["signaled (paper)"].throughput
        )


class TestCentralizedAblation:
    def test_outages_recorded(self):
        rows = centralized_ablation(rounds=ROUNDS, pf=0.02, pr=0.1)
        distributed, centralized = rows
        assert distributed.outage_rounds == 0
        assert centralized.outage_rounds > 0

    def test_both_safe_variants_deliver_without_churn(self):
        rows = centralized_ablation(rounds=ROUNDS, pf=0.0, pr=0.1)
        for row in rows:
            assert row.throughput > 0


class TestBaselinesIgnoreTheEngineVariable:
    def test_rows_under_repro_engine_equal_the_reference_rows(self, monkeypatch):
        """The baselines' protocol lives in ``update``, which only the
        reference engine runs: the ablations build them on it whatever
        ``REPRO_ENGINE`` names."""
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        reference = (unsafe_ablation(rounds=300), centralized_ablation(rounds=600))
        monkeypatch.setenv("REPRO_ENGINE", "incremental")
        assert (
            unsafe_ablation(rounds=300), centralized_ablation(rounds=600)
        ) == reference


class TestSourcePolicyAblation:
    def test_offered_load_monotone(self):
        rows = source_policy_ablation(rounds=ROUNDS)
        assert rows[-1].policy == "eager"
        light = rows[0]
        eager = rows[-1]
        assert light.throughput < eager.throughput
        assert light.produced < eager.produced

    def test_delivery_bounded_by_offered_load(self):
        for row in source_policy_ablation(rounds=ROUNDS):
            assert row.throughput <= row.offered + 0.01
