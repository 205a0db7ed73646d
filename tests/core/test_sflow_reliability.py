"""Tests for the sFlow reliability layer (acks + retransmission) under a
lossy transport."""

import random

import pytest

from repro.core import recovery
from repro.core.sflow import SFlowAlgorithm, SFlowConfig, _Federation
from repro.errors import SFlowError
from repro.network.failures import ChaosPlan
from repro.obs.clock import Stopwatch
from repro.services.workloads import (
    ScenarioConfig,
    generate_scenario,
    travel_agency_scenario,
)
from repro.sim.channels import MessageNetwork
from repro.sim.engine import Environment


@pytest.fixture
def scenario():
    return travel_agency_scenario()


class TestConfigValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=-0.1)
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=1.0)

    def test_retransmit_timeout_positive(self):
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=0.1, retransmit_timeout=0)

    def test_max_retries_nonnegative(self):
        with pytest.raises(ValueError):
            SFlowConfig(loss_rate=0.1, max_retries=-1)


class TestLossyTransportPrimitive:
    def test_loss_fn_drops_deliveries_but_counts_sends(self):
        env = Environment()
        network = MessageNetwork(env, loss_fn=lambda s, d, e: True)
        box = network.register("dst")
        network.send("src", "dst", "doomed")
        env.run()
        assert len(box) == 0
        assert network.stats.messages == 1
        assert network.stats.lost == 1

    def test_no_loss_fn_means_lossless(self):
        env = Environment()
        network = MessageNetwork(env)
        box = network.register("dst")
        network.send("src", "dst", "fine")
        env.run()
        assert len(box) == 1
        assert network.stats.lost == 0


class TestAFaultFreeSessionArmsNothing:
    """A session whose messages can be neither lost nor delayed seeds no
    RNG and hands the transport no loss or jitter hook; one that can gets
    both, whichever of the config and the chaos plan makes it so."""

    @staticmethod
    def counted(monkeypatch):
        built = []

        class Counted(random.Random):
            def __init__(self, *seed):
                built.append(seed)
                super().__init__(*seed)

        monkeypatch.setattr(recovery.random, "Random", Counted)
        return built

    def test_the_default_session_seeds_no_rng_and_hooks_nothing(
        self, scenario, monkeypatch
    ):
        built = self.counted(monkeypatch)
        result = SFlowAlgorithm().federate(
            scenario.requirement, scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert result.succeeded
        assert built == []
        federation = _Federation(
            scenario.requirement, scenario.overlay, scenario.source_instance,
            SFlowConfig(), None, Stopwatch(),
        )
        assert federation.network._loss_fn is None
        assert federation.network._jitter_fn is None
        assert built == []

    @pytest.mark.parametrize(
        "config, chaos",
        [
            (SFlowConfig(loss_rate=0.1), None),
            (SFlowConfig(), ChaosPlan(delay_jitter=0.5, seed=3)),
        ],
        ids=["lossy-config", "jitter-only-chaos"],
    )
    def test_a_session_that_can_lose_or_delay_arms_both_hooks(
        self, scenario, config, chaos, monkeypatch
    ):
        built = self.counted(monkeypatch)
        federation = _Federation(
            scenario.requirement, scenario.overlay, scenario.source_instance,
            config, chaos, Stopwatch(),
        )
        assert federation.network._loss_fn is not None
        assert federation.network._jitter_fn is not None
        assert len(built) == 4
        assert federation.run().flow_graph is not None


class TestLossyFederation:
    def test_same_result_as_lossless(self, scenario):
        clean = SFlowAlgorithm().solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        lossy_alg = SFlowAlgorithm(
            SFlowConfig(loss_rate=0.3, loss_seed=5, retransmit_timeout=20)
        )
        lossy = lossy_alg.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert lossy.assignment == clean.assignment
        lossy.validate()

    def test_reliability_accounting(self, scenario):
        algorithm = SFlowAlgorithm(
            SFlowConfig(loss_rate=0.3, loss_seed=5, retransmit_timeout=20)
        )
        algorithm.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        result = algorithm.last_result
        assert result.lost_messages > 0
        assert result.retransmissions > 0
        assert result.acks > 0
        # Every sfederate that was processed got acknowledged; sends =
        # originals + retransmissions + acks (initial message is exempt).
        assert result.messages > len(scenario.requirement.edges()) + 1

    def test_lossless_run_has_no_reliability_traffic(self, scenario):
        algorithm = SFlowAlgorithm()
        algorithm.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        result = algorithm.last_result
        assert result.retransmissions == 0
        assert result.lost_messages == 0
        assert result.acks == 0

    def test_loss_slows_convergence(self, scenario):
        clean_alg = SFlowAlgorithm()
        clean_alg.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        lossy_alg = SFlowAlgorithm(
            SFlowConfig(loss_rate=0.4, loss_seed=7, retransmit_timeout=25)
        )
        lossy_alg.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert (
            lossy_alg.last_result.convergence_time
            >= clean_alg.last_result.convergence_time
        )

    def test_deterministic_under_seeded_loss(self, scenario):
        def run():
            algorithm = SFlowAlgorithm(
                SFlowConfig(loss_rate=0.25, loss_seed=11, retransmit_timeout=15)
            )
            algorithm.solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
            result = algorithm.last_result
            return (
                result.messages,
                result.retransmissions,
                result.convergence_time,
            )

        assert run() == run()

    @pytest.mark.parametrize("loss_rate", [0.1, 0.3, 0.5])
    def test_federation_completes_across_loss_rates(self, loss_rate):
        scenario = generate_scenario(
            ScenarioConfig(network_size=14, n_services=5, seed=9)
        )
        algorithm = SFlowAlgorithm(
            SFlowConfig(
                loss_rate=loss_rate, loss_seed=3, retransmit_timeout=10
            )
        )
        graph = algorithm.solve(
            scenario.requirement,
            scenario.overlay,
            source_instance=scenario.source_instance,
        )
        assert graph.is_complete()

    def test_gives_up_after_max_retries(self, scenario):
        # 100% practical loss on protocol messages: every retry fails.
        algorithm = SFlowAlgorithm(
            SFlowConfig(
                loss_rate=0.99,
                loss_seed=0,
                retransmit_timeout=5,
                max_retries=1,
            )
        )
        with pytest.raises(SFlowError):
            algorithm.solve(
                scenario.requirement,
                scenario.overlay,
                source_instance=scenario.source_instance,
            )
