"""Failure-detection subsystem (repro.system.detector).

The load-bearing claims, in order:

* a perfect channel (zero loss, zero delay, tight timeout) makes the
  observed :class:`SuspicionView` *converge* to the oracle
  :class:`LiveSet` trajectory -- no false positives, no missed
  detections, and view == truth everywhere outside the detection
  horizon of the last true transition;
* a config with a detector left unset (or a disabled spec) is
  bit-identical to the pinned pre-detector engine;
* lossy/delayed channels produce the pathologies the scenarios study
  (false suspicions, missed detections, misroutes) without breaking
  the run;
* :class:`DetectorSpec` validates eagerly and round-trips through
  JSON, alone and riding a :class:`ScenarioSpec`;
* checkpoint/resume reproduces a detector run bit-identically.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.scenarios import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.system.config import baseline_config
from repro.system.detector import DetectorSpec, FailureDetector, SuspicionView
from repro.system.faults import FaultSpec
from repro.system.simulation import Simulation, simulate

SIM_TIME = 2_500.0
WARMUP = 250.0

#: A detector that cannot be wrong for long: perfect links and a
#: timeout barely above one heartbeat period.  Detection horizon
#: (worst crash-to-suspicion lag) = interval + timeout = 2.0.
PERFECT_DETECTOR = DetectorSpec(
    kind="timeout",
    heartbeat_interval=0.5,
    timeout=1.5,
)

#: Churn with *deterministic* 20-time-unit repairs: every downtime is
#: far longer than the detection horizon, so a perfect-channel detector
#: must catch every crash (exponential repairs would occasionally be
#: shorter than the timeout -- legitimately invisible to any detector).
CONVERGE_FAULTS = FaultSpec(
    mttf=400.0,
    mttr=20.0,
    repair_model="deterministic",
    in_flight="resume",
    queued="preserved",
    retry_limit=2,
    retry_timeout=30.0,
    retry_backoff=1.0,
)


class TestDetectorSpecValidation:
    def test_defaults_are_disabled(self):
        spec = DetectorSpec()
        assert not spec.enabled
        assert spec.delay_distribution() is None

    def test_enabled_iff_positive_interval(self):
        assert DetectorSpec(heartbeat_interval=2.0).enabled

    @pytest.mark.parametrize("bad", [
        dict(kind="psychic"),
        dict(heartbeat_interval=-1.0),
        dict(heartbeat_interval=float("inf")),
        dict(timeout=0.0),
        dict(phi_threshold=-2.0),
        dict(window=0),
        dict(window=1.5),
        dict(delay_model="telepathy"),
        dict(delay_mean=-0.5),
        dict(loss_probability=1.0),
        dict(loss_probability=-0.1),
        dict(misroute_delay=-1.0),
        dict(max_redirects=-1),
    ])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            DetectorSpec(**bad)

    def test_prior_mean_includes_channel_delay(self):
        spec = DetectorSpec(heartbeat_interval=2.0, delay_mean=0.5)
        assert spec.prior_mean == 2.5

    def test_round_trip(self):
        spec = DetectorSpec(
            kind="phi",
            heartbeat_interval=2.0,
            phi_threshold=3.0,
            window=16,
            delay_model="erlang",
            delay_mean=0.25,
            delay_shape=3.0,
            loss_probability=0.05,
            misroute_delay=0.5,
            max_redirects=2,
        )
        clone = DetectorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown DetectorSpec"):
            DetectorSpec.from_dict({"heartbeat_interval": 2.0, "typo": 1})

    def test_describe_names_the_algorithm(self):
        assert "timeout" in DetectorSpec(heartbeat_interval=2.0).describe()
        assert "phi" in DetectorSpec(
            kind="phi", heartbeat_interval=2.0
        ).describe()

    def test_detector_requires_enabled_spec(self):
        with pytest.raises(ValueError, match="enabled"):
            FailureDetector(
                env=None, nodes=[], spec=DetectorSpec(), streams=None,
                metrics=None, view=SuspicionView(0),
            )


class TestSuspicionView:
    def test_starts_all_trusted(self):
        view = SuspicionView(4)
        assert view.live_count == 4
        assert view.node_count == 4
        assert all(i in view for i in range(4))
        assert view.live_indices() == [0, 1, 2, 3]

    def test_flips_update_count_and_version(self):
        view = SuspicionView(3)
        view.mark_suspected(1)
        assert 1 not in view
        assert view.live_count == 2
        assert view.version == 1
        assert view.live_indices() == [0, 2]
        # Idempotent: re-suspecting is not a flip.
        view.mark_suspected(1)
        assert view.version == 1
        view.mark_trusted(1)
        assert 1 in view
        assert view.live_count == 3
        assert view.version == 2
        view.mark_trusted(1)
        assert view.version == 2


def _converged_sim() -> Simulation:
    config = baseline_config(
        sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
        faults=CONVERGE_FAULTS, detector=PERFECT_DETECTOR,
    )
    sim = Simulation(config)
    sim.run()
    return sim


class TestConvergenceToOracle:
    """Perfect channel + tight timeout == the oracle, up to the horizon."""

    @pytest.fixture(scope="class")
    def sim(self):
        return _converged_sim()

    def test_no_false_positives_or_missed_detections(self, sim):
        result = sim.metrics.snapshot(sim.env.now)
        assert result.false_suspicions == 0
        assert result.missed_detections == 0
        assert result.detections > 0
        # Crash-to-suspicion lag is bounded by interval + timeout.
        assert 0.0 < result.detection_latency <= 2.0

    def test_view_matches_truth_outside_horizon(self, sim):
        detector = sim.failure_detector
        view = sim.suspicion_view
        horizon = (
            PERFECT_DETECTOR.heartbeat_interval + PERFECT_DETECTOR.timeout
        )
        now = sim.env.now
        for i, node in enumerate(sim.nodes):
            if now - detector.last_transition[i] <= horizon:
                continue  # detection/rehabilitation may still be in flight
            assert (i in view) == node._up, f"node {i}"

    def test_fault_trajectory_matches_oracle_run(self, sim):
        """The fault clocks draw from their own streams, so observing
        through a detector must not move a single crash: per-node crash
        counts and downtime equal the oracle (detector-off) run's."""
        result = sim.metrics.snapshot(sim.env.now)
        oracle = simulate(
            baseline_config(
                sim_time=SIM_TIME, warmup_time=WARMUP, seed=17,
                strategy="EQF", faults=CONVERGE_FAULTS,
            )
        )
        assert result.total_crashes > 0
        assert (
            [n.crashes for n in result.per_node]
            == [n.crashes for n in oracle.per_node]
        )
        assert (
            [n.downtime for n in result.per_node]
            == [n.downtime for n in oracle.per_node]
        )


class TestObservedModePathologies:
    def test_lossy_channel_produces_misroutes_and_errors(self):
        config = get_scenario("lossy-heartbeats").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
        )
        result = simulate(config)
        assert result.total_crashes > 0
        assert result.detections > 0
        assert result.detection_latency > 0
        assert result.misroutes > 0
        assert result.total_suspicions >= result.detections
        # The run still makes progress through all the confusion.
        assert result.global_.completed > 0

    def test_phi_detector_false_suspicions_without_faults(self):
        config = get_scenario("paranoid-detector").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
        )
        result = simulate(config)
        # Perfectly reliable nodes: every suspicion is false, nothing
        # is ever detected or missed, and no submit can misroute.
        assert result.total_crashes == 0
        assert result.false_suspicions > 0
        assert result.false_suspicions == result.total_suspicions
        assert result.detections == 0
        assert result.missed_detections == 0
        assert result.misroutes == 0
        # Falsely drained nodes rehabilitate: the system keeps completing.
        assert result.global_.completed > 0

    def test_sluggish_detector_misses_detections(self):
        config = get_scenario("slow-detector-churn").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
        )
        result = simulate(config)
        assert result.missed_detections > 0
        assert result.misroutes > 0


class TestScenarioIntegration:
    def test_detector_scenarios_round_trip(self):
        for name in (
            "lossy-heartbeats", "slow-detector-churn",
            "paranoid-detector", "detector-preemptive",
        ):
            spec = get_scenario(name)
            assert spec.detector is not None and spec.detector.enabled
            clone = ScenarioSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert clone == spec

    def test_describe_mentions_detector(self):
        assert "detector(" in get_scenario("lossy-heartbeats").describe()

    def test_detector_rides_config(self):
        config = get_scenario("paranoid-detector").to_config(seed=3)
        assert config.detector is not None
        assert config.detector.kind == "phi"

    def test_mapping_detector_is_converted(self):
        spec = ScenarioSpec(
            name="adhoc",
            detector={"heartbeat_interval": 2.0, "timeout": 5.0},
        )
        assert isinstance(spec.detector, DetectorSpec)
        assert spec.detector.timeout == 5.0


class TestCheckpointResume:
    def test_detector_resume_is_bit_identical(self, tmp_path):
        """Heartbeat channels, expiry timers, phi windows, and the
        suspicion view must all survive a snapshot: resuming mid-run
        finishes bit-identically to the uninterrupted run."""
        config = get_scenario("lossy-heartbeats").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="EQF",
        )
        straight = simulate(config)
        assert straight.misroutes > 0  # the snapshot covers a busy run

        sim = Simulation(config)
        sim.env.run(until=config.warmup_time)
        sim.metrics.reset(sim.env.now)
        sim._warmup_done = True
        sim.env.run(until=1_200.0)
        path = str(tmp_path / "detector.ckpt")
        save_checkpoint(sim, path)
        assert load_checkpoint(path).run() == straight

    def test_phi_detector_resume_is_bit_identical(self, tmp_path):
        """The phi leg additionally carries per-node sample windows."""
        config = get_scenario("paranoid-detector").to_config(
            sim_time=SIM_TIME, warmup_time=WARMUP, seed=17, strategy="UD",
        )
        straight = simulate(config)
        sim = Simulation(config)
        sim.env.run(until=config.warmup_time)
        sim.metrics.reset(sim.env.now)
        sim._warmup_done = True
        sim.env.run(until=1_200.0)
        path = str(tmp_path / "phi.ckpt")
        save_checkpoint(sim, path)
        assert load_checkpoint(path).run() == straight
