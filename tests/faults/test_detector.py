"""Tests for lease-based failure detection from heartbeats."""

import pytest

from repro.control import SimTransport
from repro.core.errors import ConfigurationError, SimulationError
from repro.faults import (
    FailureDetector,
    FaultScenario,
    GpuCrash,
    GpuHealth,
    GpuSlowdown,
    HeartbeatConfig,
    RpcFlakiness,
    run_detection,
)


class TestHeartbeatConfig:
    def test_lease_must_exceed_suspect_window(self):
        with pytest.raises(ConfigurationError, match="lease_s"):
            HeartbeatConfig(interval_s=2.0, suspect_misses=3, lease_s=6.0)

    def test_suspect_window(self):
        cfg = HeartbeatConfig(interval_s=2.0, suspect_misses=2, lease_s=10.0)
        assert cfg.suspect_window_s == 4.0


class TestFailureDetector:
    def cfg(self):
        return HeartbeatConfig(interval_s=1.0, suspect_misses=2, lease_s=5.0)

    def test_alive_while_heartbeating(self):
        det = FailureDetector(cfg=self.cfg())
        det.register(0)
        for t in (1.0, 2.0, 3.0):
            det.observe(0, t)
        assert det.state(0) is GpuHealth.ALIVE
        assert det.dead() == set()

    def test_suspect_then_recover(self):
        """A straggler goes SUSPECT; its late heartbeat clears it."""
        det = FailureDetector(cfg=self.cfg())
        det.register(0, now=0.0)
        det.observe(0, 1.0)
        det.advance(4.5)  # last seen 1.0 + suspect window 2.0 < 4.5
        assert det.state(0) is GpuHealth.SUSPECT
        det.observe(0, 4.6)
        assert det.state(0) is GpuHealth.ALIVE
        states = [t.state for t in det.transitions]
        assert states == [GpuHealth.SUSPECT, GpuHealth.ALIVE]

    def test_dead_at_exact_lease_expiry(self):
        det = FailureDetector(cfg=self.cfg())
        det.register(0, now=0.0)
        det.observe(0, 2.0)
        det.advance(100.0)
        assert det.state(0) is GpuHealth.DEAD
        assert det.detected_at(0) == pytest.approx(7.0)  # 2.0 + lease 5.0

    def test_dead_is_permanent(self):
        det = FailureDetector(cfg=self.cfg())
        det.register(0, now=0.0)
        det.advance(100.0)
        assert det.observe(0, 101.0) == []
        assert det.state(0) is GpuHealth.DEAD

    def test_suspect_precedes_dead_in_transitions(self):
        det = FailureDetector(cfg=self.cfg())
        det.register(0, now=0.0)
        det.advance(10.0)
        states = [t.state for t in det.transitions if t.gpu_id == 0]
        assert states == [GpuHealth.SUSPECT, GpuHealth.DEAD]
        times = [t.time for t in det.transitions if t.gpu_id == 0]
        assert times == [2.0, 5.0]

    def test_suspect_healthy_suspect_dead_sequence(self):
        """Regression: the full flap cycle emits exactly one transition
        per real state change — suspect, healthy, suspect, dead."""
        det = FailureDetector(cfg=self.cfg())
        det.register(0, now=0.0)
        det.observe(0, 1.0)
        det.advance(3.5)  # 1.0 + suspect window 2.0 = 3.0 < 3.5
        assert det.state(0) is GpuHealth.SUSPECT
        det.observe(0, 4.0)  # fresh heartbeat clears the suspicion
        assert det.state(0) is GpuHealth.ALIVE
        det.advance(9.5)  # suspect again at 6.0, lease expires at 9.0
        assert det.state(0) is GpuHealth.DEAD
        states = [t.state for t in det.transitions]
        assert states == [
            GpuHealth.SUSPECT, GpuHealth.ALIVE,
            GpuHealth.SUSPECT, GpuHealth.DEAD,
        ]
        times = [t.time for t in det.transitions]
        assert times == [3.0, 4.0, 6.0, 9.0]

    def test_stale_heartbeat_does_not_clear_suspect(self):
        """Regression (flapping): a duplicate/reordered heartbeat no newer
        than the last seen one must not fake recovery or extend the
        lease."""
        det = FailureDetector(cfg=self.cfg())
        det.register(0, now=0.0)
        det.observe(0, 2.0)
        det.advance(4.5)  # SUSPECT at 4.0
        assert det.state(0) is GpuHealth.SUSPECT
        # A retried copy of the t=2.0 heartbeat arrives late: stale.
        assert det.observe(0, 2.0) == []
        assert det.state(0) is GpuHealth.SUSPECT
        det.advance(100.0)
        # The lease still runs from the genuine t=2.0 heartbeat.
        assert det.detected_at(0) == pytest.approx(7.0)
        states = [t.state for t in det.transitions]
        assert states == [GpuHealth.SUSPECT, GpuHealth.DEAD]

    def test_unregistered_gpu_rejected(self):
        det = FailureDetector(cfg=self.cfg())
        with pytest.raises(ConfigurationError):
            det.state(3)
        with pytest.raises(SimulationError):
            det.detected_at(3)


class TestRunDetection:
    def transport(self, gpus=3):
        t = SimTransport()
        t.register("scheduler")
        for g in range(gpus):
            t.register(f"executor-{g}")
        return t

    def test_detects_crash_within_lease(self):
        cfg = HeartbeatConfig(interval_s=1.0, suspect_misses=2, lease_s=5.0)
        crash = GpuCrash(time=10.0, gpu_id=1)
        result = run_detection(
            self.transport(), [0, 1, 2], crash, FaultScenario(crashes=(crash,)),
            cfg=cfg,
        )
        # last heartbeat at t=9, lease expires at 14 => latency 4s
        assert result.detected_at == pytest.approx(14.0, abs=0.1)
        assert 0 < result.latency_s <= cfg.lease_s
        assert result.heartbeats_sent == result.heartbeats_delivered

    def test_survivors_stay_alive(self):
        crash = GpuCrash(time=4.0, gpu_id=0)
        result = run_detection(
            self.transport(), [0, 1, 2], crash, FaultScenario(crashes=(crash,)),
            cfg=HeartbeatConfig(interval_s=1.0, lease_s=5.0),
        )
        assert result.suspect_events == ()

    def test_straggler_goes_suspect_not_dead(self):
        """A slowed GPU's late heartbeats trip SUSPECT, then clear."""
        cfg = HeartbeatConfig(interval_s=1.0, suspect_misses=2, lease_s=8.0)
        crash = GpuCrash(time=6.0, gpu_id=0)
        scenario = FaultScenario(
            crashes=(crash,),
            slowdowns=(GpuSlowdown(gpu_id=1, start=2.0, duration=3.0,
                                   factor=4.0),),
        )
        result = run_detection(
            self.transport(), [0, 1, 2], crash, scenario, cfg=cfg
        )
        suspect_gpus = {t.gpu_id for t in result.suspect_events
                        if t.state is GpuHealth.SUSPECT}
        recovered = {t.gpu_id for t in result.suspect_events
                     if t.state is GpuHealth.ALIVE}
        assert suspect_gpus == {1} and recovered == {1}

    def test_dropped_heartbeats_are_counted(self):
        crash = GpuCrash(time=10.0, gpu_id=1)
        scenario = FaultScenario(
            crashes=(crash,), flakiness=RpcFlakiness(drop_rate=0.3, seed=5)
        )
        transport = self.transport()
        transport.faults = scenario.network()
        result = run_detection(
            transport, [0, 1, 2], crash, scenario,
            cfg=HeartbeatConfig(interval_s=1.0, lease_s=5.0),
        )
        assert result.heartbeats_dropped > 0
        assert result.heartbeats_delivered < result.heartbeats_sent
        # drops only ever delay detection
        assert result.latency_s >= 4.0 - 1e-9

    def test_crash_before_start_is_detected(self):
        """A crash that lands while an earlier one is still being handled
        reaches the detector with ``start > crash.time``: the GPU is silent
        from *start* on, and its lease must expire from there."""
        cfg = HeartbeatConfig(interval_s=1.0, suspect_misses=2, lease_s=5.0)
        crash = GpuCrash(time=3.0, gpu_id=1)
        result = run_detection(
            self.transport(), [0, 1, 2], crash,
            FaultScenario(crashes=(crash,)), cfg=cfg, start=20.0,
        )
        assert result.detected_at == 25.0
        assert result.suspect_events == ()

    def test_crash_target_must_be_alive(self):
        crash = GpuCrash(time=1.0, gpu_id=2)
        with pytest.raises(ConfigurationError, match="not among alive"):
            run_detection(
                self.transport(), [0, 1], crash,
                FaultScenario(crashes=(crash,)),
            )
