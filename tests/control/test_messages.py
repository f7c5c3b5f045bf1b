"""Tests for the control-plane message protocol."""

import json

import pytest

from repro.control import (
    CheckpointRestored,
    CheckpointSaved,
    GradientPush,
    Heartbeat,
    JobCompleted,
    ModelUpdate,
    PlannedTask,
    ProfileReply,
    ProfileRequest,
    SequenceAck,
    SubmitJob,
    TaskSequence,
    from_wire,
    to_wire,
)
from repro.control.messages import _REGISTRY
from repro.core.errors import ConfigurationError

SAMPLES = [
    SubmitJob(job_id=3, model="ResNet50", arrival=1.5, weight=2.0,
              num_rounds=10, sync_scale=2),
    ProfileRequest(model="VGG19", gpu_model="T4"),
    ProfileReply(model="VGG19", gpu_model="T4", train_time=0.4,
                 sync_time=0.05, from_database=True),
    PlannedTask(job_id=0, round_idx=1, slot=0, start=2.0, train_time=1.0,
                sync_time=0.1),
    SequenceAck(gpu_id=4, num_tasks=12),
    GradientPush(job_id=1, round_idx=0, slot=1, gpu_id=2, time=3.5,
                 data_bytes=1e8),
    ModelUpdate(job_id=1, round_idx=0, version=1, time=3.6, data_bytes=1e8),
    JobCompleted(job_id=1, completion_time=99.0),
]


class TestRoundTrip:
    @pytest.mark.parametrize("msg", SAMPLES, ids=lambda m: type(m).__name__)
    def test_wire_round_trip(self, msg):
        assert from_wire(to_wire(msg)) == msg

    @pytest.mark.parametrize("msg", SAMPLES, ids=lambda m: type(m).__name__)
    def test_wire_is_json_serializable(self, msg):
        json.dumps(to_wire(msg))

    def test_task_sequence_nested(self):
        tasks = tuple(
            to_wire(PlannedTask(0, r, 0, float(r), 1.0, 0.1)) for r in range(3)
        )
        seq = TaskSequence(gpu_id=1, tasks=tasks)
        restored = from_wire(to_wire(seq))
        assert [t.round_idx for t in restored.planned()] == [0, 1, 2]

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError):
            from_wire({"job_id": 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            from_wire({"__type__": "Nonsense"})

    def test_extra_fields_rejected(self):
        wire = to_wire(SequenceAck(gpu_id=0, num_tasks=1))
        wire["evil"] = 1
        with pytest.raises(ConfigurationError):
            from_wire(wire)


class TestPayloadAccounting:
    def test_control_message_has_no_payload(self):
        assert SequenceAck(gpu_id=0, num_tasks=5).payload_bytes == 0.0

    def test_gradient_push_payload(self):
        msg = GradientPush(0, 0, 0, 0, 1.0, data_bytes=2e8)
        assert msg.payload_bytes == 2e8
        assert msg.wire_bytes() > 2e8  # envelope on top

    def test_wire_bytes_positive(self):
        for msg in SAMPLES:
            assert msg.wire_bytes() > 0

    def test_wire_bytes_match_the_serialized_wire_dict(self):
        """``wire_bytes`` sizes a shallow field dict; it must equal the
        length of the JSON of ``to_wire`` plus the payload, for every
        registered message type."""
        extra = [
            TaskSequence(
                gpu_id=2,
                tasks=tuple(
                    to_wire(PlannedTask(1, r, 0, 0.5 * r, 1.0, 0.1))
                    for r in range(3)
                ),
            ),
            CheckpointSaved(job_id=1, round_idx=4, version=5, path="ckpt/1/5"),
            Heartbeat(gpu_id=3, seq=7, time=7.25),
            CheckpointRestored(job_id=1, version=5, round_idx=4, time=9.5,
                               data_bytes=3e7),
        ]
        samples = {type(m): m for m in SAMPLES + extra}
        assert set(samples) == set(_REGISTRY.values())
        for msg in samples.values():
            expected = len(json.dumps(to_wire(msg))) + msg.payload_bytes
            assert msg.wire_bytes() == expected, type(msg).__name__
