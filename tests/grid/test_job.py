"""Unit tests for the job lifecycle and derived metrics."""

import pytest

from repro.grid import IllegalTransition, Job, JobState


def make_job(**kw):
    defaults = dict(job_id=1, user="u", origin_site="s0",
                    input_files=["f"], runtime_s=300)
    defaults.update(kw)
    return Job(**defaults)


class TestValidation:
    def test_negative_runtime_rejected(self):
        with pytest.raises(ValueError):
            make_job(runtime_s=-1)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_job(input_files=[])

    def test_zero_runtime_allowed(self):
        assert make_job(runtime_s=0).runtime_s == 0


class TestLifecycle:
    def test_initial_state(self):
        assert make_job().state is JobState.WAITING

    def test_advance_sets_timestamps(self):
        job = make_job()
        job.advance(JobState.READY, 10.0)
        job.advance(JobState.DISPATCHED, 11.0)
        job.advance(JobState.FETCHING, 12.0)
        job.advance(JobState.RUNNING, 20.0)
        job.advance(JobState.DONE, 320.0)
        assert job.submitted_at == 10.0
        assert job.dispatched_at == 11.0
        assert job.queued_at == 12.0
        assert job.started_at == 20.0
        assert job.completed_at == 320.0

    def test_backwards_transition_rejected(self):
        job = make_job()
        job.advance(JobState.READY, 0.0)
        job.advance(JobState.DISPATCHED, 0.5)
        job.advance(JobState.FETCHING, 1.0)
        with pytest.raises(ValueError):
            job.advance(JobState.READY, 2.0)

    def test_skipping_states_rejected(self):
        # The transition table declares every legal edge; skipping ahead
        # (WAITING -> RUNNING) is not one of them.
        job = make_job()
        with pytest.raises(IllegalTransition) as excinfo:
            job.advance(JobState.RUNNING, 5.0)
        assert excinfo.value.job_id == job.job_id
        assert excinfo.value.src is JobState.WAITING
        assert excinfo.value.dst is JobState.RUNNING
        assert job.state is JobState.WAITING


class TestDerivedMetrics:
    def _completed_job(self):
        job = make_job()
        job.advance(JobState.READY, 0.0)
        job.advance(JobState.DISPATCHED, 1.0)
        job.advance(JobState.FETCHING, 1.0)
        job.processor_at = 50.0
        job.data_ready_at = 80.0
        job.advance(JobState.RUNNING, 80.0)
        job.advance(JobState.DONE, 380.0)
        return job

    def test_response_time(self):
        assert self._completed_job().response_time == 380.0

    def test_queue_time(self):
        assert self._completed_job().queue_time == 49.0

    def test_transfer_time_is_post_processor_wait(self):
        assert self._completed_job().transfer_time == 30.0

    def test_compute_time(self):
        assert self._completed_job().compute_time == 300.0

    def test_incomplete_job_metrics_raise(self):
        job = make_job()
        with pytest.raises(ValueError):
            _ = job.response_time
        with pytest.raises(ValueError):
            _ = job.queue_time
        with pytest.raises(ValueError):
            _ = job.transfer_time
        with pytest.raises(ValueError):
            _ = job.compute_time

    def test_ran_at_origin(self):
        job = make_job()
        job.execution_site = "s0"
        assert job.ran_at_origin
        job.execution_site = "s1"
        assert not job.ran_at_origin
