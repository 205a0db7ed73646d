"""One contract, every sweep: the worker split never changes a fold."""

import io

import pytest

import repro.obs as obs
from repro.eval.experiments import sweep
from tests.eval.contract import (
    FAMILIES,
    comparable,
    folds,
    same_integer_metrics,
    same_profile,
    same_records,
)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pooled_fold_is_the_serial_fold(family):
    """Records, integer metric content and campaign profile of a
    ``workers=2`` sweep equal the serial sweep's, through the one
    runner every family fans out over."""
    serial, pooled = folds(family)
    same_records(serial, pooled)
    same_integer_metrics(serial, pooled)
    same_profile(serial, pooled)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_observing_a_sweep_does_not_change_its_records(family):
    """The plain entry point returns what the profiled one does."""
    config, _, run = FAMILIES[family]
    observed, _ = folds(family)
    assert comparable(run(config)) == comparable(observed.records)


def _double(payload):
    return payload * 2


class TestRunner:
    def test_results_come_back_in_submission_order(self):
        results, _, profile = sweep(_double, list(range(7)), 2)
        assert results == [0, 2, 4, 6, 8, 10, 12]
        assert profile is None

    def test_pooled_sweep_under_an_active_recording_is_refused(self):
        """Workers would write nothing into the parent's recording: the
        runner raises instead of truncating it silently."""
        with obs.recording(io.StringIO()):
            with pytest.raises(ValueError, match="flight recording"):
                sweep(_double, [1, 2, 3], 2)
            # Serial sweeps record fine.
            assert sweep(_double, [1, 2, 3], 0)[0] == [2, 4, 6]
