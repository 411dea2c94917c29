"""One end-to-end run per paper table/figure.

Each test regenerates its experiment once at the ``tiny`` scale:
declare scenarios, evaluate them (no store, so the sweep cost is
included), consume.  The experiment must produce data rows or text.
"""

import pytest

from repro.experiments import all_experiments, run_experiment


@pytest.mark.parametrize("experiment_id", sorted(all_experiments()))
def test_experiment(experiment_context, experiment_id):
    result = run_experiment(experiment_context, experiment_id)
    assert result.rows or result.text
