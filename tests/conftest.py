"""Marks every test that trains the acceptance recipe as ``slow``.

The mark follows the ``recipe_runs`` fixture (three 2,000-step trainings
and four 64-item evaluations), so ``pytest -m "not slow"`` runs the rest
of the suite in seconds without editing the acceptance tests.
"""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "recipe_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
