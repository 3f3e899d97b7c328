"""Marks every test that trains the acceptance recipe as ``slow``, and
keeps every test's CLI output out of the working directory.

The mark follows the ``recipe_runs`` fixture (three 2,000-step trainings
and four 64-item evaluations), so ``pytest -m "not slow"`` runs the rest
of the suite in seconds without editing the acceptance tests.
"""

import pytest


@pytest.fixture(autouse=True)
def out_dir_in_tmp_path(tmp_path, monkeypatch):
    # a CLI call with no --out writes to REFDIFF_OUT_DIR, else to "."
    monkeypatch.setenv("REFDIFF_OUT_DIR", str(tmp_path))


def pytest_collection_modifyitems(items):
    for item in items:
        if "recipe_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
