"""Repository-wide pytest configuration.

Registers the suite's command-line options (they must live in the
rootdir conftest so they exist no matter which subset of tests is
collected):

``--backend NAME``
    Restrict the cross-backend conformance suite
    (``tests/test_backend_conformance.py``) to one candidate backend;
    repeatable.  Default: every registered non-reference backend.

``--update-golden``
    Rewrite the golden figure fixtures under ``tests/golden/`` from the
    current code instead of asserting against them
    (``tests/test_golden_figures.py``).  Inspect the diff before
    committing — these files are the drift alarm for figure-level
    numbers.

It also registers the ``concurrency`` marker: cross-process cache
contention and crash-safety tests (fork and SIGKILL heavy; select them
with ``-m concurrency``).  They are part of the default collection; the
marker exists to select them, not to skip them.
"""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "concurrency: cross-process cache contention and crash-safety tests",
    )


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="append",
        default=None,
        help=(
            "candidate backend(s) for the cross-backend conformance suite "
            "(repeatable; default: all registered backends except 'reference')"
        ),
    )
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from current results instead of comparing",
    )
