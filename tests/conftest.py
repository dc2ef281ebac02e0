"""Fixtures shared by the test modules."""

import pytest

from arczeta.verify import verify_paper_suite


@pytest.fixture(scope="session")
def suite_report():
    """One unpatched run of the verification suite, for the tests that only read it."""
    return verify_paper_suite()
