"""The report header names the mode the golden CLI cases are compared in (see test_golden.py)."""

import test_golden


def pytest_report_header(config):
    return f"golden CLI cases: {test_golden.MODE} comparison"
