import logging
import os
from pathlib import Path

from hypothesis import HealthCheck, settings

# pytest puts src/ on sys.path (pyproject pythonpath); the CLI processes
# the tests spawn import the package from the same checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Background server threads log expected failures during fault-injection
# tests; keep the output readable.
logging.getLogger("driftguard").setLevel(logging.ERROR)

_acceptance_results = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        outcome = _acceptance_results[nodeid]
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{'PASS' if outcome == 'passed' else 'FAIL'}  {name}")
