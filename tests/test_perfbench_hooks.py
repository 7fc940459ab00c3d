"""The traced benchmark (`perfbench/run.py --trace 1`) wraps public names of
the package from `perfbench/launcher.py`. Installing its hooks must keep
working whenever code under src/ is refactored, or the traced run fails
long after the change that broke it."""

import subprocess
import sys
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent.parent / "perfbench" / "launcher.py"

# Runs in a fresh interpreter, so the hooks patch nothing in the test process.
INSTALL_ALL = f"""
import importlib.util, tempfile
from datetime import datetime, timezone

spec = importlib.util.spec_from_file_location("launcher", {str(LAUNCHER)!r})
launcher = importlib.util.module_from_spec(spec)
spec.loader.exec_module(launcher)
recorder = launcher.Recorder()
launcher.install_proxy(recorder)
launcher.install_cli(recorder)
launcher.install_simulator(recorder)

from driftguard.token import TokenStore
with tempfile.TemporaryDirectory() as directory:
    store = TokenStore(directory)
    store.find("0123456789abcdef")
    store.newest_at_or_before(datetime.now(timezone.utc))
names = sorted({{span[1] for span in recorder.spans}})
assert names == ["token.load", "token.resolve"], names
"""


def test_launcher_hooks_install_on_the_current_package():
    result = subprocess.run(
        [sys.executable, "-c", INSTALL_ALL], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
