import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ordo


def pytest_addoption(parser):
    parser.addoption(
        "--long-budget",
        action="store_true",
        default=False,
        help="run the (7,2) stretch seed search (up to 15 minutes)",
    )


@pytest.fixture
def long_budget(request) -> bool:
    return request.config.getoption("--long-budget")


@pytest.fixture
def peak_rss_growth():
    """run(setup, work): run `setup`, then `work`, in a fresh interpreter
    with ordo importable, and return the words `work` printed followed by
    the bytes by which `work` raised the process's peak RSS (VmHWM).

    A fresh process, since ru_maxrss carries the parent's peak over into
    the child, and tracing every allocation with tracemalloc can take ten
    times as long as the work traced.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak RSS from /proc/self/status")

    def run(setup: str, work: str) -> list[str]:
        script = "\n".join([
            textwrap.dedent(setup),
            "def peak_kib():",
            "    with open('/proc/self/status') as f:",
            "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))",
            "before = peak_kib()",
            textwrap.dedent(work),
            "print((peak_kib() - before) * 1024)",
        ])
        env = {**os.environ, "PYTHONPATH": str(Path(ordo.__file__).parent.parent)}
        return subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=120,
            capture_output=True, text=True,
        ).stdout.split()

    return run
