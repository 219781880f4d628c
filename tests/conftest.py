"""Fixtures shared by the whole suite."""

import pytest

from repro.experiments.runner import clear_run_memo
from repro.host.cpu import HostCPUSystem
from repro.nmp.system import NMPSystem


@pytest.fixture(autouse=True)
def empty_run_memo():
    """Start every test with an empty run memo.

    The memo lives as long as the process, so without this a test could
    be served a result another test simulated.
    """
    clear_run_memo()


@pytest.fixture
def simulations(monkeypatch):
    """A list that grows by one class name per simulated kernel run."""
    calls = []
    for cls in (NMPSystem, HostCPUSystem):

        def counted(self, *args, _run=cls.run, **kwargs):
            calls.append(type(self).__name__)
            return _run(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run", counted)
    return calls
