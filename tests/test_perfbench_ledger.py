"""The benchmark ledger's name contract with the simulator.

``perfbench/ledger.py`` wraps simulator methods by name: every
``MetricsCollector`` feed and query, the ``SimContext`` queries, engine
and device entry points, and more.  Renaming or deleting one of them
breaks the traced benchmark runs; this test makes that a tier-1 failure
instead of one found only by ``perfbench/smoke.py``.
"""

import importlib
from pathlib import Path

from repro.sim.metrics import MetricsCollector

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_installed_wraps_and_restores_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ledger = importlib.import_module("ledger")
    patched = []
    wrap = ledger._Patches.wrap

    def recording_wrap(patches, owner, name, make):
        patched.append((owner, name, vars(owner)[name]))
        wrap(patches, owner, name, make)

    monkeypatch.setattr(ledger._Patches, "wrap", recording_wrap)
    with ledger.installed(ledger.Ledger()):
        for owner, name, original in patched:
            assert vars(owner)[name] is not original, (owner, name)
    for owner, name, original in patched:
        assert vars(owner)[name] is original, (owner, name)
    assert {name for owner, name, _ in patched if owner is MetricsCollector} == set(
        ledger._METRICS_FEED + ledger._METRICS_QUERY
    )
