"""Pytest loads ``benchmarks/conftest.py`` once, as ``benchmarks.conftest``.

The benchmark files print through ``benchmarks.conftest.emit``, which
writes under ``results/`` only when its module's ``_PERSIST`` flag is set,
and ``pytest_configure`` sets that flag on the module pytest registered as
the conftest plugin.  Were the plugin a second copy of the file (imported
as plain ``conftest``), a ``--runslow`` session would set the flag on that
copy and the benchmarks would write nothing.

This lives under ``tests/`` because every ``benchmarks/test_*.py`` module
must carry a ``slow`` marker (lint rule T001).
"""

import pathlib
import sys

import pytest

BENCH_CONFTEST = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"
)


def test_emit_reads_the_flag_pytest_configured(request):
    config = request.config
    plugins = [
        plugin
        for plugin in config.pluginmanager.get_plugins()
        if getattr(plugin, "__file__", None)
        and pathlib.Path(plugin.__file__).resolve() == BENCH_CONFTEST
    ]
    if not plugins:
        pytest.skip("this session did not collect benchmarks/")
    (plugin,) = plugins
    assert plugin is sys.modules.get("benchmarks.conftest")
    assert plugin._PERSIST == config.getoption("--runslow")
