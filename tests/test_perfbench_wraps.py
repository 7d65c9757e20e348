"""The benchmark patches bevfuse names from outside the program: every span
in ``perfbench/spans.py`` and every boundary ``workloads.Clock`` times. A
refactor that deletes, moves or renames one of those names breaks the
benchmark, so each must still resolve where the benchmark looks for it."""

import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_every_wrap_target_resolves(perfbench):
    spans, _ = perfbench
    # ``Patcher.replace`` reads the owner's own namespace, not an inherited one
    missing = [f"{w.owner}.{w.attr}" for w in spans.WRAPS
               if w.attr not in vars(spans.resolve(w.owner))]
    assert not missing


def test_tracer_and_clock_install_and_restore(perfbench):
    spans, workloads = perfbench
    import bevfuse.pipeline as pipeline
    before = dict(vars(pipeline))
    for patched in (spans.Tracer(), workloads.Clock(None)):
        try:
            patched.install()           # a name that is gone raises KeyError here
        finally:
            patched.uninstall()
    assert dict(vars(pipeline)) == before
