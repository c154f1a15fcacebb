"""The names the per-layer tracer of ``bench/layers.py`` rebinds exist, and
uninstalling it restores each one.

    PYTHONPATH=src python -m pytest -q tests/test_traced_names.py
"""

import importlib
import inspect
from pathlib import Path

import pytest

from outerint import splittings
from outerint.words import Automorphism

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers")


def test_tracer_installs_and_uninstalls_every_traced_name(layers):
    tracer = layers.Tracer()
    try:
        tracer.install()
        rebound = list(tracer._undo)
    finally:
        tracer.uninstall()
    module = lambda name: importlib.import_module(f"outerint.{name}")
    traced = [(module(m), name) for m, name in layers.FUNCTIONS.values()]
    traced += [(getattr(module(m), cls), name) for m, cls, name in layers.METHODS.values()]
    traced += [(getattr(module(m), cls), "__post_init__") for m, cls in layers.CONSTRUCTORS.values()]
    assert set(traced) <= {(owner, attr) for owner, attr, _ in rebound}
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, (owner, attr)
    # the tracer reads the default key depth off the signature
    assert inspect.signature(splittings.vertex_key).parameters["depth"].default == 4


def test_tracer_fails_on_a_missing_traced_name(layers, monkeypatch):
    monkeypatch.delattr(Automorphism, "apply")
    tracer = layers.Tracer()
    try:
        with pytest.raises(AttributeError):
            tracer.install()
    finally:
        tracer.uninstall()
