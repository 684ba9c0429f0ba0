"""The benchmark's traced names exist: ``bench/spans.py`` binds each entry of
``TARGETS`` by ``owner.__dict__[attr]``, so a renamed or deleted function
would otherwise surface only in a traced benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("name, owner, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_traced_name_exists(name, owner, attr):
    assert attr in vars(owner), name
