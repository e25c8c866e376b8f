"""bench/spans.py's traced job on the current package: entering it looks up
every function the benchmark hooks, and leaving it puts every binding back.

A traced benchmark job replaces each hooked function wherever a ``holderpo``
module binds it, plus ``PolicyParams.score_gradients``, the sequence types'
``__post_init__`` and the entries of ``verify.CHECKS``.  A package change that
deletes or renames a hooked name makes entering the job raise here, in
tier-1, rather than only in a ``--trace 1`` benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

from holderpo import core, sim, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"
PATCHED_CLASSES = {
    sim.PolicyParams: "score_gradients",
    core.RatioSequence: "__post_init__",
    core.LogRatioSequence: "__post_init__",
}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def bindings() -> dict:
    """Every name a traced job may rebind, mapped to the object it holds."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "holderpo" or name.startswith("holderpo.")):
            out.update({(name, key): value for key, value in vars(module).items()})
    for cls, attr in PATCHED_CLASSES.items():
        out[(cls.__qualname__, attr)] = vars(cls)[attr]
    out.update({("verify.CHECKS", key): fn for key, fn in verify.CHECKS.items()})
    return out


def test_job_patches_every_hook_and_restores_it(spans):
    before = bindings()
    with spans.SpanRecorder().job(0):
        during = bindings()
    after = bindings()

    patched = {key for key, value in before.items() if during[key] is not value}
    hooked = {(module.__name__, attr)
              for targets in spans.FUNCTION_SPANS.values() for module, attr in targets}
    hooked |= {(cls.__qualname__, attr) for cls, attr in PATCHED_CLASSES.items()}
    hooked |= {("verify.CHECKS", key) for key in verify.CHECKS}
    assert hooked <= patched, sorted(hooked - patched)

    assert after.keys() == before.keys()
    unrestored = sorted(key for key in patched if after[key] is not before[key])
    assert not unrestored, unrestored
