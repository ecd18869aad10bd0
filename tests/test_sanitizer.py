"""ResourceSanitizer: the dynamic oracle behind REP006.

Leak-injection suite: acquire real spill dirs, deliberately withhold
the release, and assert the sanitizer sees them; then release and
assert the registry drains.  Every resource acquired here IS released
before the test returns, so the suite stays clean under its own
instrumentation (``REPRO_SANITIZE=1`` runs these tests with the
session-wide sanitizer installed as well — the local one stacks on top
and unwinds LIFO).
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.lint.sanitizer import (
    ResourceLeakError,
    ResourceSanitizer,
    get_sanitizer,
    install_if_enabled,
)
from repro.runtime import spill as spill_mod
from repro.runtime.spill import SpillDir


@pytest.fixture()
def sanitizer():
    san = ResourceSanitizer()
    san.install()
    yield san
    san.uninstall()


def test_leak_is_tracked_until_released(sanitizer):
    spill = SpillDir.create()
    live = sanitizer.live("spill-dir")
    assert [r.name for r in live] == [str(spill.directory)]
    assert "spill.py:" in live[0].created_at  # the acquiring frame

    with pytest.raises(ResourceLeakError, match="spill-dir"):
        sanitizer.assert_clean("the test boundary")

    spill.cleanup()
    assert sanitizer.live("spill-dir") == []
    sanitizer.assert_clean()


def test_finalizer_safety_net_also_unregisters(sanitizer):
    spill = SpillDir.create()
    directory = str(spill.directory)
    assert sanitizer.live("spill-dir")
    del spill  # no explicit cleanup: the GC finalizer must drain it
    gc.collect()
    assert sanitizer.live("spill-dir") == []
    assert not os.path.exists(directory)


def test_spill_dir_tracked_and_drained_by_cleanup(sanitizer):
    spill = SpillDir.create()
    assert [r.name for r in sanitizer.live("spill-dir")] == [str(spill.directory)]
    spill.cleanup()
    assert sanitizer.live("spill-dir") == []


def test_uninstall_restores_the_original_methods():
    init_before = SpillDir.__dict__["__init__"]
    remove_before = spill_mod._remove_tree
    san = ResourceSanitizer()
    san.install()
    assert SpillDir.__dict__["__init__"] is not init_before
    assert spill_mod._remove_tree is not remove_before
    san.uninstall()
    assert SpillDir.__dict__["__init__"] is init_before
    assert spill_mod._remove_tree is remove_before


def test_install_is_idempotent():
    san = ResourceSanitizer()
    san.install()
    patched = SpillDir.__dict__["__init__"]
    san.install()  # second install must not stack another wrapper
    assert SpillDir.__dict__["__init__"] is patched
    san.uninstall()


def test_install_if_enabled_respects_the_knob(monkeypatch):
    from repro.runtime import envconfig

    session_wide = get_sanitizer()
    if session_wide.installed:
        pytest.skip("session-wide sanitizer active (REPRO_SANITIZE=1 run)")
    with envconfig.overriding("REPRO_SANITIZE", "0"):
        assert install_if_enabled() is False
    assert not session_wide.installed
