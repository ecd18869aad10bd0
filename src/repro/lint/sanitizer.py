"""Opt-in runtime ResourceSanitizer: the dynamic oracle behind REP006.

REP006 proves statically that every acquisition *site* is dominated by
a release; this module proves dynamically that no acquisition
*instance* outlives its owner.  When enabled (``REPRO_SANITIZE=1``, or
an explicit :func:`install`), it patches the runtime's acquisition and
release choke points with a tracking registry: spill directories —
``SpillDir.__init__`` registers, the module's ``_remove_tree`` (shared
by ``cleanup()`` and the finalizer) unregisters.  Process pools need no
tracking: :class:`~repro.runtime.executors.ParallelExecutor` spawns one
per ``map()`` inside a ``with`` block.

Enforcement happens at **process exit**: an ``atexit`` hook (and the
pytest ``sessionfinish`` hook in ``tests/conftest.py``) collects
garbage, then fails the process if *anything* is still live;
:meth:`ResourceSanitizer.assert_clean` checks the same at any boundary
a caller chooses.

The patches are reversible (:func:`ResourceSanitizer.uninstall`) and
all runtime imports are lazy: ``lint`` must stay loadable — and
layer-clean (REP007) — without importing ``runtime`` at module level.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ResourceLeakError",
    "ResourceSanitizer",
    "TrackedResource",
    "enabled",
    "get_sanitizer",
    "install_if_enabled",
]

#: Exit code used by the atexit hook when leaks survive to process
#: exit (mirrors LeakSanitizer's hard-fail behaviour).
EXIT_LEAKED = 70


class ResourceLeakError(AssertionError):
    """A tracked resource outlived the boundary that owed its release."""


@dataclass(frozen=True)
class TrackedResource:
    """One live acquisition: what it is and where it was acquired."""

    kind: str
    name: str
    created_at: str

    def __str__(self) -> str:
        return f"{self.kind} {self.name!r} (acquired at {self.created_at})"


def _acquisition_site() -> str:
    """``file:line`` of the acquiring frame outside this module."""
    for frame in reversed(traceback.extract_stack(limit=12)[:-2]):
        if not frame.filename.endswith("sanitizer.py"):
            return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


class ResourceSanitizer:
    """Tracking registry + reversible patches over the runtime tier."""

    def __init__(self) -> None:
        self._live: dict[tuple[str, str], TrackedResource] = {}
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []
        self._installed = False
        self._atexit_registered = False

    # -- registry -----------------------------------------------------
    @property
    def installed(self) -> bool:
        return self._installed

    def register(self, kind: str, name: str) -> None:
        resource = TrackedResource(kind=kind, name=name, created_at=_acquisition_site())
        with self._lock:
            self._live[(kind, name)] = resource

    def unregister(self, kind: str, name: str) -> None:
        with self._lock:
            self._live.pop((kind, name), None)

    def live(self, kind: str | None = None) -> list[TrackedResource]:
        with self._lock:
            resources = list(self._live.values())
        if kind is not None:
            resources = [r for r in resources if r.kind == kind]
        return sorted(resources, key=lambda r: (r.kind, r.name))

    def report(self) -> str:
        resources = self.live()
        if not resources:
            return "ResourceSanitizer: no live resources"
        lines = [f"ResourceSanitizer: {len(resources)} leaked resource(s):"]
        lines.extend(f"  - {resource}" for resource in resources)
        return "\n".join(lines)

    def assert_clean(self, boundary: str = "process exit") -> None:
        """Raise :class:`ResourceLeakError` if anything is still live."""
        resources = self.live()
        if resources:
            raise ResourceLeakError(
                f"{len(resources)} resource(s) leaked past {boundary}:\n"
                + "\n".join(f"  - {resource}" for resource in resources)
            )

    # -- patches ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Patch the runtime acquisition/release choke points (idempotent)."""
        if self._installed:
            return
        # lazy: lint stays import-light and layer-clean (REP007)
        from ..runtime import spill as spill_mod

        sanitizer = self

        # spill directories --------------------------------------------
        orig_spill_init = spill_mod.SpillDir.__init__
        orig_remove_tree = spill_mod._remove_tree

        def spill_init(self: Any, directory: Any) -> None:
            orig_spill_init(self, directory)
            sanitizer.register("spill-dir", str(self.directory))

        def remove_tree(path: str) -> None:
            orig_remove_tree(path)
            sanitizer.unregister("spill-dir", path)

        self._patch(spill_mod.SpillDir, "__init__", spill_init)
        self._patch(spill_mod, "_remove_tree", remove_tree)

        self._installed = True
        if not self._atexit_registered:
            self._atexit_registered = True
            atexit.register(_atexit_check, self)

    def uninstall(self) -> None:
        """Undo every patch and forget the live set (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        with self._lock:
            self._live.clear()
        self._installed = False


def _atexit_check(sanitizer: ResourceSanitizer) -> None:
    """Process-exit boundary: anything still live is a hard failure."""
    if not sanitizer.installed:
        return
    gc.collect()  # run pending finalizers before judging
    resources = sanitizer.live()
    if not resources:
        return
    print(sanitizer.report(), file=sys.stderr, flush=True)
    os._exit(EXIT_LEAKED)


_SANITIZER: ResourceSanitizer | None = None


def get_sanitizer() -> ResourceSanitizer:
    """The process-wide sanitizer instance (created on first use)."""
    global _SANITIZER
    if _SANITIZER is None:
        _SANITIZER = ResourceSanitizer()
    return _SANITIZER


def enabled() -> bool:
    """Is ``REPRO_SANITIZE`` set truthy?"""
    # lazy for the same REP007 reason as install()
    from ..runtime import envconfig

    return envconfig.get_bool("REPRO_SANITIZE", False)


def install_if_enabled() -> bool:
    """Install when ``REPRO_SANITIZE=1``; returns whether installed."""
    if enabled():
        get_sanitizer().install()
        return True
    return False
