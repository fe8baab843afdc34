"""Protocol-level hook points shared by stores and store wrappers.

The storage protocol (see :class:`~repro.io.BlockStore`) is duck-typed:
structures run over the raw store, a :class:`~repro.io.BufferPool`, a
:class:`~repro.io.TraceRecorder` or the fault-injection wrappers in
:mod:`repro.resilience` without knowing which.  This module holds the
hooks that must stay cheap on the plain store:

- :func:`crash_point` -- a named marker inside a multi-block update
  path.  A store that exposes a ``crash_hook(tag)`` callable (only
  :class:`~repro.resilience.FaultyStore` defines one; every
  :class:`~repro.io.StoreLayer` above it holds the same hook, resolved
  at construction) gets to raise a
  :class:`~repro.resilience.SimulatedCrash` there; every other store
  pays a single ``getattr`` returning ``None``, the same price as an
  unattached :func:`repro.obs.spans.span`.
- :func:`prefetch_hint` -- a sequential-run announcement.  A store
  that exposes a ``prefetch_hint(bids)`` callable (only
  :class:`~repro.io.BufferPool` does) learns the run for readahead;
  every other store pays the same single ``getattr``.

Structures annotate the points between which their on-disk state is
transiently inconsistent (mid-split, mid-placement, mid-promotion), so
the recovery verifier can crash *at every such point* and prove the
journal restores an invariant-clean state -- and announce the block
runs they are about to walk (CONT chains, slab lists), so a readahead
pool can batch the fetches.
"""

from __future__ import annotations


def crash_point(store, tag: str) -> None:
    """Declare a named crash site inside a multi-block update.

    No-op unless ``store`` (or a layer below it) exposes a
    ``crash_hook`` attribute; the hook may raise ``SimulatedCrash`` to
    model the process dying at exactly this point.
    """
    hook = getattr(store, "crash_hook", None)
    if hook is not None:
        hook(tag)


def prefetch_hint(store, bids) -> None:
    """Announce a sequential run of block ids the caller will read.

    No-op unless ``store`` exposes a ``prefetch_hint`` attribute (a
    :class:`~repro.io.BufferPool`; and even there it is free unless the
    pool was built with ``readahead_window > 0``).  Hints are advisory:
    they never change results, only which blocks a readahead pool
    fetches ahead of demand.
    """
    hint = getattr(store, "prefetch_hint", None)
    if hint is not None:
        hint(bids)
