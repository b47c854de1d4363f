"""Sanctioned lifecycle forms: with, try/finally, ownership escape."""

import fcntl

from repro.obs.trace import span


def read_config(path):
    with open(path) as handle:
        return handle.read()


def update_locked(handle, payload):
    fcntl.flock(handle, fcntl.LOCK_EX)
    try:
        handle.write(payload)
    finally:
        fcntl.flock(handle, fcntl.LOCK_UN)


def traced(work):
    with span("corpus-step"):
        return work()


def adopt(path, registry):
    """Ownership escape: the registry takes over the release."""
    handle = open(path)
    registry.adopt(handle)
    return None


def handed_back(path):
    """Returning the handle transfers the obligation to the caller."""
    return open(path)
