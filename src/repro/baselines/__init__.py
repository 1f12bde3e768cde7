"""Compared storage systems packaged as uniform setups."""

from .setups import (
    SYSTEM_SETUPS,
    GPFSSetup,
    HVACSetup,
    StorageSetup,
    SystemHandle,
    XFSSetup,
)

__all__ = [
    "GPFSSetup",
    "HVACSetup",
    "StorageSetup",
    "SystemHandle",
    "SYSTEM_SETUPS",
    "XFSSetup",
]
