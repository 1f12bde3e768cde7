"""Storage substrates: GPFS- and Lustre-like PFS, XFS-on-NVMe local FS."""

from .base import FileBackend, OpenFile
from .gpfs import GPFS
from .localfs import LocalFS
from .lustre import Lustre, LustreSpec

__all__ = [
    "FileBackend",
    "GPFS",
    "LocalFS",
    "Lustre",
    "LustreSpec",
    "OpenFile",
]
