"""Next-location prediction from LBSN check-ins: preprocessing pipeline,
multi-task recurrent models with a time -> activity -> location causal chain,
a distance-weighted location loss, and an evaluation/analysis suite."""

import ctypes
import platform

__version__ = "0.1.0"


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep the memory a training step frees, so the next
    step reuses it instead of faulting fresh pages in from the kernel.

    Blocks under 32 MiB come from the heap rather than from their own
    mmap, and the heap top is returned to the kernel only beyond 1 GiB of
    free space. Larger arrays, such as a wide evaluation batch, are still
    mapped and unmapped on their own. Off glibc this does nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory()
