"""Importing nextloc makes the process keep and reuse the memory it frees."""

import platform
import resource

import numpy as np
import pytest

import nextloc  # noqa: F401  (sets up the allocator)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator is tuned on glibc only")
def test_freed_array_is_reused_without_page_faults():
    n = (8 << 20) // 8  # an 8 MiB array, which glibc would otherwise map and unmap on its own
    a = np.ones(n)
    del a
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(n)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert a.sum() == n
    assert faults < 16
