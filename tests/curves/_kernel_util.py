"""Parametrization over the two implementations of the generic min-plus
construction.

* ``soa`` — the batched structure-of-arrays kernel of
  :mod:`repro.curves.soa`, the one :mod:`repro.curves.minplus` dispatches
  to;
* ``numpy`` — the per-cell numpy construction of
  :mod:`repro.reference.generic`, the test oracle.

Suites that gate the generic path run once per implementation, so the
brute-force comparisons hold the oracle to the definitions as well as the
kernel.  :func:`generic_kernel` routes the public operators' generic path
through the named implementation for the duration of a ``with`` block.
"""

import contextlib
from unittest import mock

from repro.curves import minplus
from repro.perf.cache import kernel_cache
from repro.reference import convolve_generic, deconvolve_generic

#: Implementation ids, in the order the suites run them.
KERNELS = ["numpy", "soa"]

#: ``(convolve_batch, deconvolve_batch)`` per implementation: a list of
#: ``(f, g)`` pairs in, a list of curves out.
BATCH = {
    "numpy": (
        lambda pairs: [convolve_generic(f, g) for f, g in pairs],
        lambda pairs: [deconvolve_generic(f, g) for f, g in pairs],
    ),
    "soa": (minplus.convolve_batch, minplus.deconvolve_batch),
}


@contextlib.contextmanager
def generic_kernel(name):
    """Dispatch the generic path of ``minplus.convolve``/``deconvolve``
    to implementation *name*.  For the oracle the kernel cache is
    bypassed, so no result computed by the kernel can be served."""
    if name == "soa":
        yield
        return
    convolve_batch, deconvolve_batch = BATCH[name]
    enabled = kernel_cache.enabled
    kernel_cache.enabled = False
    try:
        with mock.patch.object(minplus, "convolve_batch", convolve_batch), \
                mock.patch.object(minplus, "deconvolve_batch", deconvolve_batch):
            yield
    finally:
        kernel_cache.enabled = enabled
