"""Multigroup thermal radiative transfer solvers on 2D rectangular grids.

The suite pairs a discrete-ordinates full-order model with three
radiation-diffusion reduced models (P1, P1/3, flux-limited diffusion) and a
variable Eddington factor model whose closure is computed from transport
sweeps driven by reduced-model temperatures.

Heap policy. Importing the package sets glibc's malloc to serve requests of
up to 32 MiB from the heap (M_MMAP_THRESHOLD) and to keep up to 64 MiB of
free memory at the heap's top (M_TRIM_THRESHOLD): the ceiling of glibc's own
dynamic mmap threshold and the trim threshold its dynamic rule pairs with
it. Every sparse moment solve allocates SuperLU's factorization workspace,
a few MB, and frees it again, and every sweep its frames. Under glibc's
starting policy (128 KiB) such blocks go back to the kernel when freed, so
the next call faults them in afresh: in P1 marches of 17 groups a moment
solve took 53-77 minor page faults at 8 x 8 cells, 317 at 20 x 20 and 1062
at 32 x 32, and a FOM pass at 20 x 20 with 4 x 36 directions about 630.
With the policy a repeated call reuses the freed heap and takes none; a
march faults only where its heap grows. The cost is that the memory stays
resident: about 3 MB more peak memory on the benchmark's 8 x 8 runs and
11 MB (13 %) on a 32 x 32 P1 march. The arithmetic is untouched. Where
the C library has no mallopt (not glibc), the import changes nothing.
"""

import ctypes

__version__ = "0.1.0"


def _set_heap_policy() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open by None (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD of <malloc.h>
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_set_heap_policy()
