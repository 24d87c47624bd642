"""Exact calculus for trivalent planar webs.

Subpackages cover web storage and canonical forms (webcore), the
reduction engine and generator algebra (spider), weighted consistent
labelings (labelings), web immanants (immanants), complementary-minor
decompositions (minors), the two-label diagram bridge (tlbridge), and
weighted planar networks (networks).  All arithmetic is exact.
"""

import sys

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the package: each functools.cache of a
    loaded module.  Their hits, misses and sizes are read with
    cache_info()."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
