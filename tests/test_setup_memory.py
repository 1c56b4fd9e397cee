"""Working memory of the setup stages: the traced peak and the bytes
kept of building the MPFA-O stencils, the sparsity pattern and the
ordering, measured with tracemalloc."""

import gc
import tracemalloc

import pytest

from richardsfv._mpfa import mpfa_o_stencils
from richardsfv.benchmarks import build_dam
from richardsfv.discretization import Discretization, _boundary_table

# (peak, kept) bounds in MB per stage, MPFA-O on the dam: at most 15%
# above the traced values with numpy 2.4, which are
#   1900:              stencils 2.41 / 0.44, pattern 2.88 / 1.23,
#                      order 1.06 / 0.48;
#   cartesian:200x200: 60.8 / 7.32, 45.8 / 19.7, 14.0 / 6.37.
# Each peak, and the kept bytes of the stencils and the order, is below
# the value of a build that holds its working arrays to return, int64
# stencil indices and an ordering that keeps its entry numbers:
#   1900:              6.16 / 0.58, 5.28 / 1.23, 1.43 / 0.93;
#   cartesian:200x200: 127 / 9.55, 83.3 / 19.7, 18.9 / 12.1.
# The pattern keeps the same bytes either way.
BOUNDS = {
    "1900": {"stencils": (2.75, 0.50), "pattern": (3.30, 1.30),
             "order": (1.21, 0.55)},
    "cartesian:200x200": {"stencils": (69.0, 8.4), "pattern": (52.0, 20.7),
                          "order": (16.0, 7.3)},
}


def _traced(build):
    """(peak, kept) of build() in MB: the most traced memory above the
    start while it runs, and what it still holds after it returns."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    del result
    return (peak - base) / 1e6, (kept - base) / 1e6


@pytest.mark.parametrize("mesh", sorted(BOUNDS))
def test_setup_stages_work_in_bounded_memory(mesh):
    # a first build on a small grid leaves nothing lazily made (imports,
    # caches) to the measured one
    small = Discretization(build_dam("vgm", "triangular:4x4"), "mpfa-o")
    small.order
    spec = build_dam("vgm", mesh)
    table = _boundary_table(spec)
    got = {"stencils": _traced(lambda: mpfa_o_stencils(spec, *table))}
    disc = Discretization(spec, "mpfa-o")
    got["pattern"] = _traced(lambda: disc.pattern)
    got["order"] = _traced(lambda: disc.order)
    bounds = BOUNDS[mesh]
    over = {stage: (round(peak, 3), round(kept, 3))
            for stage, (peak, kept) in got.items()
            if peak > bounds[stage][0] or kept > bounds[stage][1]}
    assert not over, f"(peak, kept) MB over {bounds}: {over}"
