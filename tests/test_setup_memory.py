"""Working memory of the setup stages: the traced peak and the bytes
kept of building the MPFA-O stencils and the sparsity pattern with its
ordering, measured with tracemalloc."""

import gc
import tracemalloc

import pytest

from richardsfv._mpfa import mpfa_o_stencils
from richardsfv.benchmarks import build_dam
from richardsfv.discretization import Discretization, _boundary_table

# (peak, kept) bounds in MB per stage, MPFA-O on the dam, with the
# traced values with numpy 2.4:
#   1900:              stencils 2.409 / 0.439, pattern 2.8816 / 1.592;
#   cartesian:200x200: 60.78 / 7.32, 45.7629 / 24.49.
# The stencils' bounds are at most 15% above their values, and below
# those of a build that holds its working arrays to return with int64
# stencil indices: 6.16 / 0.58 and 127 / 9.55.
# The pattern stage builds the ordering last, once its working arrays
# are freed, so its peak is set earlier, in the sort. Its bounds are
# those of a build that kept the pattern's index arrays beside the
# ordering's copy and built the ordering as a second stage: that
# pattern's peak, 2.881647 and 45.762891 MB, plus 4 kB for the small
# objects (frames, instance dicts) whose sizes differ between Python
# and numpy versions, and the two stages' kept bytes summed,
# 1.231 + 0.481 and 19.71 + 6.37 MB.
BOUNDS = {
    "1900": {"stencils": (2.75, 0.50), "pattern": (2.8857, 1.712)},
    "cartesian:200x200": {"stencils": (69.0, 8.4),
                          "pattern": (45.7669, 26.07)},
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
    small.pattern
    spec = build_dam("vgm", mesh)
    table = _boundary_table(spec)
    got = {"stencils": _traced(lambda: mpfa_o_stencils(spec, *table))}
    disc = Discretization(spec, "mpfa-o")
    got["pattern"] = _traced(lambda: disc.pattern)
    bounds = BOUNDS[mesh]
    over = {stage: (round(peak, 6), round(kept, 6))
            for stage, (peak, kept) in got.items()
            if peak > bounds[stage][0] or kept > bounds[stage][1]}
    assert not over, f"(peak, kept) MB over {bounds}: {over}"
