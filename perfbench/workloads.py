"""Named benchmark workloads and the inputs generated for them.

Every workload is the VGM dam on a generated grid. The benchmark makes
the vertex list, the cell vertex loops and the boundary-tag map itself,
so the program under test only ever receives those lists. A nonzero
seed renumbers vertices and cells of the same grid locally: the problem
is unchanged, but the sparsity ordering (and so LU/ILU fill, rounding
and cache locality) is not. Seed 0 keeps the generator numbering of
``richardsfv.mesh.gen_cartesian`` / ``gen_triangular``.
"""

from dataclasses import dataclass

import numpy as np

DAM_SIZE = 10.0  # m, the dam preset's square
BLOCK = 64  # renumbering moves an id only within its block of 64


@dataclass(frozen=True)
class Workload:
    grid: str  # "cartesian" or "triangular"
    nx: int
    nz: int
    scheme: str
    method: str
    kind: str


# README.md gives the reason for each workload, with measurements.
WORKLOADS = {
    "tri1922-mpfa-newton": Workload(
        "triangular", 31, 31, "mpfa-o", "newton", "power"),
    "tri512-tpfa-mixed-stall": Workload(
        "triangular", 16, 16, "tpfa", "mixed", "linear"),
}


@dataclass(frozen=True)
class MeshInput:
    """What build_mesh receives: vertices, cell loops, boundary tags."""

    vertices: np.ndarray
    cells: list
    tag_edges: dict


def generate(grid, nx, nz, width=DAM_SIZE, height=DAM_SIZE):
    """Vertex/cell/tag lists in the numbering of the repo's generators."""
    xs = np.linspace(0.0, width, nx + 1)
    zs = np.linspace(0.0, height, nz + 1)
    xx, zz = np.meshgrid(xs, zs)
    vertices = np.column_stack([xx.ravel(), zz.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    cells = []
    for j in range(nz):
        for i in range(nx):
            sw, se = vid(i, j), vid(i + 1, j)
            ne, nw = vid(i + 1, j + 1), vid(i, j + 1)
            if grid == "cartesian":
                cells.append([sw, se, ne, nw])
            elif grid == "triangular":
                # checkerboard diagonals, as gen_triangular
                if (i + j) % 2 == 0:
                    cells += [[sw, se, ne], [sw, ne, nw]]
                else:
                    cells += [[sw, se, nw], [se, ne, nw]]
            else:
                raise ValueError(f"unknown grid {grid!r}")
    tags = {}
    for i in range(nx):
        tags[(vid(i, 0), vid(i + 1, 0))] = "bottom"
        tags[(vid(i, nz), vid(i + 1, nz))] = "top"
    for j in range(nz):
        tags[(vid(0, j), vid(0, j + 1))] = "left"
        tags[(vid(nx, j), vid(nx, j + 1))] = "right"
    return MeshInput(vertices, cells, tags)


def _local_permutation(rng, n):
    """New-to-old id map that moves ids only within consecutive blocks of
    BLOCK numbers: sort by block, then by a random key."""
    return np.argsort(np.arange(n) // BLOCK + rng.random(n), kind="stable")


def renumber(mesh_input, seed):
    """Permute vertex and cell numbering with a seeded RNG.

    Ids are shuffled within blocks of BLOCK consecutive numbers, so the
    numbering keeps the locality a mesh generator gives; a fully random
    numbering, which no real input has, changed the BiCGStab work on a
    120x120 dam grid by up to 20% from seed to seed. Cell loops keep
    their vertex order (so orientation and every cell's geometry are
    unchanged) and the tag map follows the vertices. Seed 0 returns the
    input unchanged.
    """
    if seed == 0:
        return mesh_input
    rng = np.random.default_rng(seed)
    nv = len(mesh_input.vertices)
    new_to_old = _local_permutation(rng, nv)
    old_to_new = np.empty(nv, dtype=np.int64)
    old_to_new[new_to_old] = np.arange(nv)
    order = _local_permutation(rng, len(mesh_input.cells))
    cells = [[int(old_to_new[v]) for v in mesh_input.cells[c]]
             for c in order]
    tags = {(int(old_to_new[a]), int(old_to_new[b])): t
            for (a, b), t in mesh_input.tag_edges.items()}
    return MeshInput(mesh_input.vertices[new_to_old].copy(), cells, tags)


def make_input(name, seed):
    w = WORKLOADS[name]
    return renumber(generate(w.grid, w.nx, w.nz), seed)
