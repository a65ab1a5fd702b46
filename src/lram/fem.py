"""2D P1 triangular finite elements on the unit square.

Structured mesh generation, assembly of the mean-coefficient stiffness matrix,
per-sample perturbation stiffness matrices, the mass matrix and the load
vector, homogeneous Dirichlet boundary handling, and seeded random diffusion
fields.  The diffusion coefficient is ``1 + epsilon * sigma`` with ``sigma``
drawn independently per element, so element integrals are exact and each
perturbation matrix is linear in the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics
from .errors import (
    DegenerateElementError,
    DimensionMismatchError,
    InvalidMeshSizeError,
    check_finite,
    check_range,
)

DISTRIBUTIONS = ("normal", "uniform")


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangulation of the unit square.

    Elements are node-index triples in counter-clockwise order; boundary nodes
    are exactly the nodes with a coordinate on {0, 1}.
    """

    nodes: np.ndarray           # (n_nodes, 2)
    elements: np.ndarray        # (n_elements, 3), int
    boundary_nodes: np.ndarray  # sorted int indices
    h: float

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_elements(self) -> int:
        return self.elements.shape[0]


def structured_mesh(h: float) -> TriMesh:
    """Uniform mesh with ``round(1/h)`` cells per side, two triangles per cell.

    Node ordering is row-major and deterministic; every triangle has signed
    area ``h_eff^2 / 2`` with ``h_eff = 1 / round(1/h)``.
    """
    if not 0.0 < h < 1.0:
        raise InvalidMeshSizeError(f"mesh size must lie in (0, 1), got {h}")
    n = int(round(1.0 / h))
    if n < 1:
        raise InvalidMeshSizeError(f"mesh size {h} yields no cells")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    elements = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    elements = np.asarray(elements, dtype=np.int64)

    on_edge = (
        np.isclose(nodes[:, 0], 0.0)
        | np.isclose(nodes[:, 0], 1.0)
        | np.isclose(nodes[:, 1], 0.0)
        | np.isclose(nodes[:, 1], 1.0)
    )
    boundary = np.flatnonzero(on_edge)
    return TriMesh(nodes=nodes, elements=elements, boundary_nodes=boundary, h=1.0 / n)


@dataclass(frozen=True, eq=False)
class RandomField:
    """Piecewise-constant diffusion perturbation for one Monte-Carlo sample.

    ``values`` holds the raw per-element draws; the assembled coefficient is
    ``epsilon * values``.  The draw is reproducible from
    ``(master_seed, sample_index)`` alone.
    """

    epsilon: float
    distribution: str
    values: np.ndarray
    master_seed: int
    sample_index: int


def _check_draw(samples: int, epsilon: float, distribution: str, seed: int) -> None:
    """The range checks of a Monte-Carlo draw, for ``Sampling`` and ``sample_fields``."""
    check_range(samples >= 1, "samples must be >= 1", samples)
    check_range(epsilon >= 0.0, "epsilon must be >= 0", epsilon)
    check_range(distribution in DISTRIBUTIONS,
                f"distribution must be one of {DISTRIBUTIONS}", distribution)
    check_range(seed >= 0, "seed must be >= 0", seed)


def sample_fields(mesh: TriMesh, num_samples: int, epsilon: float,
                  distribution: str, master_seed: int) -> list[RandomField]:
    """Draw ``num_samples`` independent per-element fields.

    Sample ``m`` is generated from a dedicated stream keyed by
    ``(master_seed, m)``, so it is bitwise reproducible regardless of how many
    samples are requested or in which order they are consumed.  Each argument
    but ``mesh`` is range-checked as in ``Sampling`` (``ConfigRangeError``).
    """
    _check_draw(num_samples, epsilon, distribution, master_seed)
    fields = []
    for m in range(num_samples):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(m,)))
        if distribution == "normal":
            values = rng.standard_normal(mesh.num_elements)
        else:
            values = rng.uniform(-1.0, 1.0, mesh.num_elements)
        fields.append(RandomField(epsilon=float(epsilon), distribution=distribution,
                                  values=values, master_seed=master_seed, sample_index=m))
    return fields


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Assembled matrices and load for one mesh and one batch of field samples.

    ``base`` is the mean-coefficient stiffness with Dirichlet rows/columns
    eliminated to the identity; each entry of ``perturbations`` has its
    boundary rows and columns zeroed (hence is rank-deficient); ``mass`` is the
    full mass matrix without boundary treatment; ``load`` is mass times the
    nodal source with boundary entries zeroed.
    """

    base: sp.csr_array
    perturbations: list
    mass: sp.csr_array
    load: np.ndarray
    boundary_nodes: np.ndarray
    node_coords: np.ndarray
    min_coefficient: np.ndarray  # per sample: min over elements of 1 + eps*sigma


def _element_geometry(mesh: TriMesh):
    pts = mesh.nodes[mesh.elements]  # (T, 3, 2)
    x, y = pts[:, :, 0], pts[:, :, 1]
    areas = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                   - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    if np.any(areas <= 1e-300):
        raise DegenerateElementError("mesh contains a triangle with nonpositive area")
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    k_geo = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * areas)[:, None, None]
    m_ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    m_loc = areas[:, None, None] * m_ref[None, :, :]
    return areas, k_geo, m_loc


def _triplets(mesh: TriMesh):
    tri = mesh.elements
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return rows, cols


def _compressed(data, rows, cols, n) -> sp.csr_array:
    """CSR array of summed triplets holding no explicit zeros.

    An entry sums to exactly 0 where the coefficient vanishes on every element
    sharing it, and on the diagonal edge of each square cell, where both
    right-triangle stiffness entries are 0.
    """
    out = sp.csr_array((data, (rows, cols)), shape=(n, n))
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def assemble(mesh: TriMesh, field_samples, source) -> AssembledSystem:
    """Assemble the base stiffness, perturbation stiffness matrices, mass, and load.

    ``source`` is a callable ``f(x, y)`` evaluated at the nodes; the load is
    the mass matrix applied to the nodal source values.  Homogeneous
    Dirichlet conditions are imposed by symmetric elimination, which
    preserves positive definiteness of ``base``.  Entries that sum to 0 are
    not stored.

    Every perturbation sums the same triplets, so their pattern is computed
    once: the CSR pattern of the kept triplets with a nonzero element
    stiffness, and each triplet's slot in it.  A perturbation is then one
    weighted count into those slots.  The perturbations share the pattern's
    index arrays (matrices are immutable, ``numerics``); one with an entry
    that sums to exactly 0 gets its own copy without it.
    """
    n = mesh.num_nodes
    areas, k_geo, m_loc = _element_geometry(mesh)
    rows, cols = _triplets(mesh)

    is_boundary = np.zeros(n, dtype=bool)
    is_boundary[mesh.boundary_nodes] = True
    keep = ~(is_boundary[rows] | is_boundary[cols])

    def stiffness_from(coeff):
        data = (k_geo * coeff[:, None, None]).ravel()
        r = np.concatenate([rows[keep], mesh.boundary_nodes])
        c = np.concatenate([cols[keep], mesh.boundary_nodes])
        d = np.concatenate([data[keep], np.ones(mesh.boundary_nodes.shape[0])])
        return _compressed(d, r, c, n)

    # the summation map: a triplet whose element stiffness is exactly 0 adds
    # nothing to any perturbation
    geo = k_geo.ravel()
    summed = keep & (geo != 0.0)
    element = np.repeat(np.arange(mesh.num_elements), 9)[summed]
    geo = geo[summed]
    keys, slots = np.unique(rows[summed] * n + cols[summed], return_inverse=True)
    indices, indptr = keys % n, np.searchsorted(keys, np.arange(n + 1) * n)

    def perturbation_from(coeff):
        data = np.bincount(slots, weights=geo * coeff[element], minlength=keys.size)
        out = sp.csr_array((data, indices, indptr), shape=(n, n))
        if not np.all(data):
            out = out.copy()
            out.eliminate_zeros()
        return out

    base = stiffness_from(np.ones(mesh.num_elements))
    perturbations = []
    min_coeff = []
    for field in field_samples:
        if field.values.shape[0] != mesh.num_elements:
            raise DimensionMismatchError(
                "field has a value per element mismatch with the mesh"
            )
        coeff = field.epsilon * field.values
        perturbations.append(perturbation_from(coeff))
        min_coeff.append(float(np.min(1.0 + coeff)))

    mass = _compressed(m_loc.ravel(), rows, cols, n)

    nodal_source = np.array([float(source(px, py)) for px, py in mesh.nodes])
    load = mass @ nodal_source
    load[mesh.boundary_nodes] = 0.0

    return AssembledSystem(
        base=base,
        perturbations=perturbations,
        mass=mass,
        load=load,
        boundary_nodes=mesh.boundary_nodes,
        node_coords=mesh.nodes,
        min_coefficient=np.asarray(min_coeff),
    )


@dataclass(frozen=True)
class Sampling:
    """Mesh and Monte-Carlo draw of a sampled system (``sampled_system``).

    ``samples`` fields of ``distribution`` scaled by ``epsilon``, seeded by
    ``seed`` (``sample_fields``), on the structured mesh of spacing ``h``.
    Each value is range-checked at construction (``ConfigRangeError``), and
    every float field, a subclass's too, must be finite.
    """

    h: float = 0.1
    samples: int = 100
    epsilon: float = 0.2
    distribution: str = "normal"
    seed: int = 1234

    def __post_init__(self):
        check_finite(self)
        check_range(0.0 < self.h < 1.0, "h must lie in (0, 1)", self.h)
        _check_draw(self.samples, self.epsilon, self.distribution, self.seed)


@dataclass(frozen=True)
class CompressedSampling(Sampling):
    """A ``Sampling`` whose ensemble a run compresses at the reduction ratio ``tau``.

    The rank is ceil(tau * N) (``lowrank.rank_from_ratio``).  The one
    declaration of ``tau`` for every run config that reads it.
    """

    tau: float = 0.88

    def __post_init__(self):
        super().__post_init__()
        check_range(0.0 < self.tau <= 1.0, "tau must lie in (0, 1]", self.tau)


def sampled_system(sampling: Sampling) -> AssembledSystem:
    """The system every sampled run solves: ``sampling``'s fields with the unit source."""
    mesh = structured_mesh(sampling.h)
    fields = sample_fields(mesh, sampling.samples, sampling.epsilon, sampling.distribution,
                           sampling.seed)
    return assemble(mesh, fields, lambda x, y: 1.0)


def mass_norm(mass, vec) -> float:
    """Discrete L2 norm sqrt(v' * M * v) of nodal values."""
    vec = np.asarray(vec, dtype=float)
    return float(np.sqrt(max(vec @ (mass @ vec), 0.0)))


def manufactured_check(h_list) -> list[tuple[float, float]]:
    """L2 errors of the deterministic solve against sin(pi x) sin(pi y).

    Uses unit coefficient and source ``2 pi^2 sin(pi x) sin(pi y)``, for which
    the exact solution vanishes on the boundary.  Returns (h, error) pairs for
    convergence-rate checks.
    """
    out = []
    for h in h_list:
        mesh = structured_mesh(h)
        system = assemble(
            mesh, [], lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        fact = numerics.factorize_spd(system.base)
        solution = fact.solve(system.load)
        exact = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
        out.append((mesh.h, mass_norm(system.mass, solution - exact)))
    return out
