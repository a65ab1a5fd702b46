import numpy as np
import pytest
import scipy.sparse as sp

from lram import cli, fem, lowrank, numerics
from lram.errors import ConfigRangeError, InvalidMeshSizeError

import oracles


# ---------------------------------------------------------------------------
# mesh generation
# ---------------------------------------------------------------------------


def test_mesh_counts_h_half():
    mesh = fem.structured_mesh(0.5)
    assert mesh.num_nodes == 9
    assert mesh.num_elements == 8
    assert mesh.boundary_nodes.shape[0] == 8


def test_mesh_counts_h_tenth():
    mesh = fem.structured_mesh(0.1)
    assert mesh.num_nodes == 121
    assert mesh.num_elements == 200
    assert mesh.boundary_nodes.shape[0] == 40


def test_mesh_signed_areas_uniform():
    mesh = fem.structured_mesh(0.25)
    areas, _, _ = fem._element_geometry(mesh)
    assert np.allclose(areas, mesh.h ** 2 / 2.0, atol=1e-15)
    assert np.all(areas > 0)


def test_mesh_boundary_exactly_edge_nodes():
    mesh = fem.structured_mesh(0.2)
    on_edge = np.flatnonzero(
        (mesh.nodes[:, 0] == 0.0) | (mesh.nodes[:, 0] == 1.0)
        | (mesh.nodes[:, 1] == 0.0) | (mesh.nodes[:, 1] == 1.0)
    )
    assert np.array_equal(np.sort(mesh.boundary_nodes), on_edge)


def test_mesh_conforming_edges():
    # every interior edge is shared by exactly two triangles
    mesh = fem.structured_mesh(0.25)
    from collections import Counter

    edges = Counter()
    for tri in mesh.elements:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges[tuple(sorted((tri[a], tri[b])))] += 1
    assert set(edges.values()) <= {1, 2}


@pytest.mark.parametrize("h", [0.0, 1.0, -0.1, 2.0])
def test_mesh_rejects_bad_h(h):
    with pytest.raises(InvalidMeshSizeError):
        fem.structured_mesh(h)


# ---------------------------------------------------------------------------
# element matrices
# ---------------------------------------------------------------------------


def test_reference_triangle_stiffness():
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(oracles.triangle_stiffness(coords), expected, atol=1e-14)


def test_reference_triangle_mass():
    coords = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    expected = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(oracles.triangle_mass(coords), expected, atol=1e-15)


def test_vectorized_element_matrices_match_per_triangle_oracle():
    mesh = fem.structured_mesh(0.25)
    areas, k_geo, m_loc = fem._element_geometry(mesh)
    for t, tri in enumerate(mesh.elements):
        coords = mesh.nodes[tri]
        assert np.allclose(k_geo[t], oracles.triangle_stiffness(coords), atol=1e-14)
        assert np.allclose(m_loc[t], oracles.triangle_mass(coords), atol=1e-15)
    assert np.isclose(areas.sum(), 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_zero_epsilon_gives_zero_perturbations():
    mesh = fem.structured_mesh(0.25)
    fields = fem.sample_fields(mesh, 3, 0.0, "normal", master_seed=1)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    for p in system.perturbations:
        assert p.nnz == 0 or np.all(p.data == 0.0)


def test_unconstrained_stiffness_rows_sum_to_zero():
    # constants lie in the kernel of each element stiffness, so of its unconstrained sum
    mesh = fem.structured_mesh(0.25)
    _, k_geo, _ = fem._element_geometry(mesh)
    assert np.allclose(k_geo.sum(axis=2), 0.0, atol=1e-13)
    rows, cols = fem._triplets(mesh)
    stiffness = sp.csr_array((k_geo.ravel(), (rows, cols)), shape=(mesh.num_nodes,) * 2)
    assert np.allclose(stiffness.sum(axis=1), 0.0, atol=1e-13)


def test_assembled_matrices_symmetric():
    mesh = fem.structured_mesh(0.2)
    fields = fem.sample_fields(mesh, 2, 0.2, "normal", master_seed=3)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    for mat in [system.base, system.mass, *system.perturbations]:
        assert np.max(np.abs((mat - mat.T).toarray())) <= 1e-12


def test_mass_matrix_positive_definite_small_mesh():
    mesh = fem.structured_mesh(0.5)
    system = fem.assemble(mesh, [], lambda x, y: 1.0)
    eigenvalues = np.linalg.eigvalsh(system.mass.toarray())
    assert eigenvalues.min() > 0


def test_base_matrix_factorizes_across_sizes():
    for h in (0.5, 0.2, 0.1):
        mesh = fem.structured_mesh(h)
        system = fem.assemble(mesh, [], lambda x, y: 1.0)
        numerics.factorize_spd(system.base)  # raises if not SPD


def test_perturbation_boundary_rows_exactly_zero():
    mesh = fem.structured_mesh(0.25)
    fields = fem.sample_fields(mesh, 2, 0.2, "normal", master_seed=5)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    for p in system.perturbations:
        dense = p.toarray()
        assert np.all(dense[mesh.boundary_nodes, :] == 0.0)
        assert np.all(dense[:, mesh.boundary_nodes] == 0.0)


def test_assembly_stores_no_explicit_zeros():
    # a field that vanishes on a patch of elements: its perturbation is zero there.
    # The members share one summation map, so a zero and a patched field between
    # two copies of one field must leave both copies whole.
    mesh = fem.structured_mesh(0.1)
    patched, full = fem.sample_fields(mesh, 2, 0.2, "normal", master_seed=11)
    centres = mesh.nodes[mesh.elements].mean(axis=1)
    patch = np.all(np.abs(centres - 0.5) < 0.25, axis=1)
    patched.values[patch] = 0.0
    zero = fem.RandomField(epsilon=0.2, distribution="normal",
                           values=np.zeros(mesh.num_elements), master_seed=11, sample_index=2)
    fields = {"patch": patched, "full": full, "zero": zero}
    for draws in [("patch", "full"), ("full", "patch", "zero", "full")]:
        system = fem.assemble(mesh, [fields[d] for d in draws], lambda x, y: 1.0)
        for matrix in [system.base, system.mass, *system.perturbations]:
            assert matrix.nnz == np.count_nonzero(matrix.toarray())
        members = dict(zip(draws, system.perturbations))
        copies = [p.toarray() for d, p in zip(draws, system.perturbations) if d == "full"]
        assert all(np.array_equal(c, copies[0]) for c in copies)
        assert "zero" not in members or members["zero"].nnz == 0
    zeroed, full = members["patch"], members["full"]
    assert zeroed.nnz < full.nnz
    # nodes whose elements all lie in the patch couple to nothing: off the Gram support
    gram = lowrank.ensemble_gram([zeroed])
    assert gram.nnz == np.count_nonzero(gram.toarray())
    inside = np.setdiff1d(np.arange(mesh.num_nodes), mesh.elements[~patch])
    assert inside.size > 0 and np.all(gram.diagonal()[inside] == 0.0)
    assert np.count_nonzero(gram.diagonal()) == mesh.num_nodes - inside.size - len(
        mesh.boundary_nodes)


def test_perturbation_gram_rank_bounded_by_interior():
    mesh = fem.structured_mesh(0.25)
    fields = fem.sample_fields(mesh, 12, 0.2, "normal", master_seed=7)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    gram = lowrank.ensemble_gram(system.perturbations)
    lam = np.linalg.eigvalsh(gram.toarray())
    numerical_rank = int(np.sum(lam > 1e-10 * lam.max()))
    assert numerical_rank <= mesh.num_nodes - mesh.boundary_nodes.shape[0]


def test_doubling_epsilon_doubles_entries_exactly():
    mesh = fem.structured_mesh(0.25)
    fields = fem.sample_fields(mesh, 2, 0.1, "normal", master_seed=9)
    doubled = [
        fem.RandomField(epsilon=0.2, distribution=f.distribution, values=f.values,
                        master_seed=f.master_seed, sample_index=f.sample_index)
        for f in fields
    ]
    sys1 = fem.assemble(mesh, fields, lambda x, y: 1.0)
    sys2 = fem.assemble(mesh, doubled, lambda x, y: 1.0)
    for p1, p2 in zip(sys1.perturbations, sys2.perturbations):
        assert np.array_equal(2.0 * p1.toarray(), p2.toarray())


def test_min_coefficient_reported():
    mesh = fem.structured_mesh(0.25)
    fields = fem.sample_fields(mesh, 4, 0.2, "uniform", master_seed=11)
    system = fem.assemble(mesh, fields, lambda x, y: 1.0)
    assert system.min_coefficient.shape == (4,)
    # uniform draws in [-1, 1] scaled by 0.2 keep the coefficient in [0.8, 1.2]
    assert np.all(system.min_coefficient >= 0.8 - 1e-12)


def test_load_is_mass_times_nodal_source_with_bc():
    mesh = fem.structured_mesh(0.25)
    system = fem.assemble(mesh, [], lambda x, y: 1.0)
    expected = system.mass @ np.ones(mesh.num_nodes)
    expected[mesh.boundary_nodes] = 0.0
    assert np.allclose(system.load, expected, atol=1e-15)
    interior = np.setdiff1d(np.arange(mesh.num_nodes), mesh.boundary_nodes)
    assert np.allclose(system.load[interior], mesh.h ** 2, atol=1e-15)


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------


def test_fields_deterministic_per_seed_and_index():
    mesh = fem.structured_mesh(0.25)
    a = fem.sample_fields(mesh, 5, 0.2, "normal", master_seed=42)
    b = fem.sample_fields(mesh, 2, 0.2, "normal", master_seed=42)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    c = fem.sample_fields(mesh, 5, 0.2, "normal", master_seed=43)
    assert not np.array_equal(a[0].values, c[0].values)


def test_uniform_field_statistics():
    mesh = fem.structured_mesh(0.05)  # 800 elements
    fields = fem.sample_fields(mesh, 125, 1.0, "uniform", master_seed=17)
    draws = np.concatenate([f.values for f in fields])
    assert draws.size == 100_000
    assert abs(draws.mean()) <= 0.01
    assert draws.min() >= -1.0
    assert draws.max() <= 1.0


def test_fields_reject_bad_arguments():
    mesh = fem.structured_mesh(0.5)
    with pytest.raises(ConfigRangeError):
        fem.sample_fields(mesh, 0, 0.2, "normal", 1)
    with pytest.raises(ConfigRangeError):
        fem.sample_fields(mesh, 1, -0.1, "normal", 1)
    with pytest.raises(ConfigRangeError):
        fem.sample_fields(mesh, 1, 0.2, "cauchy", 1)


# ---------------------------------------------------------------------------
# manufactured solution
# ---------------------------------------------------------------------------


def test_manufactured_errors_shrink_with_refinement():
    errors = dict(fem.manufactured_check([0.5, 0.25]))
    assert errors[0.5] > errors[0.25]


def test_manufactured_rate_near_two():
    results = fem.manufactured_check([1 / 8, 1 / 16])
    rate = np.log2(results[0][1] / results[1][1])
    assert rate >= 1.8


def test_manufactured_boundary_exactly_zero():
    mesh = fem.structured_mesh(0.25)
    system = fem.assemble(
        mesh, [], lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    solution = numerics.factorize_spd(system.base).solve(system.load)
    assert np.all(solution[mesh.boundary_nodes] == 0.0)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_mesh_and_field_csv(tmp_path):
    # meshes and fields go out through the CLI's one CSV writer
    mesh = fem.structured_mesh(0.5)
    on_boundary = np.isin(np.arange(mesh.num_nodes), mesh.boundary_nodes)
    cli.write_csv(tmp_path / "nodes.csv", ["node", "x", "y", "boundary"],
                  zip(range(mesh.num_nodes), *mesh.nodes.T, on_boundary))
    cli.write_csv(tmp_path / "elements.csv", ["element", "v0", "v1", "v2"],
                  zip(range(mesh.num_elements), *mesh.elements.T))
    nodes = (tmp_path / "nodes.csv").read_text().splitlines()
    elements = (tmp_path / "elements.csv").read_text().splitlines()
    assert nodes[0] == "node,x,y,boundary"
    assert len(nodes) == 1 + 9
    assert elements[0] == "element,v0,v1,v2"
    assert len(elements) == 1 + 8

    field = fem.sample_fields(mesh, 1, 0.2, "uniform", 3)[0]
    cli.write_csv(tmp_path / "field.csv", ["element", "value"], enumerate(field.values))
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "element,value"
    assert len(lines) == 1 + mesh.num_elements
    assert float(lines[1].split(",")[1]) == field.values[0]
