import numpy as np
import pytest

from gbs_toolkit.cliques import Clique, max_weight_clique
from gbs_toolkit.docking import (
    BindingInteractionGraph,
    Contact,
    DockingParams,
    PharmacophorePoint,
    build_big,
    interpret_pose,
)
from gbs_toolkit.encoding import WeightedGraph
from gbs_toolkit.errors import ConfigurationError, InternalConsistencyError, ValidationError


def lig_point(pid, xyz, kind="HA"):
    return PharmacophorePoint(pid, kind, np.asarray(xyz, float), "ligand")


def prot_point(pid, xyz, kind="HD"):
    return PharmacophorePoint(pid, kind, np.asarray(xyz, float), "protein")


def planted_fixture():
    """3+3 points; contacts (l0,P0), (l1,P1), (l2,P2) are mutually compatible.

    Ligand triangle sides: d01=3, d02=4, d12=5.  Protein triangle matches to
    within 0.1 A, so the identity assignment passes |dP - dL| <= tau = 0.8
    while mismatched assignments are off by >= 1 A.
    """
    ligand = [lig_point("l0", (0, 0, 0)), lig_point("l1", (3, 0, 0)),
              lig_point("l2", (0, 4, 0))]
    d01, d02, d12 = 3.1, 4.1, 4.9
    x2 = (d01 ** 2 + d02 ** 2 - d12 ** 2) / (2 * d01)
    y2 = np.sqrt(d02 ** 2 - x2 ** 2)
    protein = [prot_point("P0", (0, 0, 0)), prot_point("P1", (d01, 0, 0)),
               prot_point("P2", (x2, y2, 0))]
    return ligand, protein


def params_eps0():
    return DockingParams(tau=0.8, epsilon_table={"hbond": 0.0, "mixed": 0.3})


# ---------------------------------------------------------------------------
# build_big


def test_big_node_count_and_weights():
    ligand, protein = planted_fixture()
    big = build_big(ligand[:2], protein[:2], params_eps0())
    assert big.graph.node_count == 4
    assert np.allclose(big.graph.weights, 1.0)


def test_big_edge_present_within_tolerance():
    # ligand pair at 3.0, protein pair at 3.5, tau=0.8, eps=0 -> compatible
    ligand = [lig_point("l0", (0, 0, 0)), lig_point("l1", (3, 0, 0))]
    protein = [prot_point("P0", (0, 0, 0)), prot_point("P1", (3.5, 0, 0))]
    big = build_big(ligand, protein, params_eps0())
    # nodes: 0=(l0,P0) 1=(l0,P1) 2=(l1,P0) 3=(l1,P1)
    assert big.graph.has_edge(0, 3)
    assert big.graph.has_edge(1, 2)


def test_big_edge_absent_outside_tolerance():
    ligand = [lig_point("l0", (0, 0, 0)), lig_point("l1", (3, 0, 0))]
    protein = [prot_point("P0", (0, 0, 0)), prot_point("P1", (4.0, 0, 0))]
    big = build_big(ligand, protein, params_eps0())
    assert not big.graph.has_edge(0, 3)


def test_big_shared_point_contacts_never_adjacent():
    ligand, protein = planted_fixture()
    big = build_big(ligand, protein, params_eps0())
    n_prot = len(protein)
    for u in range(big.graph.node_count):
        for v in range(u + 1, big.graph.node_count):
            if u // n_prot == v // n_prot or u % n_prot == v % n_prot:
                assert not big.graph.has_edge(u, v)


def test_big_huge_tau_gives_complete_multipartite():
    ligand, protein = planted_fixture()
    big = build_big(ligand, protein, DockingParams(tau=1e9))
    n_prot = len(protein)
    for u in range(9):
        for v in range(u + 1, 9):
            sharing = u // n_prot == v // n_prot or u % n_prot == v % n_prot
            assert big.graph.has_edge(u, v) == (not sharing)


def test_big_adjacency_symmetric_zero_diagonal():
    ligand, protein = planted_fixture()
    a = build_big(ligand, protein, params_eps0()).graph.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diagonal(a) == 0)


def test_big_scale_invariance():
    ligand, protein = planted_fixture()
    p1 = DockingParams(tau=0.8, epsilon_table={"hbond": 0.1, "mixed": 0.3})
    factor = 2.5
    ligand_s = [lig_point(q.id, q.position * factor, q.kind) for q in ligand]
    protein_s = [prot_point(q.id, q.position * factor, q.kind) for q in protein]
    p2 = DockingParams(tau=0.8 * factor,
                       epsilon_table={"hbond": 0.1 * factor, "mixed": 0.3 * factor})
    a = build_big(ligand, protein, p1).graph
    b = build_big(ligand_s, protein_s, p2).graph
    assert a.edges == b.edges
    assert np.array_equal(a.weights, b.weights)


def test_big_epsilon_class_selection():
    # aromatic kind switches the pair into the mixed class with a larger eps
    ligand = [lig_point("l0", (0, 0, 0), "HA"), lig_point("l1", (3, 0, 0), "AR")]
    protein = [prot_point("P0", (0, 0, 0), "HD"), prot_point("P1", (4.0, 0, 0), "HD")]
    params = DockingParams(tau=0.8, epsilon_table={"hbond": 0.0, "mixed": 0.2})
    big = build_big(ligand, protein, params)
    # |4.0 - 3.0| = 1.0 <= 0.8 + 2*0.2 only via the mixed class
    assert big.graph.has_edge(0, 3)


def test_big_missing_weight_entry_names_pair():
    ligand, protein = planted_fixture()
    params = DockingParams(weight_table={("HA", "HD"): 1.0})
    ligand[1] = lig_point("l1", (3, 0, 0), "NC")
    with pytest.raises(ConfigurationError, match="NC"):
        build_big(ligand, protein, params)


def test_big_missing_epsilon_entry_names_class():
    ligand, protein = planted_fixture()
    params = DockingParams(epsilon_table={"hbond": 0.0})
    ligand[1] = lig_point("l1", (3, 0, 0), "AR")
    with pytest.raises(ConfigurationError, match="mixed"):
        build_big(ligand, protein, params)


def test_big_weight_table_applied():
    ligand = [lig_point("l0", (0, 0, 0), "HA")]
    protein = [prot_point("P0", (0, 0, 0), "HD"), prot_point("P1", (3, 0, 0), "NC")]
    params = DockingParams(weight_table={("HA", "HD"): 2.0, ("HA", "NC"): 0.5})
    big = build_big(ligand, protein, params)
    assert np.allclose(big.graph.weights, [2.0, 0.5])


# ---------------------------------------------------------------------------
# planted max clique + pose interpretation


def planted_big():
    ligand, protein = planted_fixture()
    return build_big(ligand, protein, params_eps0())


def test_planted_contacts_form_max_weight_clique():
    big = planted_big()
    planted = (0, 4, 8)  # (l0,P0), (l1,P1), (l2,P2) with 3 protein points
    best = max_weight_clique(big.graph)
    assert best.nodes == planted
    assert best.weight == pytest.approx(3.0)


def test_interpret_pose_planted():
    big = planted_big()
    clique = Clique.of(big.graph, (0, 4, 8))
    pose = interpret_pose(big, clique)
    assert [(c.ligand_point, c.protein_point) for c in pose] == \
        [("l0", "P0"), ("l1", "P1"), ("l2", "P2")]


def test_interpret_pose_empty():
    big = planted_big()
    assert interpret_pose(big, Clique((), 0.0)) == ()


def test_interpret_pose_rejects_non_clique():
    big = planted_big()
    with pytest.raises(ValidationError):
        interpret_pose(big, Clique((0, 1), 2.0))


def test_interpret_pose_corrupt_big_raises_internal_consistency():
    # build_big never joins two contacts that share a point; this BIG does
    g = WeightedGraph.from_edges(2, [(0, 1)])
    big = BindingInteractionGraph(g, (Contact("l0", "P0", 1.0), Contact("l0", "P1", 1.0)),
                                  ("l0",), ("P0", "P1"))
    with pytest.raises(InternalConsistencyError, match="corrupt"):
        interpret_pose(big, Clique.of(g, (0, 1)))


def test_every_big_clique_is_compatible_and_injective():
    # re-check the distance predicate directly, independent of build_big internals
    ligand, protein = planted_fixture()
    params = params_eps0()
    big = build_big(ligand, protein, params)
    lig_pos = {p.id: p.position for p in ligand}
    prot_pos = {p.id: p.position for p in protein}
    from gbs_toolkit.cliques import bron_kerbosch
    for clique in bron_kerbosch(big.graph):
        pose = interpret_pose(big, clique)
        for a in range(len(pose)):
            for b in range(a + 1, len(pose)):
                dl = np.linalg.norm(lig_pos[pose[a].ligand_point] - lig_pos[pose[b].ligand_point])
                dp = np.linalg.norm(prot_pos[pose[a].protein_point] - prot_pos[pose[b].protein_point])
                assert abs(dp - dl) <= params.tau + 2 * 0.0 + 1e-12


def test_point_validation():
    with pytest.raises(ValidationError):
        PharmacophorePoint("x", "HA", np.array([0.0, 1.0]), "ligand")
    with pytest.raises(ValidationError):
        PharmacophorePoint("x", "HA", np.zeros(3), "solvent")
    with pytest.raises(ValidationError):
        build_big([], [prot_point("P0", (0, 0, 0))], DockingParams())
