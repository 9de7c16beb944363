"""Binding interaction graph (BIG) construction for molecular docking.

Nodes are ligand/protein pharmacophore contact pairs, weighted by a
potential table.  Two contacts are joined by an edge (are compatible) when
they share no pharmacophore point and their intra-molecular distances agree:
|d(P1, P2) - d(l1, l2)| <= tau + 2 eps, with eps looked up per kind class.
Max-weight cliques of the BIG are pairwise-compatible, point-injective
contact sets, i.e. candidate docking poses.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .cliques import Clique
from .encoding import WeightedGraph
from .errors import ConfigurationError, InternalConsistencyError, ValidationError

SIDE_LIGAND = "ligand"
SIDE_PROTEIN = "protein"

KIND_HBOND_ACCEPTOR = "HA"
KIND_HBOND_DONOR = "HD"
KIND_NEGATIVE_CHARGE = "NC"
KIND_AROMATIC = "AR"

_HBOND_KINDS = {KIND_HBOND_ACCEPTOR, KIND_HBOND_DONOR}

EPSILON_HBOND = "hbond"
EPSILON_MIXED = "mixed"


@dataclass(frozen=True)
class PharmacophorePoint:
    id: str
    kind: str
    position: np.ndarray
    side: str

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValidationError(f"point {self.id!r} needs a finite 3-vector position")
        if self.side not in (SIDE_LIGAND, SIDE_PROTEIN):
            raise ValidationError(f"point {self.id!r} side must be ligand or protein")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "kind", str(self.kind).upper())


def _non_negative(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and x >= 0


@dataclass(frozen=True)
class DockingParams:
    """Flexibility constant tau and per-class interaction distances, in Angstrom.

    ``epsilon_table`` keys the two kind classes: 'hbond' when all four kinds
    in a contact pair are H-bond donors/acceptors, 'mixed' otherwise.
    ``weight_table`` maps (ligand kind, protein kind) to the contact weight;
    None means uniform 1.0.
    """

    tau: float = 0.8
    epsilon_table: dict = field(default_factory=lambda: {EPSILON_HBOND: 0.0,
                                                         EPSILON_MIXED: 0.3})
    weight_table: dict | None = None

    def __post_init__(self):
        if not _non_negative(self.tau):
            raise ValidationError(f"tau must be a number >= 0, got {self.tau!r}")
        for key, eps in self.epsilon_table.items():
            if not _non_negative(eps):
                raise ValidationError(f"epsilon for class {key!r} must be a number >= 0")
        if self.weight_table is not None:
            for pair, w in self.weight_table.items():
                if not _non_negative(w):
                    raise ValidationError(f"weight for {pair!r} must be a number >= 0")

    def epsilon_for(self, *kinds: str) -> float:
        cls = EPSILON_HBOND if all(k in _HBOND_KINDS for k in kinds) else EPSILON_MIXED
        try:
            return float(self.epsilon_table[cls])
        except KeyError:
            raise ConfigurationError(f"epsilon_table is missing class {cls!r} "
                                     f"(needed for kinds {kinds})") from None

    def weight_for(self, ligand_kind: str, protein_kind: str) -> float:
        if self.weight_table is None:
            return 1.0
        try:
            return float(self.weight_table[(ligand_kind, protein_kind)])
        except KeyError:
            raise ConfigurationError(
                f"weight_table is missing pair ({ligand_kind!r}, {protein_kind!r})") from None


@dataclass(frozen=True)
class Contact:
    """One (ligand point, protein point) assignment with its potential weight."""

    ligand_point: str
    protein_point: str
    weight: float


@dataclass(frozen=True, eq=False)
class BindingInteractionGraph:
    """The BIG plus the node-indexed contact assignments behind it."""

    graph: WeightedGraph
    contacts: tuple[Contact, ...]
    ligand_ids: tuple[str, ...]
    protein_ids: tuple[str, ...]


def _check_points(points, side):
    ids = set()
    for p in points:
        if p.side != side:
            raise ValidationError(f"point {p.id!r} has side {p.side!r}, expected {side!r}")
        if p.id in ids:
            raise ValidationError(f"duplicate {side} point id {p.id!r}")
        ids.add(p.id)


def build_big(ligand, protein, p: DockingParams) -> BindingInteractionGraph:
    """All n*m contacts as nodes; edges join geometrically compatible pairs.

    Contacts sharing a ligand or protein point are never adjacent; the
    adjacency is symmetric with a zero diagonal by construction.
    """
    ligand, protein = list(ligand), list(protein)
    if not ligand or not protein:
        raise ValidationError("need at least one ligand and one protein point")
    _check_points(ligand, SIDE_LIGAND)
    _check_points(protein, SIDE_PROTEIN)

    contacts = []
    weights = []
    labels = []
    for lp in ligand:
        for pp in protein:
            w = p.weight_for(lp.kind, pp.kind)
            contacts.append(Contact(lp.id, pp.id, w))
            weights.append(w)
            labels.append(f"{lp.id}~{pp.id}")

    n_lig, n_prot = len(ligand), len(protein)
    lig_by_node = [i // n_prot for i in range(n_lig * n_prot)]
    prot_by_node = [i % n_prot for i in range(n_lig * n_prot)]

    edges = []
    for u, v in combinations(range(len(contacts)), 2):
        li, lj = lig_by_node[u], lig_by_node[v]
        pi, pj = prot_by_node[u], prot_by_node[v]
        if li == lj or pi == pj:
            continue
        d_l = float(np.linalg.norm(ligand[li].position - ligand[lj].position))
        d_p = float(np.linalg.norm(protein[pi].position - protein[pj].position))
        eps = p.epsilon_for(ligand[li].kind, ligand[lj].kind,
                            protein[pi].kind, protein[pj].kind)
        if abs(d_p - d_l) <= p.tau + 2 * eps:
            edges.append((u, v))

    graph = WeightedGraph.from_edges(len(contacts), edges, weights, labels=labels)
    return BindingInteractionGraph(graph, tuple(contacts),
                                   tuple(pt.id for pt in ligand),
                                   tuple(pt.id for pt in protein))


def interpret_pose(big: BindingInteractionGraph, c: Clique) -> tuple[Contact, ...]:
    """Contacts selected by a clique; injective on both point sets by construction."""
    from .cliques import is_clique

    if not is_clique(big.graph, c.nodes):
        raise ValidationError("pose interpretation requires a clique of the BIG")
    pose = tuple(big.contacts[n] for n in c.nodes)
    lig = [ct.ligand_point for ct in pose]
    prot = [ct.protein_point for ct in pose]
    if len(set(lig)) != len(lig) or len(set(prot)) != len(prot):
        raise InternalConsistencyError(
            "clique repeats a pharmacophore point; BIG adjacency is corrupt")
    return pose
