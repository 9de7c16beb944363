"""RNA secondary structure prediction via the weighted full stem graph.

Stems are runs of consecutive complementary base pairs (i+k, j-k), 1-based,
enclosing a loop of at least ``min_loop`` unpaired bases.  The WFSG has one
node per stem (weight = stem length); edges mark co-existence: disjoint base
sets and, by default, no pseudoknot crossing.  A fold is a max-weight clique
of the WFSG; scoring against a reference uses the Matthews correlation
coefficient over the full unordered-pair confusion table.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .cliques import Clique, CliqueReport, max_weight_clique, run_pipeline
from .encoding import WeightedGraph, choose_scale, default_alpha, encode, rescale
from .errors import ValidationError
from .simulator import CapturedMassWarning, prepare_state, sample

WATSON_CRICK_WOBBLE = frozenset({("A", "U"), ("U", "A"), ("G", "C"), ("C", "G"),
                                 ("G", "U"), ("U", "G")})
WATSON_CRICK = frozenset({("A", "U"), ("U", "A"), ("G", "C"), ("C", "G")})

RNA_ALPHABET = set("ACGU")


@dataclass(frozen=True)
class RnaSequence:
    bases: str
    accession: str | None = None

    def __post_init__(self):
        bases = self.bases.upper().replace("T", "U")
        if not bases:
            raise ValidationError("sequence must not be empty")
        bad = set(bases) - RNA_ALPHABET
        if bad:
            raise ValidationError(f"sequence contains non-RNA characters {sorted(bad)}")
        object.__setattr__(self, "bases", bases)

    def __len__(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class Stem:
    """Outermost pair (i, j), 1-based with i < j, and run length."""

    i: int
    j: int
    length: int

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise ValidationError(f"stem needs 1 <= i < j, got ({self.i}, {self.j})")
        if self.length < 1:
            raise ValidationError("stem length must be >= 1")

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.i + k, self.j - k) for k in range(self.length))

    def base_indices(self) -> frozenset[int]:
        return frozenset(b for pair in self.pairs() for b in pair)


@dataclass(frozen=True)
class FoldPrediction:
    stems: tuple[Stem, ...]
    base_pairs: frozenset[tuple[int, int]]

    @classmethod
    def from_stems(cls, stems) -> "FoldPrediction":
        stems = tuple(stems)
        pairs = [p for s in stems for p in s.pairs()]
        flat = [b for p in pairs for b in p]
        if len(set(flat)) != len(flat):
            raise ValidationError("prediction pairs a base twice")
        return cls(stems, frozenset(pairs))


def enumerate_stems(seq: RnaSequence, min_stem_len: int = 3, min_loop: int = 3,
                    allowed_pairs: frozenset = WATSON_CRICK_WOBBLE) -> list[Stem]:
    """All contiguous complementary runs meeting both minima.

    Every (i, j, L) with complementary pairs (i+k, j-k) for k < L and an
    inner loop gap of at least ``min_loop`` is emitted, so sub-stems of a
    maximal run are included.  Order: by i, then j, then length.
    """
    if min_stem_len < 1 or min_loop < 0:
        raise ValidationError("min_stem_len must be >= 1 and min_loop >= 0")
    bases = seq.bases
    n = len(bases)
    stems = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # longest run allowed by the loop constraint at this (i, j)
            cap = (j - i + 1 - min_loop) // 2
            run = 0
            while run < cap and (bases[i + run - 1], bases[j - run - 1]) in allowed_pairs:
                run += 1
            for length in range(min_stem_len, run + 1):
                stems.append(Stem(i, j, length))
    stems.sort(key=lambda s: (s.i, s.j, s.length))
    return stems


def coexistent(a: Stem, b: Stem, allow_pseudoknots: bool = False) -> bool:
    """Disjoint base sets and (unless allowed) no pseudoknot crossing."""
    if a.base_indices() & b.base_indices():
        return False
    if allow_pseudoknots:
        return True
    crossing = (a.i < b.i < a.j < b.j) or (b.i < a.i < b.j < a.j)
    return not crossing


def build_wfsg(stems, allow_pseudoknots: bool = False) -> WeightedGraph:
    """One node per stem, weight = stem length, edges = co-existence."""
    stems = list(stems)
    if not stems:
        raise ValidationError("cannot build a WFSG from zero stems")
    edges = [(u, v) for u in range(len(stems)) for v in range(u + 1, len(stems))
             if coexistent(stems[u], stems[v], allow_pseudoknots)]
    labels = tuple(f"({s.i},{s.j})x{s.length}" for s in stems)
    return WeightedGraph.from_edges(len(stems), edges,
                                    [float(s.length) for s in stems], labels=labels)


def predict(seq: RnaSequence, min_stem_len: int = 3, min_loop: int = 3,
            allowed_pairs: frozenset = WATSON_CRICK_WOBBLE,
            allow_pseudoknots: bool = False, exact: bool = True, seed: int = 0,
            n_samples: int = 300, min_photons: int = 2, iterations: int = 30,
            target_max_eig: float = 0.9) -> FoldPrediction:
    """Fold by max-weight clique search on the WFSG.

    Exact mode uses the Bron-Kerbosch oracle; otherwise the full GBS route
    runs: encode the WFSG, simulate, draw collision-free samples, post-process
    and keep the heaviest clique found.
    """
    stems = enumerate_stems(seq, min_stem_len, min_loop, allowed_pairs)
    if not stems:
        return FoldPrediction((), frozenset())
    g = build_wfsg(stems, allow_pseudoknots)
    if exact or not g.edges:
        # an edgeless WFSG encodes to the vacuum program (B = 0), which emits
        # no photons; the fold is the single heaviest stem either way
        best = max_weight_clique(g)
    else:
        report = gbs_clique_report(g, seed=seed, n_samples=n_samples,
                                   min_photons=min_photons, iterations=iterations,
                                   target_max_eig=target_max_eig)
        best = Clique.of(g, report.best_clique())
    return FoldPrediction.from_stems(stems[n] for n in best.nodes)


def gbs_clique_report(g: WeightedGraph, seed: int, n_samples: int, min_photons: int,
                      iterations: int, target_max_eig: float = 0.9,
                      max_photons: int = 6) -> CliqueReport:
    """Encode a graph (a WFSG or a BIG), sample collision-free events of at most
    ``max_photons`` photons, run the clique pipeline."""
    params = choose_scale(g, alpha=default_alpha(g), target_max_eig=target_max_eig)
    program = encode(rescale(g, params))
    state = prepare_state(program)
    max_total = min(g.node_count, max_photons)
    min_total = min(min_photons, max_total)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapturedMassWarning)
        batch = sample(state, n_samples, max_total_photons=max_total, seed=seed,
                       collision_free=True, min_total_photons=min_total)
    return run_pipeline(g, batch.patterns, min_photons=min_photons,
                        iterations=iterations, seed=seed)


# ---------------------------------------------------------------------------
# scoring


def mcc_from_counts(tp: float, fp: float, fn: float, tn: float) -> float:
    """Matthews correlation coefficient; 0 when any marginal is empty."""
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def _validate_pairs(pairs, seq_len, name):
    out = set()
    for a, b in pairs:
        a, b = int(a), int(b)
        if not (1 <= a <= seq_len and 1 <= b <= seq_len) or a == b:
            raise ValidationError(f"{name} pair ({a}, {b}) out of range for length {seq_len}")
        out.add((min(a, b), max(a, b)))
    return out


def mcc(predicted, reference, seq_len: int) -> float:
    """MCC over the universe of all unordered index pairs (i < j)."""
    pred = _validate_pairs(predicted, seq_len, "predicted")
    ref = _validate_pairs(reference, seq_len, "reference")
    universe = seq_len * (seq_len - 1) // 2
    tp = len(pred & ref)
    fp = len(pred - ref)
    fn = len(ref - pred)
    tn = universe - tp - fp - fn
    return mcc_from_counts(tp, fp, fn, tn)


def mcc_approx(predicted, reference, seq_len: int) -> float:
    """sqrt(PPV * sensitivity) variant, reported alongside the full MCC."""
    pred = _validate_pairs(predicted, seq_len, "predicted")
    ref = _validate_pairs(reference, seq_len, "reference")
    if not pred or not ref:
        return 0.0
    tp = len(pred & ref)
    return math.sqrt((tp / len(pred)) * (tp / len(ref)))
