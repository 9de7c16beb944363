import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbs_toolkit.cliques import BRON_KERBOSCH_GUARD
from gbs_toolkit.errors import GuardError, ValidationError
from gbs_toolkit.rna import (
    WATSON_CRICK,
    FoldPrediction,
    RnaSequence,
    Stem,
    build_wfsg,
    coexistent,
    enumerate_stems,
    mcc,
    mcc_approx,
    mcc_from_counts,
    predict,
)

HAIRPIN = "GGGAAACCC"
HAIRPIN_PAIRS = {(1, 9), (2, 8), (3, 7)}


# ---------------------------------------------------------------------------
# enumerate_stems


def test_hairpin_single_stem():
    stems = enumerate_stems(RnaSequence(HAIRPIN), min_stem_len=3, min_loop=3)
    assert stems == [Stem(1, 9, 3)]
    assert set(stems[0].pairs()) == HAIRPIN_PAIRS


def test_all_a_sequence_no_stems():
    assert enumerate_stems(RnaSequence("AAAAAAAA")) == []


def test_minimal_gc_stem():
    stems = enumerate_stems(RnaSequence("GC"), min_stem_len=1, min_loop=0)
    assert stems == [Stem(1, 2, 1)]


def test_substems_included():
    # GGGGAAAACCCC has a maximal 4-run; lengths 3 and 4 should both appear
    stems = enumerate_stems(RnaSequence("GGGGAAAACCCC"), min_stem_len=3, min_loop=3)
    assert Stem(1, 12, 4) in stems
    assert Stem(1, 12, 3) in stems
    assert Stem(2, 11, 3) in stems


def test_min_loop_respected():
    # loop of two As is below min_loop=3, so no stem survives
    assert enumerate_stems(RnaSequence("GGGAACCC"), min_stem_len=3, min_loop=3) == []


def test_stem_order_deterministic():
    stems = enumerate_stems(RnaSequence("GCGCAAAGCGC"), min_stem_len=2, min_loop=3)
    assert stems == sorted(stems, key=lambda s: (s.i, s.j, s.length))


def test_allowed_pairs_watson_crick_only():
    # G-U wobble pair allowed by default, dropped under strict WC
    seq = RnaSequence("GGGAAAUUC")
    default = enumerate_stems(seq, min_stem_len=2, min_loop=3)
    strict = enumerate_stems(seq, min_stem_len=2, min_loop=3, allowed_pairs=WATSON_CRICK)
    assert any((s.i, s.j) == (2, 8) for s in default)
    assert len(strict) < len(default)


def test_sequence_validation():
    with pytest.raises(ValidationError):
        RnaSequence("ACGX")
    with pytest.raises(ValidationError):
        RnaSequence("")
    assert RnaSequence("acgt").bases == "ACGU"  # T normalized to U


# ---------------------------------------------------------------------------
# build_wfsg / coexistence


def test_base_sharing_stems_not_adjacent():
    a, b = Stem(1, 9, 3), Stem(3, 12, 2)
    assert not coexistent(a, b)
    g = build_wfsg([a, b])
    assert not g.has_edge(0, 1)


def test_disjoint_nested_stems_adjacent():
    outer, inner = Stem(1, 20, 3), Stem(6, 14, 2)
    assert coexistent(outer, inner)
    g = build_wfsg([outer, inner])
    assert g.has_edge(0, 1)


def test_crossing_stems_excluded_by_default():
    a, b = Stem(1, 10, 2), Stem(5, 15, 2)
    assert not coexistent(a, b)
    assert coexistent(a, b, allow_pseudoknots=True)


def test_single_stem_graph():
    g = build_wfsg([Stem(1, 9, 3)])
    assert g.node_count == 1
    assert g.weights[0] == 3.0


def test_wfsg_weights_are_lengths():
    stems = [Stem(1, 20, 3), Stem(6, 14, 2), Stem(25, 33, 4)]
    g = build_wfsg(stems)
    assert list(g.weights) == [3.0, 2.0, 4.0]


# ---------------------------------------------------------------------------
# predict


def test_predict_hairpin_exact():
    pred = predict(RnaSequence(HAIRPIN), exact=True)
    assert pred.base_pairs == frozenset(HAIRPIN_PAIRS)


def test_predict_empty_for_unfoldable():
    pred = predict(RnaSequence("AAAAAA"), exact=True)
    assert pred.stems == ()
    assert pred.base_pairs == frozenset()


def test_predict_two_compatible_stems():
    # two disjoint hairpins; both stems fit in one clique
    seq = RnaSequence("GGGAAACCC" + "AA" + "GCGCAAAAGCGC")
    pred = predict(seq, exact=True, min_stem_len=3, min_loop=3)
    assert len(pred.stems) >= 2
    starts = {s.i for s in pred.stems}
    assert 1 in starts and any(i > 9 for i in starts)


def test_predict_gbs_route_matches_exact_on_two_hairpins():
    seq = RnaSequence("GGGAAACCC" + "AA" + "GCGCAAAAGCGC")
    exact = predict(seq, exact=True)
    via_gbs = predict(seq, exact=False, seed=11, n_samples=80, min_photons=2,
                      iterations=15)
    assert via_gbs.base_pairs == exact.base_pairs


def test_predict_gbs_route_single_stem_falls_back_to_exact():
    # one-stem WFSG is edgeless -> vacuum program -> exact fold instead
    pred = predict(RnaSequence(HAIRPIN), exact=False, seed=3)
    assert pred.base_pairs == frozenset(HAIRPIN_PAIRS)


def test_predict_exact_matches_bruteforce_subsets():
    from itertools import combinations

    seq = RnaSequence("GCGCAAAGCGCAAAGGGAAACCC")
    stems = enumerate_stems(seq, min_stem_len=2, min_loop=3)
    assert 2 <= len(stems) <= 16
    g = build_wfsg(stems)
    best_weight = 0.0
    for size in range(1, len(stems) + 1):
        for sub in combinations(range(len(stems)), size):
            if all(coexistent(stems[u], stems[v]) for u, v in combinations(sub, 2)):
                best_weight = max(best_weight, sum(g.weights[n] for n in sub))
    pred = predict(seq, exact=True, min_stem_len=2, min_loop=3)
    assert sum(s.length for s in pred.stems) == pytest.approx(best_weight)


def test_prediction_injective_base_pairs():
    with pytest.raises(ValidationError):
        FoldPrediction.from_stems([Stem(1, 9, 3), Stem(3, 12, 2)])


# ---------------------------------------------------------------------------
# mcc


def test_mcc_perfect_prediction():
    assert mcc(HAIRPIN_PAIRS, HAIRPIN_PAIRS, 9) == pytest.approx(1.0)


def test_mcc_confusion_count_example():
    assert mcc_from_counts(3, 1, 1, 95) == pytest.approx(284 / 384, abs=1e-10)
    assert mcc_from_counts(3, 1, 1, 95) == pytest.approx(0.7396, abs=1e-4)


def test_mcc_empty_prediction_zero():
    assert mcc(set(), HAIRPIN_PAIRS, 9) == 0.0


def test_mcc_symmetry_and_bounds():
    pred = {(1, 9), (2, 8), (4, 6)}
    ref = {(1, 9), (2, 8), (3, 7)}
    a, b = mcc(pred, ref, 9), mcc(ref, pred, 9)
    assert a == pytest.approx(b)
    assert -1.0 <= a <= 1.0
    assert a < 1.0


def test_mcc_rejects_out_of_range():
    with pytest.raises(ValidationError):
        mcc({(0, 3)}, HAIRPIN_PAIRS, 9)
    with pytest.raises(ValidationError):
        mcc({(1, 10)}, HAIRPIN_PAIRS, 9)


def test_mcc_approx_variant():
    pred = {(1, 9), (2, 8), (4, 6), (5, 7)}
    ref = {(1, 9), (2, 8), (3, 7)}
    tp = 2
    expected = np.sqrt((tp / 4) * (tp / 3))
    assert mcc_approx(pred, ref, 9) == pytest.approx(expected)
    assert mcc_approx(set(), ref, 9) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_property_prediction_coexistent_and_injective(seed):
    rng = np.random.default_rng(seed)
    bases = "".join(rng.choice(list("ACGU"), size=24))
    seq = RnaSequence(bases)
    if len(enumerate_stems(seq, 3, 3)) > BRON_KERBOSCH_GUARD:
        # about 1 sequence in 250 has more stems than the exact oracle accepts
        with pytest.raises(GuardError):
            predict(seq, exact=True, min_stem_len=3, min_loop=3)
        return
    pred = predict(seq, exact=True, min_stem_len=3, min_loop=3)
    # base-pair injectivity is enforced on construction; re-check coexistence
    from itertools import combinations
    for a, b in combinations(pred.stems, 2):
        assert coexistent(a, b)
