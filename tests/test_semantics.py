import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semgrid.semantics import (
    FLOOR_CLASS,
    NUM_CLASSES,
    PERSON_CLASS,
    PROB_FLOOR,
    ClassSet,
    detection_row,
    fuse_rows,
    log_softmax_rows,
    uniform_rows,
)
from tests.conftest import class_file_text
from tests.oracles import bayes_fuse, from_probs

probs_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    min_size=NUM_CLASSES, max_size=NUM_CLASSES,
).map(from_probs)


def fuse(a, b):
    """fuse_rows of two (C,) rows."""
    return fuse_rows(a[None], b[None])[0]


class TestClassDistribution:
    """A class distribution is a (C,) row of natural-log probabilities."""

    def test_from_probs_normalizes(self):
        # detection_row ends in the normalize-floor-normalize of a
        # probability vector (oracles.from_probs)
        for class_idx in range(NUM_CLASSES):
            for score in (1e-6, 0.3, 0.8, 1 - 1e-6):
                p = np.exp(detection_row(class_idx, score))
                assert abs(p.sum() - 1.0) <= 1e-12
                assert p.min() >= PROB_FLOOR * 0.5

    def test_uniform(self):
        assert np.allclose(np.exp(uniform_rows(1)[0]), 1.0 / NUM_CLASSES)


class TestBayesFuse:
    @given(probs_strategy, probs_strategy)
    def test_sums_to_one(self, a, b):
        assert abs(np.exp(fuse(a, b)).sum() - 1.0) <= 1e-9

    @given(probs_strategy)
    def test_uniform_is_identity(self, a):
        fused = fuse(a, uniform_rows(1)[0])
        assert np.abs(np.exp(fused) - np.exp(a)).max() <= 1e-9

    @given(probs_strategy, probs_strategy)
    def test_commutative(self, a, b):
        ab = np.exp(fuse(a, b))
        ba = np.exp(fuse(b, a))
        assert np.abs(ab - ba).max() <= 1e-9

    # entries stay well above the probability floor, so the clamp in
    # _floor_and_norm never engages and associativity is exact up to
    # rounding; with near-zero entries the floor re-injects mass and
    # intentionally breaks it
    @given(st.lists(st.floats(0.2, 1.0), min_size=NUM_CLASSES,
                    max_size=NUM_CLASSES).map(from_probs),
           st.lists(st.floats(0.2, 1.0), min_size=NUM_CLASSES,
                    max_size=NUM_CLASSES).map(from_probs),
           st.lists(st.floats(0.2, 1.0), min_size=NUM_CLASSES,
                    max_size=NUM_CLASSES).map(from_probs))
    def test_associative(self, a, b, c):
        left = np.exp(fuse(fuse(a, b), c))
        right = np.exp(fuse(a, fuse(b, c)))
        assert np.abs(left - right).max() <= 1e-9

    def test_two_class_example(self):
        # two agreeing 0.6/0.4 views concentrate on the favored class:
        # 0.36 : 0.16 normalizes to 9/13 : 4/13.  Exercised on a 2-wide
        # row so the result is exact; embedding it in the 16-class set
        # hands ~1e-8 of mass to the floored empty classes.
        row = np.log(np.array([[0.6, 0.4]]))
        fused = np.exp(fuse_rows(row, row))[0]
        assert abs(fused[0] - 9 / 13) <= 1e-12
        assert abs(fused[1] - 4 / 13) <= 1e-12

    @given(probs_strategy, probs_strategy)
    def test_floor_respected(self, a, b):
        assert np.exp(fuse(a, b)).min() >= PROB_FLOOR * 0.5


class TestSoftmaxAndDetections:
    @given(st.lists(st.floats(-30, 30), min_size=NUM_CLASSES,
                    max_size=NUM_CLASSES))
    def test_softmax_normalized(self, scores):
        row = log_softmax_rows(np.array([scores]))[0]
        assert abs(np.exp(row).sum() - 1.0) <= 1e-9

    @given(st.lists(st.floats(-30, 30), min_size=NUM_CLASSES,
                    max_size=NUM_CLASSES),
           st.floats(-5, 5))
    def test_softmax_shift_invariant(self, scores, shift):
        a = np.exp(log_softmax_rows(np.array([scores])))
        b = np.exp(log_softmax_rows(np.array([scores]) + shift))
        assert np.abs(a - b).max() <= 1e-9

    def test_max_entropy_detection(self):
        row = detection_row(5, 0.8)
        p = np.exp(row)
        assert int(np.argmax(row)) == 5
        assert abs(p[5] - 0.8) <= 1e-9
        others = np.delete(p, 5)
        assert np.abs(others - others[0]).max() <= 1e-12

    @given(st.integers(0, NUM_CLASSES - 1), st.floats(1e-6, 1 - 1e-6))
    def test_detection_row_is_from_probs(self, class_idx, score):
        # the row is the normalize-floor-normalize of the max-entropy
        # probability vector, bit for bit
        p = np.full(NUM_CLASSES, (1.0 - score) / (NUM_CLASSES - 1))
        p[class_idx] = score
        assert np.array_equal(detection_row(class_idx, score), from_probs(p))

    def test_clamp_score_admissible(self):
        # scores at or past the ends of (0, 1) are clamped to rows with
        # no absorbing zero
        for raw in (0.0, 1.0, -3.0, 0.5, 2.0):
            p = np.exp(detection_row(2, raw))
            assert np.all(np.isfinite(p))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert p.min() >= PROB_FLOOR * 0.5


class TestRowHelpers:
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_fuse_rows_matches_scalar(self, n, rnd):
        rng = np.random.default_rng(rnd.getrandbits(32))
        a = log_softmax_rows(rng.normal(size=(n, NUM_CLASSES)))
        b = log_softmax_rows(rng.normal(size=(n, NUM_CLASSES)))
        fused = fuse_rows(a, b)
        for i in range(n):
            ref = bayes_fuse(a[i], b[i])
            assert np.abs(np.exp(fused[i]) - np.exp(ref)).max() <= 1e-12

    def test_uniform_rows(self):
        rows = uniform_rows(5)
        assert rows.shape == (5, NUM_CLASSES)
        assert np.allclose(np.exp(rows), 1.0 / NUM_CLASSES)


class TestClassSet:
    def test_default_layout(self):
        cs = ClassSet()
        assert cs.names[PERSON_CLASS] == "person"
        assert cs.names[FLOOR_CLASS] == "floor"
        assert len(cs.names) == NUM_CLASSES

    def test_fingerprint_stable_and_sensitive(self):
        a, b = ClassSet(), ClassSet()
        assert a.fingerprint() == b.fingerprint()
        names = list(a.names)
        names[3] = "renamed"
        c = ClassSet(names=tuple(names))
        assert c.fingerprint() != a.fingerprint()

    def test_save_load_roundtrip(self, tmp_path):
        cs = ClassSet()
        (tmp_path / "classes.txt").write_text(class_file_text(cs))
        loaded = ClassSet.load(tmp_path / "classes.txt")
        assert loaded == cs
        assert loaded.fingerprint() == cs.fingerprint()

    def test_load_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 person 255 255\n")
        with pytest.raises(ValueError):
            ClassSet.load(p)
        p.write_text("1 person 255 255 255\n")
        with pytest.raises(ValueError):
            ClassSet.load(p)

    def test_rejects_swapped_reserved_classes(self):
        cs = ClassSet()
        names = list(cs.names)
        names[0], names[1] = names[1], names[0]
        with pytest.raises(ValueError):
            ClassSet(names=tuple(names))
