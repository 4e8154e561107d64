"""Semantic class set and class distributions in the log domain.

A class distribution is a row of NUM_CLASSES natural-log probabilities:
(C,) for one, (N,C) for many.  The per-sensor cloud and the voxel map
carry whole matrices of them, so every operation here works on rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NUM_CLASSES = 16

# Probability floor: no class may drop to an absorbing zero, otherwise it
# could never recover under repeated multiplicative fusion.
PROB_FLOOR = 1e-9

PERSON_CLASS = 0
FLOOR_CLASS = 1

DEFAULT_CLASS_NAMES = (
    "person",
    "floor",
    "wall",
    "ceiling",
    "table",
    "chair",
    "sofa",
    "cabinet",
    "door",
    "window",
    "monitor",
    "shelf",
    "bed",
    "lamp",
    "whiteboard",
    "other",
)

DEFAULT_CLASS_COLORS = (
    (220, 20, 60),
    (152, 223, 138),
    (174, 199, 232),
    (196, 156, 148),
    (255, 187, 120),
    (188, 189, 34),
    (140, 86, 75),
    (255, 152, 150),
    (214, 39, 40),
    (197, 176, 213),
    (148, 103, 189),
    (23, 190, 207),
    (247, 182, 210),
    (219, 219, 141),
    (158, 218, 229),
    (127, 127, 127),
)


def _floor_and_norm(log_p: np.ndarray) -> np.ndarray:
    m = log_p.max(axis=-1, keepdims=True)
    log_p = log_p - (m + np.log(np.exp(log_p - m).sum(axis=-1, keepdims=True)))
    p = np.exp(log_p)
    p = np.maximum(p, PROB_FLOOR)
    p /= p.sum(axis=-1, keepdims=True)
    return np.log(p)


@dataclass(frozen=True)
class ClassSet:
    names: tuple[str, ...] = DEFAULT_CLASS_NAMES
    colors: tuple[tuple[int, int, int], ...] = DEFAULT_CLASS_COLORS

    def __post_init__(self):
        if len(self.names) != NUM_CLASSES:
            raise ValueError(f"class set must have {NUM_CLASSES} classes")
        if len(set(self.names)) != len(self.names):
            raise ValueError("class names must be unique")
        if len(self.colors) != len(self.names):
            raise ValueError("one color per class required")
        if self.names[PERSON_CLASS] != "person" or self.names[FLOOR_CLASS] != "floor":
            raise ValueError("index 0 must be 'person' and index 1 'floor'")

    def fingerprint(self) -> int:
        """FNV-1a (64-bit) over the canonical config serialization."""
        h = 0xCBF29CE484222325
        for i, name in enumerate(self.names):
            r, g, b = self.colors[i]
            for byte in f"{i} {name} {r} {g} {b}\n".encode():
                h ^= byte
                h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return h

    @classmethod
    def load(cls, path) -> "ClassSet":
        names, colors = [], []
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 5:
                    raise ValueError(f"{path}:{lineno}: expected 'index name r g b'")
                if int(parts[0]) != len(names):
                    raise ValueError(f"{path}:{lineno}: class indices must be contiguous")
                names.append(parts[1])
                colors.append((int(parts[2]), int(parts[3]), int(parts[4])))
        return cls(names=tuple(names), colors=tuple(colors))


def detection_row(class_idx: int, score: float) -> np.ndarray:
    """Log-probability row of one detection: its score, clamped into the
    open interval fusion requires, on the detected class and the
    remainder spread uniformly over the others."""
    lo = PROB_FLOOR * (NUM_CLASSES - 1)
    hi = 1.0 - (NUM_CLASSES - 1) * PROB_FLOOR
    score = min(max(score, lo), hi)
    p = np.full(NUM_CLASSES, (1.0 - score) / (NUM_CLASSES - 1))
    p[class_idx] = score
    p = np.maximum(p / p.sum(), PROB_FLOOR)
    return np.log(p / p.sum())


def log_softmax_rows(scores: np.ndarray) -> np.ndarray:
    return _floor_and_norm(np.asarray(scores, dtype=np.float64))


def fuse_rows(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    return _floor_and_norm(log_a + log_b)


def uniform_rows(n: int) -> np.ndarray:
    return np.full((n, NUM_CLASSES), -np.log(NUM_CLASSES))
