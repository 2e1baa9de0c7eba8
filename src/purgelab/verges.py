"""Per-class verge tracking.

A verge is a running EMA boundary of origin-mutant distances for one mutant
class: the positive verge tracks distances of equivalent mutants to the class
origin, the negative verge tracks non-equivalent ones. Verges are statistics,
not trainable state; no gradient ever flows through them. The registry is
updated once per minibatch and persists across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DeserializeError, RangeError
from .losses import EmbeddedBatch
from .vecmath import ema_fold, ema_rate

# Not called here: purgebench's tracer counts calls made through this module
# attribute, so it stays importable from this module.
from .vecmath import cosine_distance  # noqa: F401

_RANGE_TOL = 1e-9


@dataclass
class VergeState:
    """Verge pair for one class; ``None`` marks a verge never observed.

    Uninitialized is a real, observable state, never encoded as 0.0.
    """

    v_plus: float | None = None
    v_minus: float | None = None


class VergeRegistry:
    """Holds one :class:`VergeState` per class observed so far.

    The update rule is the literal one: on a class's first observation the
    verge is pre-initialized to the first distance and the closed-form EMA is
    then applied over the full tuple, so the first distance is weighted twice.
    """

    def __init__(self, gamma: float):
        self.rate = ema_rate(gamma)  # raises ConfigError unless gamma is finite and >= 1
        self.gamma = float(gamma)
        self.states: dict[int, VergeState] = {}

    def get(self, class_id: int) -> VergeState | None:
        """State for a class, or None if the class was never observed."""
        return self.states.get(class_id)

    def update_class(
        self,
        class_id: int,
        pos_distances: Sequence[float] = (),
        neg_distances: Sequence[float] = (),
    ) -> VergeState:
        """Fold new distance observations into one class's verges.

        Each nonempty tuple pre-initializes its verge if needed, then applies
        the closed-form EMA over the tuple in order. An empty tuple leaves
        that verge untouched. Distances must lie in [0, 1].
        """
        pos = [_checked(float(d), "pos_distances") for d in pos_distances]
        neg = [_checked(float(d), "neg_distances") for d in neg_distances]
        if not pos and not neg:
            return self.states.get(class_id, VergeState())
        return self._fold(class_id, pos, neg)

    def _fold(self, class_id: int, pos: list[float], neg: list[float]) -> VergeState:
        """Fold checked distances, at least one, into one class's verges."""
        state = self.states.setdefault(class_id, VergeState())
        if pos:
            state.v_plus = ema_fold(pos[0] if state.v_plus is None else state.v_plus, pos, self.rate)
        if neg:
            state.v_minus = ema_fold(neg[0] if state.v_minus is None else state.v_minus, neg, self.rate)
        return state

    def batch_update(self, batch: EmbeddedBatch) -> set[int]:
        """Update verges from one embedded minibatch.

        Collects, per class in the batch, the equivalent and non-equivalent
        origin-mutant distances (in [0, 1] by construction) in stable batch
        order, folds them in, and returns the set of touched class ids.
        Classes not in the batch are untouched.
        """
        groups: dict[int, tuple[list[float], list[float]]] = {}
        rows = zip(batch.class_ids.tolist(), batch.labels.tolist(), batch.distances.tolist())
        for cid, label, d in rows:
            pos, neg = groups.setdefault(cid, ([], []))
            (pos if label == 1 else neg).append(d)
        for cid, (pos, neg) in groups.items():
            self._fold(cid, pos, neg)
        return set(groups)

    def rows(self) -> list[list]:
        """One ``[class_id, v_plus, v_minus]`` per observed class, sorted by
        class id; ``None`` marks a verge not yet formed."""
        return [[cid, s.v_plus, s.v_minus] for cid, s in sorted(self.states.items())]

    @classmethod
    def from_rows(cls, gamma: float, rows) -> "VergeRegistry":
        """Rebuild a registry from :meth:`rows` output as JSON decodes it. Raises
        :class:`DeserializeError` unless every class id is a distinct non-negative
        int and every verge ``None`` or a float in [0, 1] (within the distance
        tolerance, since the EMA can round past 1.0)."""
        registry = cls(gamma)
        for row in rows:
            if type(row) is not list or len(row) != 3:
                raise DeserializeError(f"verge row {row!r} is not [class_id, v_plus, v_minus]")
            cid, *verges = row
            if type(cid) is not int or cid < 0 or cid in registry.states:
                raise DeserializeError(f"verge row {row!r} has a bad or repeated class id")
            for v in verges:
                if v is not None and not (type(v) is float and 0.0 <= v <= 1.0 + _RANGE_TOL):
                    raise DeserializeError(f"verge row {row!r}: a verge is not a float in [0, 1]")
            registry.states[cid] = VergeState(*verges)
        return registry


def _checked(d: float, name: str) -> float:
    """A distance in [0, 1], within the tolerance, clamped into it."""
    if not -_RANGE_TOL <= d <= 1.0 + _RANGE_TOL:
        raise RangeError(f"{name} value {d!r} outside [0, 1]")
    return min(1.0, max(0.0, d))

