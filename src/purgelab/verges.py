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
from .vecmath import ema_batch, ema_rate

# Not called here: purgebench's tracer counts calls made through this module
# attribute, so it stays importable from this module.
from .vecmath import cosine_distance  # noqa: F401

SNAPSHOT_VERSION = 2

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
        ema_rate(gamma)  # raises ConfigError unless gamma is finite and >= 1
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
        pos = _checked_distances(pos_distances, "pos_distances")
        neg = _checked_distances(neg_distances, "neg_distances")
        if not pos and not neg:
            return self.states.get(class_id, VergeState())
        state = self.states.setdefault(class_id, VergeState())
        state.v_plus = self._fold(state.v_plus, pos)
        state.v_minus = self._fold(state.v_minus, neg)
        return state

    def _fold(self, value: float | None, distances: list[float]) -> float | None:
        if not distances:
            return value
        return ema_batch(distances[0] if value is None else value, distances, self.gamma)

    def batch_update(self, batch: EmbeddedBatch) -> set[int]:
        """Update verges from one embedded minibatch.

        Collects, per class in the batch, the equivalent and non-equivalent
        origin-mutant distances in stable batch order, folds them in, and
        returns the set of touched class ids. Classes not in the batch are
        untouched.
        """
        order: list[int] = []
        pos: dict[int, list[float]] = {}
        neg: dict[int, list[float]] = {}
        rows = zip(batch.class_ids.tolist(), batch.labels.tolist(), batch.distances.tolist())
        for cid, label, d in rows:
            if cid not in pos and cid not in neg:
                order.append(cid)
            bucket = pos if label == 1 else neg
            bucket.setdefault(cid, []).append(d)
        for cid in order:
            self.update_class(cid, pos.get(cid, ()), neg.get(cid, ()))
        return set(order)

    def snapshot(self) -> bytes:
        """Serialize to versioned line-delimited text; round-trips exactly."""
        lines = [
            f"verge-registry {SNAPSHOT_VERSION}",
            f"gamma {self.gamma!r}",
        ]
        for cid in sorted(self.states):
            state = self.states[cid]
            lines.append(f"{cid}\t{_fmt(state.v_plus)}\t{_fmt(state.v_minus)}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def restore(cls, data: bytes) -> "VergeRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DeserializeError(f"snapshot is not UTF-8: {exc}") from None
        lines = text.splitlines()
        if len(lines) < 2:
            raise DeserializeError("snapshot truncated: header missing")
        head = lines[0].split()
        if len(head) != 2 or head[0] != "verge-registry":
            raise DeserializeError(f"not a verge snapshot: {lines[0]!r}")
        if head[1] != str(SNAPSHOT_VERSION):
            raise DeserializeError(f"unsupported verge snapshot version {head[1]!r}")
        try:
            gamma = float(lines[1].split(" ", 1)[1])
        except (IndexError, ValueError) as exc:
            raise DeserializeError(f"malformed snapshot header: {exc}") from None
        registry = cls(gamma)
        for line in lines[2:]:
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DeserializeError(f"malformed snapshot line: {line!r}")
            try:
                cid = int(parts[0])
                state = VergeState(v_plus=_parse(parts[1]), v_minus=_parse(parts[2]))
            except ValueError as exc:
                raise DeserializeError(f"malformed snapshot line: {line!r} ({exc})") from None
            registry.states[cid] = state
        return registry


def _checked_distances(distances: Sequence[float], name: str) -> list[float]:
    out = []
    for d in distances:
        d = float(d)
        if d < -_RANGE_TOL or d > 1.0 + _RANGE_TOL:
            raise RangeError(f"{name} value {d!r} outside [0, 1]")
        out.append(min(1.0, max(0.0, d)))
    return out


def _fmt(value: float | None) -> str:
    return "-" if value is None else repr(float(value))


def _parse(field: str) -> float | None:
    return None if field == "-" else float(field)
