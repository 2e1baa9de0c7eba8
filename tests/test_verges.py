import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purgelab.errors import ConfigError, DeserializeError, EmptyBatchError, RangeError
from purgelab.losses import EmbeddedBatch
from purgelab.vecmath import ema_step
from purgelab.verges import VergeRegistry, VergeState


def make_registry(gamma=3.0, **kwargs):
    return VergeRegistry(gamma, **kwargs)


def unit_at_distance(d, dim=4):
    """Unit vector at normalized cosine distance d from e1."""
    cos = 1.0 - 2.0 * d
    v = np.zeros(dim)
    v[0] = cos
    v[1] = np.sqrt(max(0.0, 1.0 - cos * cos))
    return v


ORIGIN = np.array([1.0, 0.0, 0.0, 0.0])


def batch_of(rows):
    """A unit-norm batch from (class_id, distance, label) rows, each mutant at
    that distance from ORIGIN."""
    class_ids, distances, labels = zip(*rows)
    origins = np.stack([ORIGIN] * len(rows))
    mutants = np.stack([unit_at_distance(d) for d in distances])
    return EmbeddedBatch.from_rows(class_ids, labels, origins, mutants)


def test_worked_update_example():
    # pre-init with 0.3, then closed-form EMA over (0.3, 0.5) at step 0.5:
    # 0.3*0.25 + 0.5*(0.3*0.5 + 0.5*1) = 0.4
    registry = make_registry(gamma=3.0)
    state = registry.update_class(1, pos_distances=(0.3, 0.5))
    assert state.v_plus == pytest.approx(0.4, abs=1e-12)
    assert state.v_minus is None


def test_empty_tuple_leaves_verge_unchanged():
    registry = make_registry()
    registry.update_class(1, pos_distances=(0.4,))
    state = registry.update_class(1, pos_distances=())
    assert state.v_plus == pytest.approx(0.4)


def test_fixed_point():
    registry = make_registry(gamma=9.0)
    registry.update_class(2, neg_distances=(0.6,))
    state = registry.update_class(2, neg_distances=(0.6,))
    assert state.v_minus == pytest.approx(0.6, abs=1e-15)


def test_update_with_both_tuples_empty_does_not_observe_class():
    registry = make_registry()
    registry.update_class(5)
    assert registry.get(5) is None
    assert registry.states == {}


def test_distance_out_of_range():
    registry = make_registry()
    with pytest.raises(RangeError):
        registry.update_class(1, pos_distances=(1.5,))
    with pytest.raises(RangeError):
        registry.update_class(1, neg_distances=(-0.2,))
    with pytest.raises(RangeError):
        registry.update_class(1, pos_distances=(float("nan"),))


def test_range_tolerance_clamps_tiny_drift():
    registry = make_registry()
    state = registry.update_class(1, pos_distances=(1.0 + 1e-10,))
    assert state.v_plus == 1.0


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.floats(1.0, 30.0),
)
@settings(max_examples=100, deadline=None)
def test_update_equals_preinit_plus_sequential_steps(seed, h, gamma):
    rng = np.random.default_rng(seed)
    distances = rng.uniform(size=h).tolist()
    registry = make_registry(gamma=gamma)
    state = registry.update_class(0, pos_distances=distances)
    expected = distances[0]
    for d in distances:
        expected = ema_step(expected, d, gamma)
    assert abs(state.v_plus - expected) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_verges_stay_in_unit_interval(seed, rounds):
    rng = np.random.default_rng(seed)
    registry = make_registry(gamma=float(rng.uniform(1.0, 20.0)))
    for _ in range(rounds):
        pos = rng.uniform(size=rng.integers(0, 4)).tolist()
        neg = rng.uniform(size=rng.integers(0, 4)).tolist()
        registry.update_class(int(rng.integers(0, 3)), pos, neg)
    for state in registry.states.values():
        if state.v_plus is not None:
            assert 0.0 <= state.v_plus <= 1.0
        if state.v_minus is not None:
            assert 0.0 <= state.v_minus <= 1.0


def test_class_isolation():
    registry = make_registry()
    registry.update_class(1, pos_distances=(0.2,))
    before = VergeState(registry.get(1).v_plus, registry.get(1).v_minus)
    registry.update_class(2, pos_distances=(0.9,), neg_distances=(0.8,))
    assert registry.get(1).v_plus == before.v_plus
    assert registry.get(1).v_minus == before.v_minus


def test_batch_update_single_class_single_equivalent():
    registry = make_registry(gamma=3.0)
    touched = registry.batch_update(batch_of([(4, 0.2, 1)]))
    assert touched == {4}
    # pre-init to the single observation, then EMA fixed point at 0.2
    assert registry.get(4).v_plus == pytest.approx(0.2, abs=1e-12)
    assert registry.get(4).v_minus is None


def test_batch_update_returns_unique_classes_and_isolates_others():
    registry = make_registry()
    registry.update_class(9, pos_distances=(0.5,))
    touched = registry.batch_update(batch_of([(3, 0.1, 1), (7, 0.3, 0), (3, 0.2, 0)]))
    assert touched == {3, 7}
    assert registry.get(9).v_plus == pytest.approx(0.5)


def test_batch_update_two_equivalents_match_worked_example():
    registry = make_registry(gamma=3.0)
    registry.batch_update(batch_of([(1, 0.3, 1), (1, 0.5, 1)]))
    assert registry.get(1).v_plus == pytest.approx(0.4, abs=1e-9)


def test_batch_update_empty_batch():
    with pytest.raises(EmptyBatchError):
        make_registry().batch_update(EmbeddedBatch([], [], np.zeros((0, 4)), np.zeros((0, 4))))


def test_batch_update_order_stable():
    batch = batch_of([(1, 0.3, 1), (1, 0.5, 1), (2, 0.7, 0)])
    a = make_registry(gamma=5.0)
    b = make_registry(gamma=5.0)
    a.batch_update(batch)
    b.batch_update(batch)
    assert a.get(1).v_plus == b.get(1).v_plus
    assert a.get(2).v_minus == b.get(2).v_minus


def roundtrip(registry):
    """The registry as a checkpoint stores it, JSON rows, read back."""
    return VergeRegistry.from_rows(registry.gamma, json.loads(json.dumps(registry.rows())))


def test_snapshot_roundtrip_empty():
    registry = make_registry(gamma=7.0)
    assert registry.rows() == []
    restored = roundtrip(registry)
    assert restored.states == {}
    assert restored.gamma == 7.0


def test_snapshot_roundtrip_partial_state():
    registry = make_registry(gamma=12.0)
    registry.update_class(5, pos_distances=(0.4,))
    assert json.dumps(registry.rows()) == "[[5, 0.4, null]]"
    restored = roundtrip(registry)
    assert restored.get(5).v_plus == 0.4
    assert restored.get(5).v_minus is None


def test_rows_roundtrip_keeps_a_verge_rounded_past_one():
    # the EMA of five distances 1.0 at gamma 5 rounds to 1 + 1 ulp
    registry = make_registry(gamma=5.0)
    registry.update_class(0, pos_distances=(1.0,) * 5)
    assert registry.get(0).v_plus > 1.0
    assert roundtrip(registry).states == registry.states


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_snapshot_roundtrip_randomized(seed):
    rng = np.random.default_rng(seed)
    registry = make_registry(gamma=float(rng.uniform(1.0, 40.0)))
    for cid in rng.permutation(int(rng.integers(0, 6))).tolist():
        pos = rng.uniform(size=rng.integers(0, 3)).tolist()
        neg = rng.uniform(size=rng.integers(0, 3)).tolist()
        registry.update_class(cid, pos, neg)
    assert [row[0] for row in registry.rows()] == sorted(registry.states)
    restored = roundtrip(registry)
    assert restored.gamma == registry.gamma
    assert restored.states == registry.states


MALFORMED_ROWS = [
    [0, math.nan, 0.5],
    [0, 5.0, None],
    [0, -0.1, None],
    [0, 1.5, None],
    [0, None, 1.0 + 1e-8],  # past the 1e-9 rounding tolerance
    [0, 1, None],  # a verge is a float, never a JSON int
    [0, True, None],
    [0, "0.5", None],
    [0.5, 0.1, 0.2],
    [True, 0.1, 0.2],
    [-1, 0.1, 0.2],
    [0, 0.1],
    [0, 0.1, 0.2, 0.3],
    "0\t0.1\t0.2",
]


def test_restore_rejects_malformed():
    for row in MALFORMED_ROWS:
        with pytest.raises(DeserializeError):
            VergeRegistry.from_rows(3.0, [[1, 0.1, 0.2], row])
    with pytest.raises(DeserializeError, match="repeated"):
        VergeRegistry.from_rows(3.0, [[0, 0.1, 0.2], [0, 0.3, 0.4]])
    for gamma in (0.5, math.nan):
        with pytest.raises(ConfigError):
            VergeRegistry.from_rows(gamma, [])
