"""Property tests for the pure parts of the serving core.

The pull-based batching policy (``MicroBatcher``) is deliberately pure (no
clock, no asyncio), so hypothesis can drive it through arbitrary
interleavings of ``add`` and ``take`` and prove the laws the service
relies on:

- nothing is lost and nothing is duplicated: every added item comes out of
  exactly one batch (unless explicitly removed, in which case of none);
- no batch exceeds ``max_batch_size``, and every batch is key-homogeneous;
- oldest first: a batch starts with the oldest item held, holds its key's
  oldest items in arrival order, and is full whenever its key held enough;
- no starvation: an item is taken within one take per item held ahead of
  it, however busy the other keys stay;
- the same event sequence always produces the identical batch sequence.

The telemetry ``Histogram`` must report percentiles inside the observed
range and monotone in the quantile.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.batcher import Batch, MicroBatcher
from repro.serve.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    Histogram,
)

KEYS = ("alpha", "beta", "gamma")


@dataclasses.dataclass(frozen=True)
class Event:
    key: str
    take_before: bool  # a worker takes a batch before this add


events_st = st.lists(
    st.builds(Event, key=st.sampled_from(KEYS), take_before=st.booleans()),
    max_size=60,
)

max_batch_st = st.integers(min_value=1, max_value=5)


@dataclasses.dataclass
class Taken:
    batch: Batch[str, int]
    held_before: dict[str, list[int]]  # per key, in arrival order


def run_schedule(max_batch_size: int, events: list[Event]) -> list[Taken]:
    """Feed the events through a fresh batcher; drain at the end.

    Each take is recorded with what was held just before it, mirrored
    outside the batcher so the laws can be checked against it.
    """
    batcher: MicroBatcher[str, int] = MicroBatcher(max_batch_size)
    held: dict[str, list[int]] = {key: [] for key in KEYS}
    taken: list[Taken] = []

    def take() -> None:
        before = {key: list(items) for key, items in held.items()}
        batch = batcher.take()
        if batch is None:
            assert not any(before.values())
            return
        taken.append(Taken(batch, before))
        del held[batch.key][:len(batch)]

    for item_id, event in enumerate(events):
        if event.take_before:
            take()
        batcher.add(event.key, item_id)
        held[event.key].append(item_id)
    while any(held.values()):
        take()
    assert batcher.take() is None
    assert batcher.drain() == []
    assert batcher.pending_count() == 0
    return taken


@given(max_batch_size=max_batch_st, events=events_st)
@settings(max_examples=200, deadline=None)
def test_no_item_lost_or_duplicated(max_batch_size, events):
    taken = run_schedule(max_batch_size, events)
    delivered = [item for t in taken for item in t.batch.items]
    assert sorted(delivered) == list(range(len(events)))


@given(max_batch_size=max_batch_st, events=events_st)
@settings(max_examples=200, deadline=None)
def test_batch_invariants(max_batch_size, events):
    for t in run_schedule(max_batch_size, events):
        batch = t.batch
        assert 1 <= len(batch) <= max_batch_size
        assert {events[item].key for item in batch.items} == {batch.key}


@given(max_batch_size=max_batch_st, events=events_st)
@settings(max_examples=200, deadline=None)
def test_oldest_key_first_in_arrival_order(max_batch_size, events):
    for t in run_schedule(max_batch_size, events):
        oldest = min(items[0] for items in t.held_before.values() if items)
        key_held = t.held_before[t.batch.key]
        assert t.batch.items[0] == oldest
        # The key's oldest items, in order; full whenever enough were held.
        assert list(t.batch.items) == key_held[:max_batch_size]


@given(max_batch_size=max_batch_st, events=events_st)
@settings(max_examples=200, deadline=None)
def test_minority_key_is_not_starved(max_batch_size, events):
    # Every take hands out the oldest held item, so an item waits for at
    # most one take per item held ahead of it.
    taken = run_schedule(max_batch_size, events)
    taken_at = {item: index for index, t in enumerate(taken)
                for item in t.batch.items}
    for index, t in enumerate(taken):
        held = sorted(item for items in t.held_before.values()
                      for item in items)
        for ahead, item in enumerate(held):
            assert taken_at[item] - index <= ahead


def test_majority_burst_cannot_starve_a_lone_request():
    batcher: MicroBatcher[str, int] = MicroBatcher(max_batch_size=2)
    batcher.add("busy", 0)
    batcher.add("lone", 1)
    for item in range(2, 12):
        batcher.add("busy", item)
    first = batcher.take()
    assert first is not None and first.items == (0, 2)
    # The busy key's remainder starts at item 3, younger than item 1.
    second = batcher.take()
    assert second is not None and second.items == (1,)


@given(max_batch_size=max_batch_st, events=events_st)
@settings(max_examples=100, deadline=None)
def test_schedule_is_deterministic(max_batch_size, events):
    first = [t.batch for t in run_schedule(max_batch_size, events)]
    second = [t.batch for t in run_schedule(max_batch_size, events)]
    assert first == second


@given(
    max_batch_size=max_batch_st,
    events=events_st,
    removal_mask=st.lists(st.booleans(), max_size=60),
)
@settings(max_examples=100, deadline=None)
def test_removed_items_are_never_flushed(max_batch_size, events,
                                         removal_mask):
    batcher: MicroBatcher[str, int] = MicroBatcher(max_batch_size)
    taken: list[Batch[str, int]] = []
    removed: set[int] = set()
    for item_id, event in enumerate(events):
        if event.take_before and (batch := batcher.take()) is not None:
            taken.append(batch)
        batcher.add(event.key, item_id)
        if item_id < len(removal_mask) and removal_mask[item_id]:
            # Still held: cancel it (a caller giving up before execution).
            assert batcher.remove(event.key, item_id)
            removed.add(item_id)
    taken.extend(batcher.drain())
    delivered = [item for batch in taken for item in batch.items]
    assert sorted(delivered) == sorted(set(range(len(events))) - removed)
    for batch in taken:
        assert len(batch) >= 1


def test_remove_unknown_item_is_a_noop():
    batcher: MicroBatcher[str, int] = MicroBatcher(max_batch_size=4)
    assert not batcher.remove("alpha", 0)
    batcher.add("alpha", 1)
    assert not batcher.remove("alpha", 2)
    assert not batcher.remove("beta", 1)
    assert batcher.pending_count() == 1


def test_remainder_keeps_its_age_priority():
    batcher: MicroBatcher[str, int] = MicroBatcher(max_batch_size=2)
    for item, key in enumerate(["alpha", "alpha", "alpha", "beta"]):
        batcher.add(key, item)
    assert [(b.key, b.items) for b in batcher.drain()] == [
        ("alpha", (0, 1)), ("alpha", (2,)), ("beta", (3,)),
    ]


@given(
    bounds=st.sampled_from([LATENCY_BUCKETS_S, BATCH_SIZE_BUCKETS]),
    values=st.lists(st.floats(min_value=0.0, max_value=500.0,
                              allow_nan=False),
                    min_size=1, max_size=40),
    quantiles=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=1, max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_percentiles_stay_in_observed_range_and_are_monotone(bounds, values,
                                                             quantiles):
    histogram = Histogram("h", bounds)
    for value in values:
        histogram.observe(value)
    estimates = [histogram.percentile(q) for q in sorted(quantiles)]
    for estimate in estimates:
        assert min(values) <= estimate <= max(values)
    assert estimates == sorted(estimates)
    assert histogram.percentile(0.0) == min(values)
    assert histogram.percentile(1.0) == max(values)


def test_percentiles_of_a_tight_cluster_stay_inside_it():
    histogram = Histogram("latency", LATENCY_BUCKETS_S)
    for value in (0.101, 0.102, 0.103):
        histogram.observe(value)
    assert 0.101 <= histogram.percentile(0.50) <= 0.103
    assert 0.101 <= histogram.percentile(0.99) <= 0.103
