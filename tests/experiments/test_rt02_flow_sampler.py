"""rt02's flow sampler against the full greedy ordering it shortcuts.

``_sample_flows`` stops after ``flow_count`` greedy picks.  The reference
below orders *every* pair the way the sampler once did and keeps a prefix;
the two must agree exactly, tie-breaks included, or rt02's flows (and every
byte downstream of them) would move.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.experiments import rt02_overhead_scaling as rt02
from repro.experiments.rt02_overhead_scaling import _grid_hops, _sample_flows

FLOW_COUNTS = (1, 2, 4, 6)


def _full_greedy_order(node_indices, seed: int,
                       grid_side: int) -> List[Tuple[int, int]]:
    """Test-only reference: greedily order all pairs, O(pairs²) key calls.

    The sampler's former body, with hop distances looked up from a table so
    the 7x7 case stays affordable; the arithmetic is unchanged.
    """
    pairs = [(a, b) for a in node_indices for b in node_indices if a != b]
    rng = random.Random(99991 * seed + 7)  # lint: disable=RPR001 -- mirrors the sampler's own seeded stream
    rng.shuffle(pairs)
    hops = {pair: _grid_hops(pair, grid_side) for pair in pairs}
    target = sum(hops[pair] for pair in pairs) / len(pairs)
    ordered: List[Tuple[int, int]] = []
    total_hops = 0
    while pairs:
        best = min(pairs, key=lambda pair: abs(
            (total_hops + hops[pair]) / (len(ordered) + 1) - target))
        pairs.remove(best)
        ordered.append(best)
        total_hops += hops[best]
    return ordered


@pytest.mark.parametrize("grid_side", range(2, 8))
def test_sampler_equals_prefix_of_full_greedy_ordering(grid_side):
    nodes = list(range(1, grid_side * grid_side + 1))
    for seed in range(1, 6):
        reference = _full_greedy_order(nodes, seed, grid_side)
        for flow_count in FLOW_COUNTS:
            if flow_count > len(reference):
                continue
            assert (_sample_flows(nodes, flow_count, seed, grid_side)
                    == reference[:flow_count]), (grid_side, seed, flow_count)


@pytest.mark.parametrize("grid_side", (2, 3, 7))
def test_flow_sets_are_prefix_nested(grid_side):
    nodes = list(range(1, grid_side * grid_side + 1))
    for seed in range(1, 6):
        previous = _sample_flows(nodes, 1, seed, grid_side)
        for flow_count in range(2, 7):
            current = _sample_flows(nodes, flow_count, seed, grid_side)
            assert current[:-1] == previous
            previous = current


def test_hop_distance_is_computed_once_per_pair(monkeypatch):
    grid_side = 7
    nodes = list(range(1, grid_side * grid_side + 1))
    calls = []

    def counting_grid_hops(pair, side):
        calls.append(pair)
        return _grid_hops(pair, side)

    monkeypatch.setattr(rt02, "_grid_hops", counting_grid_hops)
    flows = _sample_flows(nodes, 6, 1, grid_side)
    pair_count = len(nodes) * (len(nodes) - 1)
    assert len(flows) == 6
    assert len(calls) == pair_count
    assert len(set(calls)) == pair_count


def test_too_many_flows_is_rejected():
    with pytest.raises(rt02.ExperimentError):
        _sample_flows([1, 2], 3, 1, 2)
