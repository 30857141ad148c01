"""Tests for domain distance and domain-index assignment."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtda.errors import ContractError
from mtda.geometry import (
    DomainEntry,
    assign_indices,
    domain_distance,
    load_index_table,
    save_index_table,
)


class TestDomainDistance:
    def test_identical_pairs_zero(self):
        pairs = [((1.0, 2.0), (1.0, 2.0)), ((0.0, 0.0), (0.0, 0.0))]
        assert domain_distance(pairs) == 0.0

    def test_hand_example(self):
        pairs = [((0.0, 0.0), (0.0, 1.0)), ((2.0, 0.0), (2.0, 2.0))]
        assert domain_distance(pairs) == pytest.approx(1.5, abs=1e-15)

    def test_doubling_coordinates_doubles_distance(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(6)]
        doubled = [(2 * a, 2 * b) for a, b in pairs]
        assert domain_distance(doubled) == pytest.approx(2 * domain_distance(pairs), rel=1e-12)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ContractError, match="no parallel data"):
            domain_distance([])

    def test_permutation_and_duplication_invariance(self):
        rng = np.random.default_rng(1)
        pairs = [(rng.normal(size=2), rng.normal(size=2)) for _ in range(5)]
        shuffled = [pairs[i] for i in rng.permutation(5)]
        assert domain_distance(shuffled) == pytest.approx(domain_distance(pairs), rel=1e-12)
        assert domain_distance(pairs + pairs) == pytest.approx(domain_distance(pairs), rel=1e-12)


class TestAssignIndices:
    def test_ranking(self):
        table = assign_indices({"B": 0.5, "C": 1.1, "S1": 2.3}, source_device="A")
        assert {d: e.index for d, e in table.items()} == {"A": 0, "B": 1, "C": 2, "S1": 3}
        assert table["A"].distance == 0.0
        assert table["C"].distance == 1.1

    def test_ties_follow_device_id_order(self):
        table = assign_indices({"C": 1.0, "B": 1.0, "D": 1.0}, source_device="A")
        assert [table[d].index for d in ["B", "C", "D"]] == [1, 2, 3]

    def test_source_among_targets_rejected(self):
        with pytest.raises(ContractError):
            assign_indices({"A": 0.3}, source_device="A")

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["B", "C", "S1", "S2", "S3"]),
            st.floats(min_value=1e-6, max_value=1e6),
            min_size=1,
            max_size=5,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_positive_rescaling_invariance(self, distances, factor):
        base = assign_indices(distances, source_device="A")
        scaled = assign_indices({d: v * factor for d, v in distances.items()}, source_device="A")
        assert {d: e.index for d, e in base.items()} == {d: e.index for d, e in scaled.items()}

    def test_indices_are_permutation_consistent_with_distance(self):
        rng = np.random.default_rng(2)
        distances = {f"D{i}": float(rng.uniform(0, 10)) for i in range(6)}
        table = assign_indices(distances, source_device="SRC")
        entries = [e for d, e in table.items() if d != "SRC"]
        assert sorted(e.index for e in entries) == list(range(1, 7))
        by_index = sorted(entries, key=lambda e: e.index)
        assert all(a.distance <= b.distance for a, b in zip(by_index, by_index[1:]))


def test_json_round_trip(tmp_path):
    table = assign_indices({"B": 0.4, "C": 2.0}, source_device="A")
    path = tmp_path / "index.json"
    save_index_table(table, path)
    loaded = load_index_table(path)
    assert loaded == table
    assert loaded["A"] == DomainEntry(distance=0.0, index=0)


@pytest.mark.parametrize(
    "entry, expect",
    [
        ({"distance": 0.4, "index": 1.7}, "device B index must be an integer, got 1.7"),
        ({"distance": 0.4, "index": 1.0}, "device B index must be an integer, got 1.0"),
        ({"distance": 0.4, "index": True}, "device B index must be an integer, got True"),
        ({"distance": 0.4, "index": "1"}, "device B index must be an integer, got '1'"),
        ({"distance": float("nan"), "index": 1}, "device B distance must be a finite number, got nan"),
        ({"distance": float("inf"), "index": 1}, "device B distance must be a finite number, got inf"),
        ({"distance": False, "index": 1}, "device B distance must be a finite number, got False"),
        ({"distance": "0.4", "index": 1}, "device B distance must be a finite number, got '0.4'"),
        ({"index": 1}, "device B needs a numeric distance and index"),
        ([0.4, 1], "device B needs a numeric distance and index"),
    ],
    ids=["fraction", "float-integral", "bool-index", "string-index", "nan", "infinity", "bool-distance",
         "string-distance", "no-distance", "not-an-object"],
)
def test_load_rejects_non_strict_entry(entry, expect, tmp_path):
    path = tmp_path / "index.json"
    path.write_text(json.dumps({"A": {"distance": 0.0, "index": 0}, "B": entry}))
    with pytest.raises(ContractError, match=re.escape(expect)):
        load_index_table(path)


def test_load_keeps_integral_distance(tmp_path):
    path = tmp_path / "index.json"
    path.write_text('{"A": {"distance": 0, "index": 0}, "B": {"distance": 2, "index": 1}}')
    assert load_index_table(path) == {"A": DomainEntry(0.0, 0), "B": DomainEntry(2.0, 1)}
