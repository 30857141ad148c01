"""Domain distances from embedded parallel pairs, and integer domain indices.

The distance of a target device is the mean Euclidean norm between each of
its embedded points and the embedded source point from the same parallel
group. Targets are ranked by ascending distance; the rank (1-based) is the
device's domain index and the source device is fixed at index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mtda.errors import ContractError, check, read_json, write_json


@dataclass(frozen=True)
class DomainEntry:
    distance: float
    index: int


DomainIndexTable = dict[str, DomainEntry]


def domain_distance(pairs) -> float:
    """Mean Euclidean norm over (target_point, source_point) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ContractError("device has no parallel data")
    norms = [np.linalg.norm(np.asarray(a) - np.asarray(b)) for a, b in pairs]
    return float(np.mean(norms))


def assign_indices(distances: dict[str, float], source_device: str) -> DomainIndexTable:
    """Rank targets by ascending distance; ties break by device id."""
    if source_device in distances:
        raise ContractError("source device must not appear among target distances")
    table: DomainIndexTable = {source_device: DomainEntry(distance=0.0, index=0)}
    ranked = sorted(distances.items(), key=lambda kv: (kv[1], kv[0]))
    for rank, (device, dist) in enumerate(ranked, start=1):
        table[device] = DomainEntry(distance=float(dist), index=rank)
    return table


def pairs_from_embedding(embedding_points, rows, device: str, source_device: str):
    """Collect (target, source) embedded pairs for one device via parallel groups.

    `rows` aligns with `embedding_points` and needs `.device` and
    `.parallel_group` attributes.
    """
    source_by_group = {
        r.parallel_group: p
        for r, p in zip(rows, embedding_points)
        if r.device == source_device and r.parallel_group
    }
    pairs = []
    for r, p in zip(rows, embedding_points):
        if r.device == device and r.parallel_group in source_by_group:
            pairs.append((p, source_by_group[r.parallel_group]))
    return pairs


def index_table_payload(table: DomainIndexTable) -> dict:
    """The JSON form of a table, as saved and as recorded in run.json."""
    return {dev: {"distance": e.distance, "index": e.index} for dev, e in table.items()}


def save_index_table(table: DomainIndexTable, path) -> None:
    write_json(path, index_table_payload(table))


def load_index_table(path) -> DomainIndexTable:
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ContractError(f"index table {path} must be a JSON object keyed by device")
    table = {}
    for dev, v in payload.items():
        try:
            distance, index = v["distance"], v["index"]
        except (KeyError, TypeError):
            raise ContractError(
                f"index table {path}: device {dev} needs a numeric distance and index, got {v!r}"
            ) from None
        table[dev] = DomainEntry(
            index=check(f"index table {path}: device {dev} index", index, int),
            distance=float(check(f"index table {path}: device {dev} distance", distance, float)),
        )
    return table
