"""Dataset manifest: one CSV row per clip.

Header: ``id,path,scene,device,parallel_group,split,feature_path``.
`scene` is empty for unlabeled target rows (target test rows keep their
label as evaluation-only ground truth); `parallel_group` is empty when the
row has no parallel counterpart.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

HEADER = ["id", "path", "scene", "device", "parallel_group", "split", "feature_path"]


@dataclass
class ManifestRow:
    id: str
    path: str = ""
    scene: str = ""
    device: str = ""
    parallel_group: str = ""
    split: str = "train"
    feature_path: str = ""

    def with_feature(self, feature_path):
        return replace(self, feature_path=str(feature_path))


def read_manifest(path) -> list[ManifestRow]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"manifest {path} missing columns: {sorted(missing)}")
        return [ManifestRow(**{k: row[k] for k in HEADER}) for row in reader]


def write_manifest(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows([getattr(r, k) for k in HEADER] for r in rows)
