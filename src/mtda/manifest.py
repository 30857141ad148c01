"""Dataset manifest: one CSV row per clip.

Header: ``id,path,scene,device,parallel_group,split,feature_path``.
`scene` is empty for unlabeled target rows (target test rows keep their
label as evaluation-only ground truth); `parallel_group` is empty when the
row has no parallel counterpart.
"""

from __future__ import annotations

import codecs
import csv
import io
from dataclasses import dataclass
from pathlib import Path

from mtda.errors import ContractError, write_csv

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


def read_manifest(path) -> list[ManifestRow]:
    """The rows of a UTF-8 manifest, which may start with a byte-order mark;
    blank lines are skipped. A header that misses or repeats a column, or a row
    that is not UTF-8, does not parse as CSV, has another field count than the header,
    or has a split other than train or test is a ContractError naming the file (and the line)."""
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw[: exc.start].count(b"\n") + 1
        raise ContractError(f"{path}: line {line} is not UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, start = [], 1  # start: the line the record being read begins on
    try:
        header = next(reader, [])
        start = reader.line_num + 1
        repeated = sorted({k for k in header if header.count(k) > 1})
        if repeated:
            raise ContractError(f"{path}: header repeats columns {repeated}")
        missing = set(HEADER) - set(header)
        if missing:
            raise ContractError(f"{path}: missing columns {sorted(missing)}")
        for fields in reader:
            start = reader.line_num + 1
            if not fields:
                continue
            if len(fields) != len(header):
                raise ContractError(
                    f"{path}: line {reader.line_num} has {len(fields)} fields, the header {len(header)}"
                )
            row = ManifestRow(**{k: v for k, v in zip(header, fields) if k in HEADER})
            if row.split not in ("train", "test"):
                raise ContractError(f"{path}: line {reader.line_num} has split {row.split!r}, not train or test")
            rows.append(row)
    except csv.Error as exc:  # a stray quote can make the rest of the file one field past csv's size limit
        raise ContractError(f"{path}: the record from line {start} does not parse: {exc}") from None
    return rows


def write_manifest(rows, path) -> None:
    write_csv(path, HEADER, ([getattr(r, k) for k in HEADER] for r in rows))
