"""Shard index files: ``mapping_shard_*.json``.

Algorithm 2 line 1 loads per-shard index files mapping each record to its
``(offset, size, label)``; the planner builds the global label map and batch
plan from these without ever touching record bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

_INDEX_RE = re.compile(r"mapping_(?P<shard>shard_\d+)\.json$")


@dataclass(frozen=True)
class RecordEntry:
    """One record's location inside a shard: framed offset/size + label."""

    offset: int
    size: int
    label: int


@dataclass(frozen=True)
class ShardIndex:
    """Index of one TFRecord shard."""

    shard: str  # e.g. "shard_00003"
    path: str  # shard file path relative to the dataset root
    entries: tuple[RecordEntry, ...]

    def __post_init__(self) -> None:
        _validate_path(self.shard, self.path)
        _validate_entries(self.shard, self.entries)

    @property
    def num_records(self) -> int:
        """Records in this shard."""
        return len(self.entries)

    @property
    def nbytes(self) -> int:
        """Total framed bytes covered by this index."""
        return sum(e.size for e in self.entries)

    def contiguous_runs(self, batch_size: int) -> list[tuple[int, int, int]]:
        """Split the shard into batch-aligned runs.

        Returns ``(start_record, offset, nbytes)`` per run of up to
        ``batch_size`` consecutive records — the unit the daemon reads with
        one mmap slice.
        """
        runs = []
        for start in range(0, len(self.entries), batch_size):
            chunk = self.entries[start : start + batch_size]
            runs.append((start, chunk[0].offset, sum(e.size for e in chunk)))
        return runs

    def to_json(self) -> str:
        """JSON object line for this event."""
        return json.dumps(
            {
                "shard": self.shard,
                "path": self.path,
                "records": [[e.offset, e.size, e.label] for e in self.entries],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ShardIndex":
        obj = json.loads(text)
        entries = tuple(RecordEntry(int(o), int(s), int(l)) for o, s, l in obj["records"])
        return cls(shard=obj["shard"], path=obj["path"], entries=entries)

    def save(self, root: str | Path) -> Path:
        out = Path(root) / f"mapping_{self.shard}.json"
        out.write_text(self.to_json())
        return out


def _validate_path(shard: str, path: str) -> None:
    # Index files are outside input, and the localfs tier opens
    # ``root / path`` as given: the path must name a file under the root.
    rel = PurePosixPath(path) if isinstance(path, str) else PurePosixPath()
    if not rel.parts or rel.is_absolute() or ".." in rel.parts:
        raise ValueError(
            f"{shard}: shard path {path!r} must be a non-empty path relative "
            "to the dataset root, without '..'"
        )


def _validate_entries(shard: str, entries: tuple[RecordEntry, ...]) -> None:
    pos = 0
    for i, e in enumerate(entries):
        if e.offset != pos:
            raise ValueError(
                f"{shard}: record {i} offset {e.offset} != expected {pos} "
                "(index entries must be contiguous and sorted)"
            )
        if e.size <= 0:
            raise ValueError(f"{shard}: record {i} has non-positive size {e.size}")
        pos += e.size


def load_shard_indexes(root: str | Path) -> list[ShardIndex]:
    """Load every ``mapping_shard_*.json`` under ``root``, sorted by shard."""
    root = Path(root)
    indexes = []
    for path in sorted(root.glob("mapping_shard_*.json")):
        m = _INDEX_RE.search(path.name)
        if not m:
            continue
        indexes.append(ShardIndex.from_json(path.read_text()))
    if not indexes:
        raise FileNotFoundError(f"no mapping_shard_*.json files under {root}")
    return indexes
