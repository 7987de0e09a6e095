"""EMLIO configuration knobs (paper §4, §5)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EMLIOConfig:
    """All tunables of the EMLIO pipeline.

    Attributes
    ----------
    batch_size:
        B — records per pre-batched payload (Algorithm 2).
    epochs:
        E — epochs planned ahead of time.
    hwm:
        Frames a receiver holds per stream — the ZMQ-style high-water mark
        of paper §4.5, which uses 16.  A frame holds its credit until its
        buffer is released; a TCP stream's credit window is ``hwm`` plus
        the link's measured bandwidth-delay product (see
        :mod:`repro.net.mq`).
    daemon_threads:
        T — parallel serialize+send workers per (daemon, target node).
        Figure 7 uses 1; Figure 8 shows concurrency 2 winning for 2 MB
        records.
    streams_per_node:
        Parallel TCP/MQ streams per (daemon, node) pair.
    prefetch:
        Q — receiver-side DALI prefetch queue depth (Algorithm 3).
    workers:
        Receiver-side preprocess lanes (the DALI-style pool).  Each
        takes the serial source in turn; >1 decodes/augments batches
        concurrently — sjpg/numpy release the GIL — with
        order-preserving reassembly on output.
    output_hw:
        Spatial size of preprocessed tensors.
    coverage:
        ``"partition"`` — each epoch's shards are split round-robin across
        compute nodes (DDP data-parallel semantics).
        ``"replicate"`` — every node receives every batch (Algorithm 2's
        literal "each node receives E x ceil(|D|/B) batches").
    seed:
        Shuffling seed (per-epoch shuffles derive from it).
    verify_reads:
        TFRecord CRC policy on the daemon's serve path.  The default
        ``True`` verifies every record as it is read — corruption must
        surface at read time, not as garbage tensors, even when a shard
        mutates mid-run.  Behind a hot-set cache, "as it is read" means
        as it leaves the tier: a block's first fetch is CRC-walked, a
        later fetch whose SHA-256 equals the seal kept from that walk is
        admitted on it (any other digest is CRC-walked again), and a cache
        hit is checked against the seal its block was admitted with.
        ``"open"`` verifies the whole shard once when its reader is
        first opened and then serves the hot loop without per-record CRC
        work (trusts storage to stay immutable after open); ``False``
        trusts the storage outright.
    transport:
        Daemon→receiver data path.  ``"tcp"`` (default) is the credit-based
        PUSH/PULL socket; ``"shm"`` forces the shared-memory ring transport
        (:mod:`repro.net.shm`), falling back to TCP when the attach
        handshake fails; ``"auto"`` attempts shm only for co-located,
        unshaped pairs and uses TCP otherwise.
    shm_ring_bytes:
        Data capacity of each shm ring.  Must hold the HWM worth of
        in-flight frames (roughly ``hwm × serialized batch size``, plus
        wrap slack) or the producer throttles on bytes before credits.
    max_open_shards:
        Cap on concurrently open shard handles per daemon (each localfs
        handle pins an fd + mmap).  Least-recently-used handles beyond
        the cap are closed; a re-touched shard simply reopens.
    """

    batch_size: int = 32
    epochs: int = 1
    hwm: int = 16
    daemon_threads: int = 1
    streams_per_node: int = 2
    prefetch: int = 2
    workers: int = 1
    output_hw: tuple[int, int] = (64, 64)
    coverage: str = "partition"
    seed: int = 0
    verify_reads: bool | str = True
    transport: str = "tcp"
    shm_ring_bytes: int = 8 * 1024 * 1024
    max_open_shards: int = 64

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.hwm < 1:
            raise ValueError(f"hwm must be >= 1, got {self.hwm}")
        if self.daemon_threads < 1:
            raise ValueError(f"daemon_threads must be >= 1, got {self.daemon_threads}")
        if self.streams_per_node < 1:
            raise ValueError(f"streams_per_node must be >= 1, got {self.streams_per_node}")
        if self.prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {self.prefetch}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.coverage not in ("partition", "replicate"):
            raise ValueError(f"coverage must be 'partition' or 'replicate', got {self.coverage!r}")
        if self.verify_reads not in (True, False, "open"):
            raise ValueError(
                f"verify_reads must be True, False, or 'open', got {self.verify_reads!r}"
            )
        if self.transport not in ("tcp", "shm", "auto"):
            raise ValueError(
                f"transport must be 'tcp', 'shm', or 'auto', got {self.transport!r}"
            )
        if self.shm_ring_bytes < 64 * 1024:
            raise ValueError(
                f"shm_ring_bytes must be >= 65536, got {self.shm_ring_bytes}"
            )
        if self.max_open_shards < 1:
            raise ValueError(
                f"max_open_shards must be >= 1, got {self.max_open_shards}"
            )
