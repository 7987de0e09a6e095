"""Text/LLM workload support (paper §6 future work: "extending EMLIO
beyond TFRecord to support ... text for LLM training").

Token-sequence records use a tiny framed format ("TOK0"): little-endian
uint32 token ids with a fixed header, so the GPU pipeline can route them
through the same decode dispatch as images and RAW records.  The generator
produces Zipf-distributed token ids in variable-length documents packed to
a fixed context length — the standard LLM pretraining sample shape.
"""

from __future__ import annotations

import struct
from typing import Iterator

import numpy as np

_MAGIC = b"TOK0"
_HDR = struct.Struct(">4sI")
_TOKEN_DTYPE = np.dtype("<u4")


def tokens_encode(tokens: np.ndarray) -> bytes:
    """Encode a 1-D int array of token ids as a TOK0 record."""
    arr = np.ascontiguousarray(tokens, dtype=_TOKEN_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"tokens must be 1-D, got shape {arr.shape}")
    return _HDR.pack(_MAGIC, arr.size) + arr.tobytes()


def tokens_view(data) -> np.ndarray:
    """The token ids of a TOK0 record as a read-only view over ``data``,
    after checking its header and length."""
    if len(data) < _HDR.size:
        raise ValueError("TOK0 data too short for header")
    magic, count = _HDR.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"bad TOK0 magic: {magic!r}")
    if len(data) - _HDR.size != 4 * count:
        raise ValueError(
            f"TOK0 length mismatch: header {count} tokens, body {len(data) - _HDR.size} bytes"
        )
    return np.frombuffer(data, _TOKEN_DTYPE, count, _HDR.size)


def tokens_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`tokens_encode`."""
    return tokens_view(data).copy()


class SyntheticTokenDataset:
    """Zipf-distributed token streams packed to a fixed context length.

    Yields ``(encoded_record_bytes, label)`` pairs like the image
    generators; the "label" is the first token of the continuation (a
    next-token-prediction target), keeping the loader interface uniform.
    """

    def __init__(
        self,
        n: int,
        context_len: int = 2048,
        vocab_size: int = 32_000,
        zipf_a: float = 1.2,
        seed: int = 0,
    ) -> None:
        if n < 1:
            raise ValueError(f"dataset must have >= 1 sample, got {n}")
        if context_len < 2:
            raise ValueError(f"context_len must be >= 2, got {context_len}")
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        if zipf_a <= 1.0:
            raise ValueError(f"zipf_a must be > 1, got {zipf_a}")
        self.n = n
        self.context_len = context_len
        self.vocab_size = vocab_size
        self.zipf_a = zipf_a
        self.seed = seed

    def __len__(self) -> int:
        return self.n

    @property
    def sample_bytes(self) -> int:
        """Encoded record size (fixed: header + 4 bytes/token)."""
        return _HDR.size + 4 * self.context_len

    def __iter__(self) -> Iterator[tuple[bytes, int]]:
        rng = np.random.default_rng(self.seed)
        for _ in range(self.n):
            # Zipf draws can exceed the vocab; clamp into range (rank-capped
            # sampling, the usual trick for bounded-vocab Zipf).
            tokens = rng.zipf(self.zipf_a, size=self.context_len + 1)
            tokens = np.minimum(tokens, self.vocab_size) - 1  # 0-based ids
            context = tokens[: self.context_len].astype(np.uint32)
            target = int(tokens[self.context_len])
            yield tokens_encode(context), target
