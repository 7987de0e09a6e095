"""Serialization: a from-scratch MessagePack codec and batch payload schema.

The paper streams pre-batched samples as msgpack payloads over TCP (§4.1).
:mod:`repro.serialize.msgpack` implements the MessagePack specification
(the subset covering every type records, storage-server messages and
batch meta use, in all width variants);
:mod:`repro.serialize.payload` defines the batch payload schema exchanged
between the storage-side daemon and the compute-side receiver: a fixed
binary header around the columnar sample vectors.
"""

from repro.serialize.msgpack import packb, unpackb
from repro.serialize.payload import (
    BatchPayload,
    decode_batch,
    encode_batch,
    encode_batch_parts,
)

__all__ = [
    "packb",
    "unpackb",
    "BatchPayload",
    "encode_batch",
    "encode_batch_parts",
    "decode_batch",
]
