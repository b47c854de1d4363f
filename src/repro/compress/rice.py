"""Rice/Golomb entropy coding of signed integer residuals.

Rice coding is the standard hardware-friendly entropy coder: a residual is
zigzag-mapped to an unsigned value u, split as q = u >> k and r = u & (2^k
- 1), and emitted as q '1' bits, a '0' terminator, and k remainder bits.
Encoding and decoding need no tables — only shifts and counters — which is
why data-compressive neural recording ICs use it.

Two implementations live here:

* the **packed codec** (:func:`rice_encode_packed` /
  :func:`rice_decode_packed`) — the production path.  It materializes the
  stream as a packed ``uint8`` array via fully vectorized NumPy bit
  construction, and is what :class:`repro.compress.NeuralCompressor` uses.
* the **string codec** (:func:`rice_encode` / :func:`rice_decode`) — the
  original transparent implementation, kept as the *test oracle*: the
  packed codec must produce bit-for-bit identical streams
  (``tests/compress/test_rice_packed.py`` proves it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Above this element count, `optimal_rice_parameter` folds the per-k cost
#: sums chunk-wise instead of broadcasting an (n, max_k+1) matrix.
_BROADCAST_LIMIT = 1 << 16


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values >= 0, 2 * values, -2 * values - 1).astype(
        np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Invert :func:`zigzag` (branch-free: ``(u >> 1) ^ -(u & 1)``)."""
    values = np.asarray(values, dtype=np.uint64).astype(np.int64)
    return (values >> 1) ^ -(values & 1)


def _rice_costs(unsigned: np.ndarray, max_k: int) -> np.ndarray:
    """Exact encoded length in bits for every k in [0, max_k].

    Integer arithmetic throughout (`u >> k`, like
    :func:`encoded_length_bits`) — float64 division would lose exactness
    for residuals beyond 2^53.
    """
    ks = np.arange(max_k + 1, dtype=np.uint64)
    if unsigned.size <= _BROADCAST_LIMIT:
        quotient_bits = (unsigned[None, :] >> ks[:, None]).sum(
            axis=1, dtype=np.uint64)
    else:
        quotient_bits = np.zeros(max_k + 1, dtype=np.uint64)
        for start in range(0, unsigned.size, _BROADCAST_LIMIT):
            chunk = unsigned[start:start + _BROADCAST_LIMIT]
            quotient_bits += (chunk[None, :] >> ks[:, None]).sum(
                axis=1, dtype=np.uint64)
    return quotient_bits + np.uint64(unsigned.size) * (1 + ks)


def optimal_rice_parameter(values: np.ndarray, max_k: int = 24) -> int:
    """Smallest-cost Rice parameter k for a residual block.

    Evaluates the exact encoded length for all candidate k in one array
    pass; ties break toward the smaller k (``argmin`` keeps the first
    minimum, matching the historical scalar scan).
    """
    unsigned = zigzag(values).ravel()
    if unsigned.size == 0:
        return 0
    return int(np.argmin(_rice_costs(unsigned, max_k)))


def optimal_rice_parameters(blocks: np.ndarray,
                            max_k: int = 24,
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel optimal k and encoded size for a 2-D residual block.

    Args:
        blocks: (channels, samples) signed residuals.
        max_k: largest candidate parameter.

    Returns:
        ``(k, bits)`` — per-channel optimal parameter (int64) and the
        exact encoded length at that parameter (int64), matching what
        :func:`optimal_rice_parameter` + :func:`encoded_length_bits` give
        channel by channel.
    """
    blocks = np.atleast_2d(np.asarray(blocks))
    if blocks.ndim != 2:
        raise ValueError("expected a (channels, samples) block")
    unsigned = zigzag(blocks)
    n_samples = blocks.shape[1]
    ks = np.arange(max_k + 1, dtype=np.uint64)
    # (channels, max_k+1, samples) >> folds to (channels, max_k+1).
    quotient_bits = (unsigned[:, None, :] >> ks[None, :, None]).sum(
        axis=2, dtype=np.uint64)
    costs = quotient_bits + np.uint64(n_samples) * (1 + ks)[None, :]
    best_k = np.argmin(costs, axis=1)
    best_bits = costs[np.arange(len(costs)), best_k].astype(np.int64)
    return best_k.astype(np.int64), best_bits


def rice_encode(values: np.ndarray, k: int) -> str:
    """Encode signed integers to a bit string with Rice parameter k.

    This is the reference implementation (and the parity oracle for the
    packed codec); hot paths use :func:`rice_encode_packed`.

    Raises:
        ValueError: for negative k.
    """
    if k < 0:
        raise ValueError("Rice parameter must be non-negative")
    pieces = []
    for u in zigzag(values):
        u = int(u)
        quotient, remainder = u >> k, u & ((1 << k) - 1)
        pieces.append("1" * quotient + "0" + format(remainder, f"0{k}b")
                      if k else "1" * quotient + "0")
    return "".join(pieces)


def rice_decode(bits: str, k: int, count: int) -> np.ndarray:
    """Decode ``count`` values from a Rice bit string (reference path).

    Raises:
        ValueError: on truncated input.
    """
    if k < 0:
        raise ValueError("Rice parameter must be non-negative")
    values = np.empty(count, dtype=np.uint64)
    pos = 0
    for i in range(count):
        quotient = 0
        while pos < len(bits) and bits[pos] == "1":
            quotient += 1
            pos += 1
        if pos >= len(bits):
            raise ValueError("truncated Rice stream (missing terminator)")
        pos += 1  # the '0' terminator
        remainder = 0
        if k:
            chunk = bits[pos:pos + k]
            if len(chunk) < k:
                raise ValueError("truncated Rice stream (missing remainder)")
            remainder = int(chunk, 2)
            pos += k
        values[i] = (quotient << k) | remainder
    return unzigzag(values)


#: Codewords per decoder checkpoint (see :class:`PackedBits.checkpoints`).
CHECKPOINT_INTERVAL = 64


def _zero_count_luts() -> tuple[np.ndarray, np.ndarray]:
    """(zeros per byte value, zeros before each bit offset of each byte
    value) — lookup tables behind the byte-granularity zero-rank index
    used by the lockstep decoder."""
    unpacked = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                             axis=1)  # (value, bit offset), MSB first
    is_zero = unpacked == 0
    per_byte = is_zero.sum(axis=1).astype(np.int64)
    before = np.zeros((256, 8), dtype=np.int64)
    before[:, 1:] = np.cumsum(is_zero, axis=1)[:, :-1]
    return per_byte, before.ravel()


_ZEROS_PER_BYTE, _ZEROS_BEFORE_BIT = _zero_count_luts()


@dataclass(frozen=True)
class PackedBits:
    """A bit stream packed MSB-first into a ``uint8`` payload.

    Attributes:
        payload: ``np.packbits`` output (final byte zero-padded).
        n_bits: number of valid bits in the payload.
        checkpoints: optional seek index — the bit offset of every
            :data:`CHECKPOINT_INTERVAL`-th codeword's start, recorded by
            :func:`rice_encode_packed` (where the offsets fall out of the
            encoding pass for free).  Metadata only: the payload is the
            complete stream, byte-identical with or without it.  When
            present, :func:`rice_decode_packed` decodes the checkpointed
            segments in lockstep instead of walking one serial codeword
            chain.
    """

    payload: np.ndarray
    n_bits: int
    checkpoints: np.ndarray | None = None

    def __len__(self) -> int:
        return self.n_bits

    def to_string(self) -> str:
        """The stream as a '0'/'1' string (parity tests / debugging)."""
        if self.n_bits == 0:
            return ""
        bits = np.unpackbits(self.payload)[:self.n_bits]
        return (bits + np.uint8(ord("0"))).tobytes().decode("ascii")


def pack_bitstring(bits: str) -> PackedBits:
    """Pack a '0'/'1' string into a :class:`PackedBits` stream."""
    if not bits:
        return PackedBits(np.empty(0, dtype=np.uint8), 0)
    array = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    if array.max(initial=0) > 1:
        raise ValueError("bit strings may contain only '0' and '1'")
    return PackedBits(np.packbits(array), len(bits))


def rice_encode_packed(values: np.ndarray, k: int) -> PackedBits:
    """Vectorized Rice encoder producing a packed ``uint8`` bit stream.

    Bit-for-bit identical to :func:`rice_encode` (the string oracle), but
    built with array operations: codeword offsets from a cumulative sum of
    lengths, then every bit is written by a vectorized scatter — the
    stream defaults to '1' (unary runs), terminators force a '0', and the
    k remainder bit-planes are assigned in k passes.

    Raises:
        ValueError: for negative k.
    """
    if k < 0:
        raise ValueError("Rice parameter must be non-negative")
    unsigned = zigzag(values).ravel()
    count = unsigned.size
    if count == 0:
        return PackedBits(np.empty(0, dtype=np.uint8), 0)
    quotients = (unsigned >> np.uint64(k)).astype(np.int64)
    lengths = quotients + (1 + k)
    total = int(lengths.sum())
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    np.cumsum(lengths[:-1], out=starts[1:])

    bits = np.ones(total, dtype=np.uint8)
    terminators = starts + quotients
    bits[terminators] = 0
    if k:
        remainders = (unsigned
                      & np.uint64((1 << k) - 1)).astype(np.int64)
        for j in range(k):  # MSB first
            bits[terminators + 1 + j] = (remainders >> (k - 1 - j)) & 1
    return PackedBits(np.packbits(bits), total,
                      checkpoints=starts[::CHECKPOINT_INTERVAL].copy())


def _chain_terminators(zeros: np.ndarray, k: int,
                       count: int) -> np.ndarray:
    """Terminator positions by walking the codeword chain serially.

    The fallback parse for streams without a checkpoint index: terminator
    positions are found by chaining a vectorized successor table over the
    zero-bit positions ("first zero at least k+1 bits further on").  The
    chain itself is inherently sequential — each codeword's start depends
    on the previous one's end.
    """
    # successor[m]: index (into `zeros`) of the first zero bit at least
    # 1 + k positions beyond zeros[m] — i.e. the next codeword's
    # terminator candidate once this codeword's remainder is skipped.
    successor = np.searchsorted(zeros, zeros + (1 + k))
    zero_list = zeros.tolist()
    successor_list = successor.tolist()
    chain: list[int] = []
    append = chain.append
    m = 0
    n_zeros = len(zero_list)
    for _ in range(count):
        if m >= n_zeros:
            raise ValueError("truncated Rice stream (missing terminator)")
        append(zero_list[m])
        m = successor_list[m]
    return np.array(chain, dtype=np.int64)


def _lockstep_terminators(zeros: np.ndarray, payload: np.ndarray,
                          n_bits: int, checkpoints: np.ndarray, k: int,
                          count: int) -> np.ndarray:
    """Terminator positions via the encoder's checkpoint index.

    Each checkpoint starts an independent segment of
    :data:`CHECKPOINT_INTERVAL` codewords, so all segments advance *in
    lockstep*: step ``j`` resolves codeword ``j`` of every segment at
    once — a byte-granularity rank index (zeros strictly before each bit
    position, from cumulative per-byte zero counts plus an in-byte LUT)
    turns "first zero at or after each segment's cursor" into a few
    array gathers.  The serial dependency shrinks from ``count``
    Python-level steps to :data:`CHECKPOINT_INTERVAL`.
    """
    interval = CHECKPOINT_INTERVAL
    lanes = checkpoints.size
    z = zeros.size
    padded = np.concatenate([payload, np.zeros(1, dtype=np.uint8)])
    byte_rank = np.zeros(padded.size, dtype=np.int64)
    np.cumsum(_ZEROS_PER_BYTE[payload], out=byte_rank[1:])
    cursors = checkpoints.astype(np.int64).copy()
    term = np.empty((interval, lanes), dtype=np.int64)
    for j in range(interval):
        # Lanes still inside the requested range at this step; later
        # lanes hold later codewords, so the active set is a prefix —
        # and lane order is stream order, so if any active lane has run
        # off the end of the stream, the last one has.
        active = min(lanes, (count - j + interval - 1) // interval)
        c = np.minimum(cursors, n_bits)
        byte = c >> 3
        found = (byte_rank[byte]
                 + _ZEROS_BEFORE_BIT[(padded[byte].astype(np.int64) << 3)
                                     + (c & 7)])
        if found[active - 1] >= z:
            raise ValueError(
                "truncated Rice stream (missing terminator)")
        positions = zeros[np.minimum(found, z - 1)]
        term[j] = positions
        cursors = positions + (1 + k)
    terminators = term.T.ravel()[:count]
    if np.any(np.diff(terminators) <= 0):
        raise ValueError("corrupt Rice checkpoint index")
    return terminators


def rice_decode_packed(stream: PackedBits, k: int,
                       count: int) -> np.ndarray:
    """Decode ``count`` values from a packed Rice stream.

    The interleaved layout (unary / terminator / remainder per codeword)
    is parsed without per-bit Python work.  Streams carrying the
    encoder's checkpoint index decode segment-parallel
    (:func:`_lockstep_terminators`); bare streams (e.g. from
    :func:`pack_bitstring`) fall back to the serial codeword chain
    (:func:`_chain_terminators`).  Quotients and remainder bit-planes
    then fall out as array gathers either way.

    Raises:
        ValueError: on negative k, a truncated stream, or a checkpoint
            index inconsistent with the payload.
    """
    if k < 0:
        raise ValueError("Rice parameter must be non-negative")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    payload = np.asarray(stream.payload, dtype=np.uint8)
    bits = np.unpackbits(payload)[:stream.n_bits]
    zeros = np.flatnonzero(bits == 0)
    if zeros.size == 0:
        raise ValueError("truncated Rice stream (missing terminator)")
    checkpoints = stream.checkpoints
    lanes_needed = (count + CHECKPOINT_INTERVAL - 1) // CHECKPOINT_INTERVAL
    if (checkpoints is not None and lanes_needed > 1
            and checkpoints.size >= lanes_needed):
        terminators = _lockstep_terminators(
            zeros, payload, stream.n_bits,
            np.asarray(checkpoints)[:lanes_needed], k, count)
    else:
        terminators = _chain_terminators(zeros, k, count)
    if terminators[-1] + 1 + k > bits.size:
        raise ValueError("truncated Rice stream (missing remainder)")

    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = terminators[:-1] + (1 + k)
    quotients = terminators - starts
    if np.any(quotients < 0):
        raise ValueError("corrupt Rice checkpoint index")
    unsigned = quotients.astype(np.uint64) << np.uint64(k)
    if 0 < k <= 24:
        # Remainders gathered as 4-byte windows straddling each field:
        # with k <= 24 and a bit offset of at most 7, offset + k <= 31
        # always fits a uint32 window.
        padded = np.concatenate([payload,
                                 np.zeros(4, dtype=np.uint8)])
        rem_start = terminators + 1
        byte0 = rem_start >> 3
        offset = (rem_start & 7).astype(np.uint32)
        window = ((padded[byte0].astype(np.uint32) << np.uint32(24))
                  | (padded[byte0 + 1].astype(np.uint32) << np.uint32(16))
                  | (padded[byte0 + 2].astype(np.uint32) << np.uint32(8))
                  | padded[byte0 + 3].astype(np.uint32))
        remainders = ((window >> (np.uint32(32 - k) - offset))
                      & np.uint32((1 << k) - 1))
        unsigned |= remainders.astype(np.uint64)
    elif k:
        remainders = np.zeros(count, dtype=np.int64)
        for j in range(k):  # MSB first
            remainders = (remainders << 1) | bits[terminators + 1 + j]
        unsigned |= remainders.astype(np.uint64)
    return unzigzag(unsigned)


def encoded_length_bits(values: np.ndarray, k: int) -> int:
    """Exact encoded size in bits without materializing the stream."""
    if k < 0:
        raise ValueError("Rice parameter must be non-negative")
    unsigned = zigzag(values)
    quotients = (unsigned >> np.uint64(k)).astype(np.int64)
    return int(np.sum(quotients) + unsigned.size * (1 + k))


#: Parity pairs checked by the parity tests (tests/test_source_rules.py
#: requires a test naming both sides of each): the packed bitstream
#: codec must agree with the string codec, which serves as the readable
#: reference implementation.
PARITY_ORACLES = {
    "rice_encode_packed": "rice_encode",
    "rice_decode_packed": "rice_decode",
}
