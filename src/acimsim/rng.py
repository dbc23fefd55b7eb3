"""Counter-based random streams keyed by simulation coordinates.

Every stochastic operation derives its draws from (seed, RngContext, source tag)
alone, so results never depend on call order or worker scheduling. Readout
noise has one stream address: a read's position in a StreamTable, which keys
the streams of many RngContexts in one vectorized pass and draws them with
the bytes of `stream`. RngContexts are built only for level hooks
(StreamTable.contexts) and for one-off `stream` draws.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, check_int

# Source tags keep independent noise sources statistically independent even
# when they share the same simulation coordinates.
TAG_RANDOM = 0
TAG_NONLIN = 1
TAG_NAT = 2
TAG_DATA = 3


@dataclass(frozen=True)
class RngContext:
    """Coordinates of one stochastic event inside a simulation run.

    Vectorized operations draw one value per element of their level array in
    flat C order, so an element's draw is a pure function of (context, flat
    position); `column` and `sample` disambiguate scalar call sites and
    oversampled readouts.
    """

    layer: int = 0
    tile: int = 0
    w_bit: int = 0
    act_group: int = 0
    column: int = 0
    sample: int = 0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            check_int(getattr(self, field.name), field.name, DomainError, 0)

    def key(self) -> tuple:
        return (self.layer, self.tile, self.w_bit, self.act_group,
                self.column, self.sample)


def stream(seed: int, ctx: RngContext, tag: int) -> np.random.Generator:
    """Return the deterministic generator for (seed, ctx, tag).

    Philox is counter based: distinct spawn keys give independent streams and
    identical keys replay identical draws, independent of thread schedule.
    """
    check_int(seed, "seed", DomainError, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, *ctx.key()))
    return np.random.Generator(np.random.Philox(ss))


def normal(table: "StreamTable", rows, tag: int, shape) -> np.ndarray:
    """Standard-normal draws of `tag`, C-order over `shape`: row r holds the
    draws of read position rows[r] of `table`, the bytes of
    `stream(table.seed, table.contexts([rows[r]])[0], tag)`."""
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    if not shape or shape[0] != len(rows):
        raise ShapeError(f"{len(rows)} stream rows for draw shape {shape}")
    out = np.empty(shape)
    # iterating a 2-D view yields row arrays; a 1-D one would yield scalars
    per_row = out.reshape(shape[0], math.prod(shape[1:]))
    for gen, row in zip(table.generators(rows, tag), per_row):
        gen.standard_normal(out=row)
    return out


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx). Hash call k
# xors its input with the k-th running hash constant and multiplies it by the
# next one; the constants do not depend on the data, so they are tabulated.
# The mixing helpers take uint32 arrays, whose arithmetic wraps mod 2^32.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SPAWN_FIELDS = ("tag", *(f.name for f in dataclasses.fields(RngContext)))


def _hash_consts(init: int, mult: int, count: int) -> list:
    """The first `count` running hash constants init * mult^k mod 2^32."""
    out = [init]
    while len(out) < count:
        out.append((out[-1] * mult) & _MASK32)
    return out


def _hashmix(value, c_in, c_out):
    value = (value ^ c_in) * c_out
    return value ^ (value >> 16)


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _spawn_words(spawn, fields=_SPAWN_FIELDS) -> np.ndarray:
    """Spawn rows as uint32 [N, W]; DomainError names a word outside 2^32
    by its entry in `fields`."""
    try:
        arr = np.array(spawn, dtype=np.int64)
        bad = arr.size and (arr.min() < 0 or arr.max() > _MASK32)
    except OverflowError:
        bad = True
    if bad:
        j = next(j for row in spawn for j, w in enumerate(row)
                 if not 0 <= w <= _MASK32)
        name = fields[j] if j < len(fields) else f"word {j}"
        raise DomainError(f"spawn {name} must lie in [0, 2^32)")
    if arr.size == 0:
        return np.zeros((len(arr), 0), dtype=np.uint32)
    if arr.ndim != 2:
        raise DomainError(
            f"spawn must be [rows, words], got shape {arr.shape}")
    return arr.astype(np.uint32)


def philox_keys(seed: int, spawn) -> np.ndarray:
    """Philox keys of `SeedSequence(seed, spawn_key=row)` for every row.

    numpy mixes a row's spawn words into the pool after the seed's words, so
    the pool of `SeedSequence(seed)` is every row's start, and the spawn
    words mix in vectorized over rows. Returns uint64 [N, 2], row i equal to
    `SeedSequence(seed, spawn_key=spawn[i]).generate_state(2, np.uint64)`,
    the key `Philox(SeedSequence(...))` uses. Every spawn word must lie in
    [0, 2^32); numpy would split a larger one into several words.
    """
    seed = check_int(seed, "seed", DomainError, 0)
    words = _spawn_words(spawn)
    pool = np.random.SeedSequence(seed).pool[:, None]
    # numpy took 16 hash calls to fill the pool with the seed's n 32-bit
    # words (zero-padded to 4) and cross-mix it, then 4 calls for each later
    # seed word; the spawn words take the hash constants from there on
    n = max(1, -(-seed.bit_length() // 32))
    k = _POOL * (_POOL + max(0, n - _POOL))
    a = np.array(_hash_consts(_INIT_A, _MULT_A, k + _POOL * words.shape[1] + 1),
                 dtype=np.uint32)[:, None]
    for word in words.T:   # one [4, N] step per word
        pool = _mix(pool, _hashmix(word, a[k:k + _POOL],
                                   a[k + 1:k + _POOL + 1]))
        k += _POOL
    # generate_state(2, uint64): four uint32 words, paired little-endian
    b = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL + 1),
                 dtype=np.uint32)[:, None]
    state = _hashmix(pool, b[:-1], b[1:]).astype(np.uint64)
    keys = (state[0::2] | (state[1::2] << 32)).T
    return np.ascontiguousarray(np.broadcast_to(keys, (words.shape[0], 2)))


class StreamTable:
    """The Philox streams of every tag and read, keyed at once, addressed by
    read position.

    `reads` holds one RngContext key per row, int [N, 6]; read i draws tag
    t from the stream `stream` keys with (t, *reads[i]). One Philox serves
    every draw: `generators` sets its key to the row's, its counter to 0 and
    its buffer to empty, the state a fresh Philox(SeedSequence(seed,
    spawn_key=row)) starts in. It is mutable, so a table is one thread's.
    The state setter copies every field and converts Python ints in less
    than half the time of numpy uint64s, so the state holds Python ints and
    a call's keys leave the uint64 table through one tolist.
    """

    def __init__(self, seed: int, tags, reads):
        self.seed, self.tags = seed, list(tags)
        words = _spawn_words(reads, _SPAWN_FIELDS[1:])
        self.reads = words.reshape(len(words), 6)
        # int64, so philox_keys names a tag outside 2^32
        spawn = np.empty((len(self.reads), len(self.tags), 7), dtype=np.int64)
        spawn[..., 0] = self.tags
        spawn[..., 1:] = self.reads[:, None]
        spawn = spawn.reshape(-1, 7)
        self._keys = philox_keys(seed, spawn)
        if len(spawn):
            # exactness: the vectorized hash must reproduce numpy's
            row = tuple(spawn[0].tolist())
            want = np.random.SeedSequence(seed, spawn_key=row) \
                .generate_state(2, np.uint64)
            if not np.array_equal(self._keys[0], want):
                raise RuntimeError(
                    f"philox_keys {self._keys[0]} != SeedSequence {want} "
                    f"for seed {seed}, spawn {row}")
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        zero = [0] * 4
        self._key = {"counter": zero, "key": None}
        self._state = {"bit_generator": "Philox", "state": self._key,
                       "buffer": zero, "buffer_pos": 4, "has_uint32": 0,
                       "uinteger": 0}

    def contexts(self, rows) -> list:
        """The RngContext of each read position in `rows`."""
        return [RngContext(*key) for key in self.reads[rows].tolist()]

    def generators(self, rows, tag: int):
        """The shared generator, set in turn to the start of the stream of
        `tag` of each read position in `rows`, a range or int sequence."""
        if tag not in self.tags:
            raise KeyError(f"no tag {tag} in this table")
        # read i, tag j is key row i * len(tags) + j
        n, j = len(self.tags), self.tags.index(tag)
        if isinstance(rows, range):   # a strided slice, no index array
            last = len(self.reads) - 1
            if rows and not (0 <= rows[0] <= last and 0 <= rows[-1] <= last):
                raise IndexError(f"read positions {rows} outside the "
                                 f"table's {len(self.reads)}")
            keys = self._keys[rows.start * n + j::rows.step * n][:len(rows)]
        else:
            rows = np.asarray(rows, dtype=np.intp)
            if rows.size and rows.min() < 0:   # indexing rejects the rest
                raise IndexError(f"negative read position {rows.min()}")
            keys = self._keys[rows * n + j]
        for key in keys.tolist():
            self._key["key"] = key
            self._bitgen.state = self._state
            yield self._gen
