"""Counter-based random streams keyed by simulation coordinates.

Every stochastic operation derives its draws from (seed, RngContext, source tag)
alone, so results never depend on call order or worker scheduling. A
StreamTable keys many such streams in one vectorized pass and draws them
through one reused generator, with the same bytes as `stream`.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

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

    def key(self) -> tuple:
        return (self.layer, self.tile, self.w_bit, self.act_group,
                self.column, self.sample)


def stream(seed: int, ctx: RngContext, tag: int) -> np.random.Generator:
    """Return the deterministic generator for (seed, ctx, tag).

    Philox is counter based: distinct spawn keys give independent streams and
    identical keys replay identical draws, independent of thread schedule.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, *ctx.key()))
    return np.random.Generator(np.random.Philox(ss))


def normal(seed: int, ctx, tag: int, shape,
           table: "StreamTable | None" = None) -> np.ndarray:
    """Standard-normal draws for (seed, ctx, tag), C-order over `shape`.

    `ctx` is one RngContext, or a sequence of them, one per leading row of
    `shape`: row r then holds exactly the draws of
    `normal(seed, ctx[r], tag, shape[1:])`. With a `table` keyed for `seed`,
    the draws come from its rows; they are the same bytes either way.
    """
    if table is None:
        return _fill_rows(lambda c: stream(seed, c, tag), ctx, shape)
    if table.seed != seed:
        raise DomainError(
            f"stream table keyed for seed {table.seed}, not {seed}")
    return table.normal(ctx, tag, shape)


def _fill_rows(generator, ctx, shape) -> np.ndarray:
    """Fill row r of `shape` in place from generator(ctx[r]).

    One RngContext is the one-row case: its draws fill a leading axis of
    length 1, which is dropped again.
    """
    single = isinstance(ctx, RngContext)
    rows = (ctx,) if single else ctx
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    if single:
        shape = (1, *shape)
    if not shape or shape[0] != len(rows):
        raise ShapeError(
            f"{len(rows)} stream contexts for draw shape {shape}")
    out = np.empty(shape)
    for r, c in enumerate(rows):
        generator(c).standard_normal(out=out[r, ...])
    return out[0, ...] if single else out


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx). Hash call k
# xors its input with the k-th running hash constant and multiplies it by the
# next one; the constants do not depend on the data, so they are tabulated.
# The helpers take Python ints or uint32 arrays and reduce mod 2^32 either way.
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
    value = ((value ^ c_in) * c_out) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    out = (_MIX_L * x - _MIX_R * y) & _MASK32
    return out ^ (out >> 16)


def _spawn_words(spawn) -> np.ndarray:
    """Spawn rows as uint32 [N, W]; DomainError names a word outside 2^32."""
    try:
        arr = np.array(spawn, dtype=np.int64)
        bad = arr.size and (arr.min() < 0 or arr.max() > _MASK32)
    except OverflowError:
        bad = True
    if bad:
        j = next(j for row in spawn for j, w in enumerate(row)
                 if not 0 <= w <= _MASK32)
        name = _SPAWN_FIELDS[j] if j < len(_SPAWN_FIELDS) else f"word {j}"
        raise DomainError(f"spawn {name} must lie in [0, 2^32)")
    if arr.size == 0:
        return np.zeros((len(arr), 0), dtype=np.uint32)
    if arr.ndim != 2:
        raise DomainError(
            f"spawn must be [rows, words], got shape {arr.shape}")
    return arr.astype(np.uint32)


def philox_keys(seed: int, spawn) -> np.ndarray:
    """Philox keys of `SeedSequence(seed, spawn_key=row)` for every row.

    numpy's SeedSequence hash, vectorized over rows: the run entropy is the
    seed's 32-bit words, zero-padded to the pool size of 4, followed by the
    row's spawn words. Returns uint64 [N, 2], row i equal to
    `SeedSequence(seed, spawn_key=spawn[i]).generate_state(2, np.uint64)`,
    the key `Philox(SeedSequence(...))` uses. Every spawn word must lie in
    [0, 2^32); numpy would split a larger one into several words.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    words = _spawn_words(spawn)
    # the seed's little-endian 32-bit words (0 -> [0]), zero-padded to 4
    run = [(seed >> s) & _MASK32 for s in range(0, seed.bit_length() or 1, 32)]
    run += [0] * (_POOL - len(run))
    late = len(run) - _POOL + words.shape[1]   # words mixed in after the pool
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + late) + 1)
    # the first four words fill the pool and every slot mixes into every
    # other: this part depends on the seed alone, so it runs on Python ints
    pool = [_hashmix(w, a[k], a[k + 1]) for k, w in enumerate(run[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst],
                                 _hashmix(pool[src], a[k], a[k + 1]))
                k += 1
    # each later word mixes into the four slots with four consecutive
    # constants: one [4, N] step per word
    pool = np.array(pool, dtype=np.uint32)[:, None]
    a = np.array(a, dtype=np.uint32)[:, None]
    for word in [np.uint32(w) for w in run[_POOL:]] + list(words.T):
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
    """Philox streams of (seed, spawn row) for many rows, keyed at once.

    A row is the spawn key (tag, *ctx.key()) that `stream` uses. One Philox
    is reused for every draw: `normal` sets its key to the row's, its counter
    to 0 and its buffer to empty, which is the state a fresh
    `Philox(SeedSequence(seed, spawn_key=row))` starts in. The generator is
    mutable, so a table belongs to one thread.
    """

    def __init__(self, seed: int, spawn_keys):
        if isinstance(spawn_keys, np.ndarray):   # int [N, W], hashed as is
            spawn, rows = spawn_keys, spawn_keys.tolist()
        else:
            spawn = rows = list(spawn_keys)
        rows = list(map(tuple, rows))
        self.seed = seed
        self._keys = philox_keys(seed, spawn)
        self._index = dict(zip(rows, range(len(rows))))
        if rows:
            # exactness: the vectorized hash must reproduce numpy's
            want = np.random.SeedSequence(seed, spawn_key=rows[0]) \
                .generate_state(2, np.uint64)
            if not np.array_equal(self._keys[0], want):
                raise RuntimeError(
                    f"philox_keys {self._keys[0]} != SeedSequence {want} "
                    f"for seed {seed}, spawn {rows[0]}")
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        zero = np.zeros(4, dtype=np.uint64)
        self._key = {"counter": zero, "key": None}
        self._state = {"bit_generator": "Philox", "state": self._key,
                       "buffer": zero, "buffer_pos": 4, "has_uint32": 0,
                       "uinteger": 0}

    def normal(self, ctx, tag: int, shape) -> np.ndarray:
        """Standard-normal draws of rows (tag, *ctx.key()), as `normal`."""
        return _fill_rows(lambda c: self._generator(c, tag), ctx, shape)

    def _generator(self, ctx: RngContext, tag: int) -> np.random.Generator:
        """The shared generator, set to the start of row (tag, *ctx.key())."""
        row = (tag, *ctx.key())
        i = self._index.get(row)
        if i is None:
            raise KeyError(f"no stream row {row} in this table")
        self._key["key"] = self._keys[i]
        self._bitgen.state = self._state   # the setter copies every field
        return self._gen
