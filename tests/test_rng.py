"""Determinism contract of the counter-based random streams."""

import math
from dataclasses import replace

import numpy as np
import pytest

from acimsim.errors import DomainError
from acimsim.rng import (TAG_DATA, TAG_NAT, TAG_NONLIN, TAG_RANDOM, RngContext,
                         StreamTable, normal, philox_keys, stream)


def _draw(seed, ctx, tag, size):
    """`size` draws of the one stream (seed, ctx, tag)."""
    return stream(seed, ctx, tag).standard_normal(size)


def test_source_tags_distinct():
    assert len({TAG_RANDOM, TAG_NONLIN, TAG_NAT, TAG_DATA}) == 4


def test_replay_identical():
    ctx = RngContext(layer=1, tile=2, w_bit=3, act_group=4, column=5, sample=6)
    a = _draw(42, ctx, TAG_RANDOM, 100)
    b = _draw(42, ctx, TAG_RANDOM, 100)
    assert np.array_equal(a, b)


def test_streams_differ_per_coordinate():
    base = RngContext()
    ref = _draw(42, base, TAG_RANDOM, 8)
    # changing any single coordinate, the tag, or the seed moves the stream
    others = [_draw(43, base, TAG_RANDOM, 8),
              _draw(42, base, TAG_NONLIN, 8)]
    for field in ("layer", "tile", "w_bit", "act_group", "column", "sample"):
        others.append(_draw(42, replace(base, **{field: 1}), TAG_RANDOM, 8))
    for draw in others:
        assert not np.array_equal(ref, draw)


def test_replace_is_nondestructive():
    ctx = RngContext(layer=1)
    ctx2 = replace(ctx, sample=9)
    assert ctx.sample == 0 and ctx2.sample == 9 and ctx2.layer == 1
    assert ctx2.key() == (1, 0, 0, 0, 0, 9)


def test_negative_seed_rejected():
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        stream(-1, RngContext(), TAG_RANDOM)


def test_frozen_reference_draws():
    # Pin the stream contents so a refactor of the keying scheme that silently
    # reshuffles every experiment is caught; Philox output for a fixed
    # SeedSequence is stable across platforms and numpy releases.
    got = _draw(0, RngContext(), TAG_RANDOM, 3)
    want = [float.fromhex("-0x1.fe9b501558856p-10"),
            float.fromhex("0x1.7b549ba030e87p-1"),
            float.fromhex("0x1.4eb1a338f3a85p-5")]
    assert np.array_equal(got, want)


def test_draws_approximately_standard_normal():
    x = _draw(7, RngContext(), TAG_DATA, 200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


KEY_SEEDS = (0, 1, 7919, 2**32 - 1, 2**32, 2**64 + 1, 2**127 + 1, 2**128,
             2**130 + 7)


def _spawn_rows(gen, n):
    """n random 7-word spawn rows, with the extreme words 0 and 2^32 - 1."""
    rows = gen.integers(0, 2**32, size=(n, 7), dtype=np.uint64)
    rows[0] = 0
    rows[1] = 2**32 - 1
    rows[2, ::2] = 2**32 - 1
    return [tuple(int(x) for x in row) for row in rows]


def test_philox_keys_match_seed_sequence():
    gen = np.random.default_rng(0)
    checked = 0
    for seed in KEY_SEEDS:
        rows = _spawn_rows(gen, 150)
        keys = philox_keys(seed, rows)
        assert keys.dtype == np.uint64 and keys.shape == (len(rows), 2)
        for row, key in zip(rows, keys):
            want = np.random.SeedSequence(seed, spawn_key=row) \
                .generate_state(2, np.uint64)
            assert np.array_equal(key, want), (seed, row)
            checked += 1
    assert checked >= 1000


def test_philox_keys_short_and_empty_rows():
    for seed in (0, 5, 2**64 + 1):
        for row in ((), (3,), (1, 2, 3, 4, 5)):
            want = np.random.SeedSequence(seed, spawn_key=row) \
                .generate_state(2, np.uint64)
            assert np.array_equal(philox_keys(seed, [row])[0], want)
    assert philox_keys(3, []).shape == (0, 2)


def test_stream_table_matches_normal_on_every_row():
    gen = np.random.default_rng(1)
    for seed in (0, 7919, 2**32 + 5, 2**70 + 3):
        rows = _spawn_rows(gen, 40) + [(TAG_NONLIN, 1, 2, 3, 4, 0, 5)]
        tags = sorted({row[0] for row in rows})
        reads = [row[1:] for row in rows]
        table = StreamTable(seed, tags, reads)
        assert table.contexts(range(len(reads))) == [RngContext(*key)
                                                     for key in reads]
        # each row twice, in a shuffled order, with every tag: a draw never
        # depends on the rows drawn before it
        for i in np.concatenate([gen.permutation(len(rows))] * 2):
            for tag in (rows[i][0], tags[i % len(tags)]):
                ctx = RngContext(*reads[i])
                want = stream(seed, ctx, tag).standard_normal((1, 3, 7))
                assert np.array_equal(normal(table, [i], tag, (1, 3, 7)),
                                      want)


def test_stream_table_rejects_unknown_row_and_tag():
    table = StreamTable(5, [TAG_RANDOM], [(0, 0, 0, 0, 0, 0)])
    for read in (1, -1):
        with pytest.raises(IndexError):
            normal(table, [read], TAG_RANDOM, 1)
    with pytest.raises(KeyError):
        normal(table, [0], TAG_NONLIN, 1)


@pytest.mark.parametrize("word,field", [(2**32, "tile"), (-1, "layer"),
                                        (2**70, "sample"), (2**32, "tag")])
def test_philox_keys_rejects_word_outside_uint32(word, field):
    row = [0] * 7
    row[("tag", "layer", "tile", "w_bit", "act_group", "column",
         "sample").index(field)] = word
    with pytest.raises(DomainError, match=field):
        philox_keys(1, [tuple(row)])
    with pytest.raises(DomainError, match=field):
        StreamTable(1, row[:1], [row[1:]])


def test_philox_keys_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        philox_keys(-1, [(0,) * 7])


def _fresh(seed, table, rows, tag, shape):
    """normal's draws rebuilt from a fresh `stream` per read position."""
    size = math.prod(shape[1:])
    return np.array([stream(seed, ctx, tag).standard_normal(size)
                     for ctx in table.contexts(list(rows))]).reshape(shape)


def _table(seed, n):
    gen = np.random.default_rng(seed)
    reads = gen.integers(0, 2**32, size=(n, 6), dtype=np.uint64).tolist()
    return StreamTable(seed, [TAG_RANDOM, TAG_NONLIN, TAG_NAT], reads)


ROW_CONTAINERS = [range(3, 9), range(1, 12, 3), range(10, 3, -2), range(0),
                  range(5, 5), [5, 0, 5, 11], [], np.array([11, 2, 7, 2]),
                  np.array([4], dtype=np.int32), np.array([], dtype=np.intp)]


@pytest.mark.parametrize("rows", ROW_CONTAINERS, ids=repr)
def test_normal_rows_equal_fresh_streams(rows):
    seed = 2**40 + 9
    table = _table(seed, 12)
    n = len(rows)
    # interleaved tags and shapes: each call starts every row afresh
    for tail in ((), (2, 3), (0, 4), (3,), ()):
        for tag in (TAG_NONLIN, TAG_RANDOM, TAG_NAT, TAG_NONLIN):
            shape = (n, *tail)
            got = normal(table, rows, tag, shape)
            assert got.shape == shape
            assert np.array_equal(got, _fresh(seed, table, rows, tag, shape))


def test_read_after_a_generator_left_mid_buffer():
    table = _table(3, 4)
    gen = next(table.generators([1], TAG_RANDOM))
    gen.integers(0, 2**32, size=3, dtype=np.uint32)   # odd: half a word left
    state = gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    # the next stream's uint32s start on a whole word, its normals at the
    # start of its first block
    ctx = table.contexts([2])[0]
    words = next(table.generators([2], TAG_NAT)).integers(
        0, 2**32, size=3, dtype=np.uint32)
    assert np.array_equal(words, stream(3, ctx, TAG_NAT).integers(
        0, 2**32, size=3, dtype=np.uint32))
    for rows in ([1, 2], range(1, 3)):
        assert np.array_equal(normal(table, rows, TAG_RANDOM, (2, 5)),
                              _fresh(3, table, rows, TAG_RANDOM, (2, 5)))
        next(table.generators([0], TAG_NAT)).integers(
            0, 2**32, size=1, dtype=np.uint32)


@pytest.mark.parametrize("rows", [[4], [-1], [0, 4], [2, -1], range(4, 5),
                                  range(-1, 2), range(3, 5), range(2, -2, -1),
                                  range(0, 7, 3), np.array([4]),
                                  np.array([-1, 0])], ids=repr)
def test_rows_outside_the_table_raise_index_error(rows):
    table = _table(5, 4)
    with pytest.raises(IndexError):
        normal(table, rows, TAG_RANDOM, len(rows))
