"""Determinism contract of the counter-based random streams."""

import math
from dataclasses import replace

import numpy as np
import pytest

from acimsim.errors import DomainError
from acimsim.rng import (TAG_DATA, TAG_NAT, TAG_NONLIN, TAG_RANDOM, RngContext,
                         StreamTable, _philox_keys, normal, stream)
from streams import table_of


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
        keys = _philox_keys(seed, np.array(rows, dtype=np.uint32))
        assert keys.dtype == np.uint64 and keys.shape == (len(rows), 2)
        for row, key in zip(rows, keys):
            want = np.random.SeedSequence(seed, spawn_key=row) \
                .generate_state(2, np.uint64)
            assert np.array_equal(key, want), (seed, row)
            checked += 1
    assert checked >= 1000


def test_stream_table_matches_normal_on_every_row():
    gen = np.random.default_rng(1)
    for seed in (0, 7919, 2**32 + 5, 2**70 + 3):
        rows = _spawn_rows(gen, 40) + [(TAG_NONLIN, 1, 2, 3, 4, 0, 5)]
        tags = sorted({row[0] for row in rows})
        reads = [row[1:] for row in rows]
        ctxs = [RngContext(*key) for key in reads]
        table = table_of(seed, ctxs, tags)
        assert table.contexts(range(len(reads))) == ctxs
        # each row twice, in a shuffled order, with every tag: a draw never
        # depends on the rows drawn before it
        for i in np.concatenate([gen.permutation(len(rows))] * 2):
            for tag in (rows[i][0], tags[i % len(tags)]):
                ctx = RngContext(*reads[i])
                want = stream(seed, ctx, tag).standard_normal((1, 3, 7))
                assert np.array_equal(
                    normal(table, range(i, i + 1), tag, (1, 3, 7)), want)


def test_stream_table_rejects_unknown_row_and_tag():
    table = StreamTable(5, [TAG_RANDOM])   # one read, every field 0
    for read in (1, -1):
        with pytest.raises(IndexError):
            normal(table, range(read, read + 1), TAG_RANDOM, 1)
    with pytest.raises(KeyError):
        normal(table, range(1), TAG_NONLIN, 1)


SPAWN_FIELDS = ("tag", "layer", "tile", "w_bit", "act_group", "column",
                "sample")


@pytest.mark.parametrize("word,field", [(2**32, "tile"), (-1, "layer"),
                                        (2**70, "sample"), (2**32, "tag"),
                                        (2.7, "layer"), (0.5, "column"),
                                        (1.0, "w_bit"), (0.5, "tag"),
                                        (-1, "tag"),
                                        pytest.param(np.arange(2), "tag",
                                                     id="array-tag")])
def test_philox_keys_rejects_word_outside_uint32(word, field):
    # one rule checks a table's words and a one-off stream's: a float tag
    # once keyed a table by its truncation, a one-off stream split a word
    # above 2^32 into several, and a float or negative tag raised numpy's
    # errors
    row = [0] * 7
    row[SPAWN_FIELDS.index(field)] = word
    with pytest.raises(DomainError, match=f"spawn {field} "):
        StreamTable(1, row[:1], **dict(zip(SPAWN_FIELDS[1:], row[1:])))
    with pytest.raises(DomainError, match=f"spawn {field} "):
        stream(1, RngContext(*row[1:]), row[0])


@pytest.mark.parametrize("field", SPAWN_FIELDS[1:])
@pytest.mark.parametrize("bad", [0.5, np.array([], dtype=np.float64),
                                 2**32])
def test_stream_table_checks_each_field_even_when_empty(field, bad):
    # `sample` of length 0 empties the broadcast, yet each field is checked
    other = "sample" if field != "sample" else "layer"
    with pytest.raises(DomainError, match=f"spawn {field} "):
        StreamTable(1, [TAG_RANDOM], **{field: bad, other: np.arange(0)})


def test_stream_table_reads_the_broadcast_in_c_order():
    table = StreamTable(3, [TAG_RANDOM, TAG_NAT], layer=7,
                        tile=np.arange(2)[:, None], w_bit=[4, 5, 6],
                        sample=np.uint32(2))
    want = [RngContext(layer=7, tile=t, w_bit=w, sample=2)
            for t in range(2) for w in (4, 5, 6)]
    assert table.contexts(range(6)) == want
    assert np.array_equal(normal(table, range(6), TAG_NAT, (6, 2)),
                          normal(table_of(3, want, [TAG_NAT]), range(6),
                                 TAG_NAT, (6, 2)))
    empty = StreamTable(3, [TAG_RANDOM], tile=np.zeros((4, 0), int))
    assert empty.reads.shape == (0, 6)
    with pytest.raises(TypeError, match="tiles"):
        StreamTable(3, [TAG_RANDOM], tiles=1)


def test_philox_keys_rejects_negative_seed():
    for seed in (-1, 1.5):
        with pytest.raises(DomainError, match="seed"):
            StreamTable(seed, [TAG_RANDOM])


def _fresh(seed, table, rows, tag, shape):
    """normal's draws rebuilt from a fresh `stream` per read position."""
    size = math.prod(shape[1:])
    return np.array([stream(seed, ctx, tag).standard_normal(size)
                     for ctx in table.contexts(rows)]).reshape(shape)


def _table(seed, n):
    gen = np.random.default_rng(seed)
    reads = gen.integers(0, 2**32, size=(n, 6), dtype=np.uint64).tolist()
    return table_of(seed, [RngContext(*key) for key in reads],
                    [TAG_RANDOM, TAG_NONLIN, TAG_NAT])


@pytest.mark.parametrize("rows", [range(3, 9), range(1, 12, 3),
                                  range(10, 3, -2), range(0), range(5, 5)],
                         ids=repr)
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
    gen = next(table.generators(range(1, 2), TAG_RANDOM))
    gen.integers(0, 2**32, size=3, dtype=np.uint32)   # odd: half a word left
    state = gen.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    # the next stream's uint32s start on a whole word, its normals at the
    # start of its first block
    ctx = table.contexts(range(2, 3))[0]
    words = next(table.generators(range(2, 3), TAG_NAT)).integers(
        0, 2**32, size=3, dtype=np.uint32)
    assert np.array_equal(words, stream(3, ctx, TAG_NAT).integers(
        0, 2**32, size=3, dtype=np.uint32))
    for rows in (range(1, 3), range(2, 0, -1)):
        assert np.array_equal(normal(table, rows, TAG_RANDOM, (2, 5)),
                              _fresh(3, table, rows, TAG_RANDOM, (2, 5)))
        next(table.generators(range(1), TAG_NAT)).integers(
            0, 2**32, size=1, dtype=np.uint32)


@pytest.mark.parametrize("rows", [range(4, 5), range(-1, 2), range(3, 5),
                                  range(2, -2, -1), range(0, 7, 3)], ids=repr)
def test_rows_outside_the_table_raise_index_error(rows):
    table = _table(5, 4)
    with pytest.raises(IndexError):
        normal(table, rows, TAG_RANDOM, len(rows))
    with pytest.raises(IndexError):
        table.contexts(rows)


# every stream read is a range of table positions: lists and index arrays,
# in any order, repeated or negative, once took a fancy-index path
@pytest.mark.parametrize("rows", [[5, 0, 5, 11], [], np.array([11, 2, 7, 2]),
                                  np.array([4], dtype=np.int32),
                                  np.array([], dtype=np.intp), [4], [-1],
                                  [0, 4], [2, -1], np.array([4]),
                                  np.array([-1, 0]), (1, 2)], ids=repr)
def test_non_range_rows_raise_type_error(rows):
    table = _table(5, 12)
    with pytest.raises(TypeError, match="rows must be a range"):
        normal(table, rows, TAG_RANDOM, len(rows))
    with pytest.raises(TypeError, match="rows must be a range"):
        next(table.generators(rows, TAG_RANDOM))
    with pytest.raises(TypeError, match="rows must be a range"):
        table.contexts(rows)
