"""Readout calls addressed by RngContext, for tests that name their streams.

The library reads every readout noise draw from an rng.StreamTable by
position. These adapters key one table over the given contexts, in order,
with the tags the specs draw, and read it at positions 0, 1, ..., so row r
draws the streams of ctxs[r].
"""

import dataclasses

import numpy as np

from acimsim.macro import (apply_noise, draw_noise, majority_vote_readout,
                           noise_tags)
from acimsim.rng import RngContext, StreamTable


def table_of(seed, ctxs, tags) -> StreamTable:
    """A StreamTable of `tags` whose read i is ctxs[i]: each RngContext
    field of every context, passed by name."""
    return StreamTable(seed, tags, **{
        f.name: np.array([getattr(c, f.name) for c in ctxs], dtype=np.int64)
        for f in dataclasses.fields(RngContext)})


def noise_at(v, spec, cfg, ctxs):
    """apply_noise on the leading rows of `v`, row r drawn from ctxs[r]."""
    table = table_of(spec.seed, ctxs, noise_tags([spec]))
    draws, out, _ = draw_noise(table, range(len(ctxs)), np.shape(v), [spec])
    return apply_noise(v, spec, cfg, ctxs, draws, out)


def vote_at(vs, samples, specs, cfgs, ctxs) -> list:
    """majority_vote_readout with (row, sample) pair i drawn from ctxs[i]."""
    table = table_of(specs[0].seed, ctxs, noise_tags(specs))
    return majority_vote_readout(vs, samples, specs, cfgs, range(len(ctxs)),
                                 table)
