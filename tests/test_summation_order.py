"""Every weighted or grouped float sum in ``measures`` runs strictly left to
right, so a zero term is an exact no-op.

The conditional magnitudes and the Hellinger group sums of a chunk of window
pairs are checked, bit for bit, against a plain Python loop over each pair's
own nonzero terms: the terms of the keys and tuples the pair counts, and
none of the chunk's others.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmap import measures
from driftmap.estimate import AttributeSubset, TimeInterval
from driftmap.measures import (
    HELLINGER,
    _grouped_hellinger,
    _magnitudes,
    _ordered_sums,
    compute_drift,
    drift_measurements,
)

from conftest import build_encoded

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def _same(got, want):
    """Bit for bit: ``repr`` tells -0.0 and NaN apart."""
    return repr(float(got)) == repr(float(want))


@st.composite
def runs(draw, rows=6, width=12):
    """(rows, width) int counts, about a third of them 0, and sorted run starts from 0."""
    shape = (draw(st.integers(1, rows)), draw(st.integers(1, width)))
    cells = draw(st.lists(st.integers(0, 9), min_size=shape[0] * shape[1],
                          max_size=shape[0] * shape[1]))
    counts = np.array(cells, dtype=np.int64).reshape(shape) * (np.arange(len(cells)) % 3 > 0
                                                               ).reshape(shape)
    inner = draw(st.sets(st.integers(1, shape[1] - 1), max_size=shape[1] - 1)) if shape[1] > 1 \
        else set()
    return counts, np.array(sorted({0} | inner), dtype=np.intp)


@SETTINGS
@given(runs(), st.lists(st.floats(1e-3, 1e3), min_size=72, max_size=72),
       st.sampled_from([1 << 16, 5, 1]))
def test_ordered_sums_equal_a_loop_over_each_runs_nonzero_terms(case, scale, chunk_cells):
    counts, starts = case
    terms = counts * np.array(scale[:counts.size]).reshape(counts.shape)
    with pytest.MonkeyPatch.context() as patch:  # small budgets split the rows into blocks
        patch.setattr(measures, "CHUNK_CELLS", chunk_cells)
        got = _ordered_sums(terms, starts)
    ends = [*starts[1:], terms.shape[1]]
    for r, row in enumerate(terms.tolist()):
        for g, (lo, hi) in enumerate(zip(starts, ends)):
            want = 0.0
            for term in row[lo:hi]:
                if term:
                    want += term
            assert _same(got[r, g], want)


def test_ordered_sums_of_no_terms_are_zero():
    assert _ordered_sums(np.zeros((3, 0)), [0]).tolist() == [[0.0]] * 3
    assert _ordered_sums(np.zeros((2, 0)), np.zeros(0, np.intp)).shape == (2, 0)


@SETTINGS
@given(runs(), runs())
def test_hellinger_group_sums_equal_a_loop_over_the_counted_keys(case, other):
    a, starts = case
    b = np.resize(other[0], a.shape)
    group = np.cumsum(np.isin(np.arange(a.shape[1]), starts)) - 1
    ra, rb = (np.add.reduceat(x, starts, axis=1)[:, group] for x in (a, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _grouped_hellinger(a, b, ra, rb, starts)
    ends = [*starts[1:], a.shape[1]]
    for r in range(len(a)):
        for g, (lo, hi) in enumerate(zip(starts, ends)):
            total_a, total_b = int(ra[r, lo]), int(rb[r, lo])
            if not (total_a and total_b):
                continue  # an undefined conditional: _reduce takes its distance as 1.0
            s = 0.0
            for key in range(lo, hi):
                if a[r, key] + b[r, key]:
                    x = math.sqrt(a[r, key] / total_a) - math.sqrt(b[r, key] / total_b)
                    s += x * x
            assert _same(got[r, g], min(1.0, math.sqrt(0.5 * s)))


@st.composite
def reductions(draw):
    """``m_a``, ``m_b`` (pairs x tuples) and inner distances ``d``, 1.0 where a
    tuple is one-sided or unseen, as ``_reduce`` gives them."""
    m_a, _ = draw(runs())
    m_b = np.resize(draw(runs())[0], m_a.shape)
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=m_a.size, max_size=m_a.size))
    d = np.array(inner).reshape(m_a.shape)
    d[(m_a == 0) | (m_b == 0)] = 1.0
    return m_a, m_b, d


@SETTINGS
@given(reductions())
def test_conditional_magnitudes_equal_a_loop_over_each_pairs_seen_tuples(case):
    m_a, m_b, d = case
    got, n_a, n_b = _magnitudes(True, m_a, m_b, d)
    for i in range(len(m_a)):
        na, nb = int(n_a[i]), int(n_b[i])
        if not (na and nb):
            assert math.isnan(got[i])
            continue
        s = 0.0
        for t in range(m_a.shape[1]):
            if m_a[i, t] + m_b[i, t]:
                s += float(m_a[i, t] * nb + m_b[i, t] * na) * d[i, t]
        assert _same(got[i], min(1.0, s / (2 * na * nb)))


@SETTINGS
@given(reductions())
def test_conditional_magnitudes_are_exactly_zero_or_one_at_the_ends(case):
    """Inner distances all 0 give 0.0, and tuples all one-sided give 1.0,
    whatever the chunk's other tuples."""
    m_a, m_b, _ = case
    ok = (m_a.sum(axis=1) > 0) & (m_b.sum(axis=1) > 0)
    both = (m_a > 0) & (m_b > 0)
    got, _, _ = _magnitudes(True, m_a * both, m_b * both, np.where(both, 0.0, 1.0))
    assert got[ok & both.any(axis=1)].tolist() == [0.0] * int((ok & both.any(axis=1)).sum())
    one_sided = m_a * (m_b == 0), m_b * (m_a == 0)
    got, n_a, n_b = _magnitudes(True, *one_sided, np.ones(m_a.shape))
    sided = (n_a > 0) & (n_b > 0)
    assert got[sided].tolist() == [1.0] * int(sided.sum())


def test_a_hellinger_sweep_point_equals_compute_drift_when_its_chunk_has_other_keys(
        monkeypatch):
    """The keys shift over the stream, so every pair's chunk holds keys the
    pair never counts; each point still equals its pair counted alone."""
    rows = [[t // 8, (t * 7) % 3, (t * 5) % 4 % 2] for t in range(40)]
    dataset = build_encoded(rows, [5, 3, 2])
    pairs = [(s, s + 10, s + 10, s + 20) for s in range(0, 21, 2)]
    uncounted = []  # per chunk, whether each pair leaves some of its keys uncounted

    def recorded(a, b, ra, rb, starts):
        uncounted.append((a + b == 0).any(axis=1).tolist())
        return _grouped_hellinger(a, b, ra, rb, starts)

    monkeypatch.setitem(measures._DISTANCES, HELLINGER, recorded)
    covariates = AttributeSubset.covariates(["a0", "a1"])
    for kind, subset in [("joint", AttributeSubset.joint(["a0", "a1"], "label")),
                         ("covariate", covariates), ("conditioned_covariate", covariates),
                         ("posterior", covariates)]:
        del uncounted[:]
        column = drift_measurements(dataset, pairs, kind, subset, HELLINGER)
        assert uncounted == [[True] * len(pairs)]
        for i, (a0, a1, b0, b1) in enumerate(pairs):
            want = compute_drift(dataset, TimeInterval(a0, a1), TimeInterval(b0, b1), kind,
                                 subset, HELLINGER)
            assert _same(column.magnitude[i], want.magnitude)
