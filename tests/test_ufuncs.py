import numpy as np
import pytest

from flatclust._ufuncs import row_loops
from flatclust.experiments import _membership_flips
from flatclust.synthetic import _sample_batch, gap_family


@pytest.mark.parametrize("length, size", [(1, 16), (15, 16), (16, 16), (17, 16), (512, 512), (5000, 4992)])
def test_row_loops_buffer_is_at_most_one_row(length, size):
    before = np.getbufsize()
    with row_loops(length):
        assert np.getbufsize() == size
    assert np.getbufsize() == before


@pytest.mark.parametrize("length", [8192, 9000, 10**9])
def test_row_loops_never_grow_the_buffer(length):
    before = np.getbufsize()
    with row_loops(length):
        assert np.getbufsize() == before


def test_row_loops_restores_the_buffer_on_error():
    before = np.getbufsize()
    with pytest.raises(RuntimeError):
        with row_loops(64):
            raise RuntimeError("inside")
    assert np.getbufsize() == before


@pytest.mark.parametrize("length", [7, 64, 1000, 9000])
def test_per_row_ops_keep_their_bits_under_row_loops(length):
    rng = np.random.default_rng(length)
    block, per_row = rng.uniform(-1, 1, (5, length)), rng.uniform(-1, 1, (5, 1))
    draw = rng.random((5, length + 3))  # rows that are not adjacent in memory
    want = ((block * per_row) + per_row) + draw[:, 3:]
    got = block.copy()
    with row_loops(length):
        got *= per_row
        got += per_row
        got += draw[:, 3:]
    assert np.array_equal(got, want)


def test_sampler_and_flips_leave_the_buffer_as_they_found_it():
    before = np.getbufsize()
    family = gap_family()
    labels = np.arange(70) % family.C
    _sample_batch(family.clusters, labels, 40, family.d, family.eps_bar, np.random.default_rng(3))
    assert np.getbufsize() == before
    pts = np.random.default_rng(4).random((50, 2))
    _membership_flips(pts, pts + 0.01, pts[:20], 0.2)
    assert np.getbufsize() == before
