from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from emvr import (WITH_REPLACEMENT, WITHOUT_REPLACEMENT, MinibatchSampler,
                  ScalarTwoGmm, ScalarTwoGmmParams, full_stats,
                  minibatch_stats)
from emvr.data import gen_scalar_mixture


def all_batches(n, b, mode):
    """Enumeration oracle: every possible batch, each equally likely.

    With replacement: all n**b ordered draws.  Without replacement: all
    C(n, b) subsets (order does not affect a batch average).
    """
    if mode == WITH_REPLACEMENT:
        return [list(t) for t in product(range(n), repeat=b)]
    return [list(c) for c in combinations(range(n), b)]


@pytest.fixture
def five_points():
    data = gen_scalar_mixture(5, seed=7)
    model = ScalarTwoGmm.from_data(data)
    params = ScalarTwoGmmParams(mu=np.array([0.8, -0.9]))
    return model, data, params


class TestSamplerContract:
    def test_with_replacement_shape_and_range(self):
        s = MinibatchSampler(4, seed=0)
        idx = s.sample(10)
        assert idx.shape == (4,) and idx.min() >= 0 and idx.max() < 10

    def test_without_replacement_is_a_subset(self):
        s = MinibatchSampler(4, seed=0, mode=WITHOUT_REPLACEMENT)
        idx = s.sample(10)
        assert len(set(idx.tolist())) == 4

    def test_without_replacement_b_equals_n_is_permutation(self):
        s = MinibatchSampler(6, seed=3, mode=WITHOUT_REPLACEMENT)
        assert sorted(s.sample(6).tolist()) == list(range(6))

    def test_b_above_n_rejected(self):
        s = MinibatchSampler(7, seed=0, mode=WITHOUT_REPLACEMENT)
        with pytest.raises(ValueError):
            s.sample(6)

    def test_same_seed_same_stream(self):
        a = MinibatchSampler(3, seed=42)
        b = MinibatchSampler(3, seed=42)
        for _ in range(50):
            assert np.array_equal(a.sample(9), b.sample(9))

    def test_modes_validated(self):
        with pytest.raises(ValueError):
            MinibatchSampler(3, seed=0, mode="whatever")
        with pytest.raises(ValueError):
            MinibatchSampler(0, seed=0)

    def test_subset_frequencies_uniform(self):
        # draw one 3-subset of {0..5} per seed; every C(6,3)=20 subset's
        # count should sit within 3 sigma of uniform
        n, b, draws = 6, 3, 4000
        counts = {}
        for seed in range(draws):
            s = MinibatchSampler(b, seed=seed, mode=WITHOUT_REPLACEMENT)
            key = tuple(sorted(s.sample(n).tolist()))
            counts[key] = counts.get(key, 0) + 1
        m = comb(n, b)
        assert len(counts) == m
        expect = draws / m
        sigma = np.sqrt(draws * (1 / m) * (1 - 1 / m))
        worst = max(abs(c - expect) for c in counts.values())
        assert worst <= 3 * sigma


class TestEnumerationIdentities:
    @pytest.mark.parametrize("mode,b", [(WITH_REPLACEMENT, 2), (WITHOUT_REPLACEMENT, 2),
                                        (WITH_REPLACEMENT, 3), (WITHOUT_REPLACEMENT, 3)])
    def test_batch_average_unbiased_exactly(self, five_points, mode, b):
        model, data, params = five_points
        target = full_stats(model, data, params)
        batches = all_batches(data.n, b, mode)
        avg = np.mean([minibatch_stats(model, data, batch, params) for batch in batches],
                      axis=0)
        assert np.abs(avg - target).max() <= 1e-12

    def test_with_replacement_variance_identity(self, five_points):
        # exact componentwise variance over all n**b batches equals
        # (population variance of the per-sample statistics) / b
        model, data, params = five_points
        b = 2
        sbar = full_stats(model, data, params)
        rows = model.sbar_rows(data, None, params)
        pop_var = ((rows - sbar) ** 2).sum(axis=0) / data.n
        batch_avgs = np.stack([minibatch_stats(model, data, batch, params)
                               for batch in all_batches(data.n, b, WITH_REPLACEMENT)])
        var = ((batch_avgs - sbar) ** 2).mean(axis=0)
        assert np.abs(var - pop_var / b).max() <= 1e-12
