"""The b-row path of an update: each batch is drawn, sorted and gathered once,
its store rows are written without ``np.unique``, and each parameter set is
built once, with its logit terms, bitwise what the general paths compute."""

import numpy as np
import pytest

from emvr import (WITH_REPLACEMENT, WITHOUT_REPLACEMENT, Dataset, DomainError,
                  MinibatchSampler, PerSampleStatStore, PooledGmm, ScalarTwoGmm,
                  ScalarTwoGmmParams, StepSchedule, core, full_stats, gmm_m_step,
                  run_algorithm)
from emvr.algorithms import ESTIMATORS, _Estimator
from emvr.data import gen_multivariate_mixture, gen_scalar_mixture
from emvr.gmm import _chol_inv, _gmm_pass, _logit_terms, init_random_responsibility


def _seeds(tag):
    return np.random.SeedSequence([3, tag])


def _run(name, model, data, s0, b=10, mode=WITH_REPLACEMENT, **kw):
    sampler = MinibatchSampler(b, 4, mode=mode)
    length = dict(k_in=6, k_out=2) if ESTIMATORS[name].refresh else dict(k_max=10)
    return run_algorithm(name, model, data, s0, sampler, StepSchedule.constant(0.05),
                         _seeds, metric_mode="none", **length, **kw)


def _pooled():
    data = gen_multivariate_mixture(200, 3, 2, 4.0, seed=1)
    model = PooledGmm.from_data(3, data)
    return model, data, init_random_responsibility(model, data, seed=2)


def _scalar():
    data = gen_scalar_mixture(200, seed=1)
    model = ScalarTwoGmm.from_data(data)
    return model, data, full_stats(model, data, ScalarTwoGmmParams(mu=np.array([1.0, -1.0])))


@pytest.mark.parametrize("mode", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
@pytest.mark.parametrize("problem", [_pooled, _scalar])
def test_no_update_checks_its_indices_again_or_calls_unique(monkeypatch, problem, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("an update re-checked or deduplicated its batch")

    monkeypatch.setattr(core, "_check_indices", refuse)
    monkeypatch.setattr(np, "unique", refuse)
    model, data, s0 = problem()
    for name in ESTIMATORS:
        trace = _run(name, model, data, s0, mode=mode, warm_epochs=ESTIMATORS[name].warm)
        assert trace.status == "completed", (name, trace.diverged_reason)


class _Rows(np.ndarray):
    """A dataset's rows that log each gather by an index array."""

    gathers = None

    def __getitem__(self, key):
        if self.gathers is not None and isinstance(key, np.ndarray):
            self.gathers.append(key)
        return super().__getitem__(key)

    def take(self, indices, *args, **kwargs):
        if self.gathers is not None:
            self.gathers.append(indices)
        return super().take(indices, *args, **kwargs)


@pytest.mark.parametrize("mode", [WITH_REPLACEMENT, WITHOUT_REPLACEMENT])
@pytest.mark.parametrize("name", ["spider-em", "sem-vr", "spider-em-cv", "fiem"])
def test_an_update_gathers_each_of_its_batches_once(monkeypatch, name, mode):
    model, data, s0 = _pooled()
    data.values = data.values.view(_Rows)
    data.values.gathers = gathers = []
    drawn, real = [], _Estimator.batch

    def batch(self, sampler=None):
        drawn.append(real(self, sampler))
        return drawn[-1]

    monkeypatch.setattr(_Estimator, "batch", batch)
    trace = _run(name, model, data, s0, mode=mode)
    assert trace.status == "completed"
    assert len(drawn) == (20 if name == "fiem" else 10)
    # every batch once, by identity; FIEM's store also gathers the distinct
    # indices of a first batch that repeats one
    once = [g for g in gathers if any(g is d for d in drawn)]
    assert [id(g) for g in once] == [id(d) for d in drawn]
    repeats = [d for d in drawn[::2] if np.unique(d).size < d.size] if name == "fiem" else []
    assert len(gathers) - len(once) == len(repeats)
    if mode == WITHOUT_REPLACEMENT:
        assert len(gathers) == len(drawn)


def test_the_gather_memo_serves_only_its_own_read_only_batch():
    a = Dataset(np.arange(12.0).reshape(6, 2))
    b = Dataset(-np.arange(12.0).reshape(6, 2))
    idx = np.array([0, 2, 2, 5])
    idx.setflags(write=False)
    rows, xc = a.gather(idx)
    assert not rows.flags.writeable and not xc.flags.writeable
    assert a.gather(idx)[0] is rows
    assert np.array_equal(rows, a.values[idx]) and np.array_equal(xc, a.values[idx] - a.mean)
    # another dataset, or an equal array that is not the same one, is gathered afresh
    assert np.array_equal(b.gather(idx)[0], b.values[idx])
    twin = idx.copy()
    twin.setflags(write=False)
    assert a.gather(twin)[0] is not rows
    # a writeable array, or a read-only view of one, can change between calls
    for base in (np.array([1, 3]), np.array([1, 3, 4])):
        idx = base if base.size == 2 else base[:2]
        if idx is not base:
            idx.setflags(write=False)
        first = a.gather(idx)[0]
        base[0] = 4
        again, xc = a.gather(idx)
        assert first.flags.writeable and again is not first
        assert np.array_equal(again, a.values[[4, 3]])
        assert np.array_equal(xc, a.values[[4, 3]] - a.mean)


def _old_update(store, indices, new_rows):
    """The store update with ``np.unique``, as written before the sorted-batch path."""
    uniq, first = np.unique(indices, return_index=True)
    fresh = new_rows[first]
    delta = fresh - store.rows[uniq]
    store.rows[uniq] = fresh
    store.mean = store.mean + store.lift(uniq, delta) / store.rows.shape[0]


@pytest.mark.parametrize("pooled", [True, False])
def test_a_sorted_batch_with_repeats_updates_the_store_as_unique_does(pooled):
    rng = np.random.default_rng(0)
    model, data, _ = _pooled()
    lift = (lambda idx, w: model.lift_sum(data, idx, w)) if pooled else None
    rows = rng.dirichlet(np.ones(3), size=data.n)
    new, old = PerSampleStatStore(rows.copy(), lift), PerSampleStatStore(rows.copy(), lift)
    for step in range(31):
        # sorted with repeats, sorted without, and unsorted with repeats; last, none
        idx = rng.integers(0, data.n, size=12 if step < 30 else 0)
        if step % 3 == 1:
            idx = rng.choice(data.n, size=12, replace=False)
        if step % 3 != 2:
            idx = np.sort(idx)
            idx.setflags(write=False)
        # rows of a repeated index differ, so the first must be the one kept;
        # transposed, as a pass's posteriors are
        fresh = rng.dirichlet(np.ones(3), size=idx.size).T.copy().T
        new.update(idx, fresh)
        _old_update(old, idx, fresh)
        assert new.rows.tobytes() == old.rows.tobytes()
        assert new.mean.tobytes() == old.mean.tobytes()


def test_the_m_step_builds_the_terms_a_pass_would():
    model, data, s0 = _pooled()
    s = 0.5 * s0 + 0.5 * full_stats(model, data, model.m_step(s0))
    built = model.m_step(s)
    assert built.__dict__["_logit_terms"][0] is data.mean
    lazy = gmm_m_step(s, data.second_moment)
    assert "_logit_terms" not in lazy.__dict__
    for got, want in zip(_logit_terms(built, data.mean), _logit_terms(lazy, data.mean)):
        assert got.tobytes() == want.tobytes()
    assert _chol_inv(built).tobytes() == _chol_inv(lazy).tobytes()
    # terms are kept for the model's data mean only; another dataset's pass
    # builds its own, as for parameters made without them
    other = Dataset(data.values + 1.0)
    for part in (1, 2):
        got = _gmm_pass(model.m_step(s), other, None, want_lse=True)[part]
        want = _gmm_pass(gmm_m_step(s, data.second_moment), other, None, want_lse=True)[part]
        assert got.tobytes() == want.tobytes()


def test_an_overflowing_fit_is_still_a_non_finite_domain_error():
    model, data, s0 = _pooled()
    s = s0.copy()
    s[3:] = 1e200   # pytest turns an overflow warning into an error
    with pytest.raises(DomainError) as exc:
        model.m_step(s)
    assert exc.value.violation == "non-finite"
