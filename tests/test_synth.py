
import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from somalloc.logit import fit_logit
from somalloc.som import SomConfig, train_som
from somalloc.synth import (
    SURVEY_FLAT_DIMS,
    SURVEY_MODALITY_COUNTS,
    GeneratorSpec,
    generate,
)


def small_spec(seed=0, **overrides):
    centers = np.array([[60.0, 30.0, 10.0], [20.0, 30.0, 50.0]])
    dists = (
        np.array([[0.8, 0.2], [0.3, 0.7]]),
        np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]),
    )
    kwargs = dict(
        n=200,
        centers=centers,
        noise_scale=1.0,
        modality_dists=dists,
        dependence=0.9,
        missing_rate=0.1,
        seed=seed,
    )
    kwargs.update(overrides)
    return GeneratorSpec(**kwargs)


class TestSpecValidation:
    def test_centers_must_sum_to_100(self):
        with pytest.raises(ValueError, match="sum to 100"):
            small_spec(centers=np.array([[50.0, 30.0, 10.0], [20.0, 30.0, 50.0]]))

    def test_distributions_must_be_stochastic(self):
        bad = (
            np.array([[0.8, 0.3], [0.3, 0.7]]),
            np.array([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]),
        )
        with pytest.raises(ValueError, match="distributions"):
            small_spec(modality_dists=bad)

    def test_rates_bounded(self):
        with pytest.raises(ValueError, match="dependence"):
            small_spec(dependence=1.5)
        with pytest.raises(ValueError, match="missing_rate"):
            small_spec(missing_rate=1.0)


class TestGenerate:
    def test_deterministic(self):
        d1, l1 = generate(small_spec(seed=5))
        d2, l2 = generate(small_spec(seed=5))
        assert_array_equal(d1.continuous.values, d2.continuous.values)
        assert_array_equal(d1.continuous.observed, d2.continuous.observed)
        assert_array_equal(d1.categorical.codes, d2.categorical.codes)
        assert_array_equal(l1, l2)

    def test_rows_depend_only_on_their_index(self):
        # per-row substreams: a longer run extends a shorter one unchanged
        short, labels_short = generate(small_spec(seed=9, n=40))
        long, labels_long = generate(small_spec(seed=9, n=80))
        assert_array_equal(labels_short, labels_long[:40])
        assert_array_equal(short.continuous.values, long.continuous.values[:40])
        assert_array_equal(short.categorical.codes, long.categorical.codes[:40])

    def test_fully_observed_rows_sum_to_100(self):
        d, _ = generate(small_spec(seed=3, missing_rate=0.3))
        full = d.continuous.observed.all(axis=1)
        assert full.any()
        assert_allclose(d.continuous.values[full].sum(axis=1), 100.0, atol=1e-9)

    def test_every_row_keeps_an_observed_cell(self):
        d, _ = generate(small_spec(seed=4, missing_rate=0.85))
        assert d.continuous.observed.any(axis=1).all()

    def test_zero_noise_zero_missing_reproduces_centers(self):
        spec = small_spec(seed=6, noise_scale=0.0, missing_rate=0.0)
        d, labels = generate(spec)
        assert_allclose(d.continuous.values, spec.centers[labels], atol=1e-9)
        cb = train_som(
            d.continuous, SomConfig(units=2, epochs=30, lr_end=1e-3, seed=1)
        )
        # each center recovered by some unit, up to string order
        for center in spec.centers:
            dists = ((cb.code_vectors - center) ** 2).mean(axis=1)
            assert dists.min() < 1e-3

    def test_zero_dependence_collapses_logit_to_intercepts(self):
        spec = small_spec(seed=7, n=6000, dependence=0.0, missing_rate=0.0)
        d, labels = generate(spec)
        model = fit_logit(d.categorical, labels, 2, d.schema.categorical_vars)
        slopes = model.beta[:, 1:]
        assert np.abs(slopes).max() < 0.3
        priors = np.bincount(labels) / labels.size
        assert model.beta[0, 0] == pytest.approx(
            np.log(priors[0] / priors[1]), abs=0.2
        )

    def test_survey_shape(self):
        spec = GeneratorSpec.survey_shaped(seed=11, n=8809)
        d, labels = generate(spec)
        assert d.n_rows == 8809
        assert d.schema.p == 19
        assert d.schema.l == 10
        assert d.schema.modality_counts == SURVEY_MODALITY_COUNTS
        assert d.schema.compositional
        assert labels.shape == (8809,)
        assert set(np.unique(labels)) == set(range(5))

    def test_survey_flat_dims_share_centers(self):
        spec = GeneratorSpec.survey_shaped(seed=12)
        flat = np.asarray(SURVEY_FLAT_DIMS)
        spreads = spec.centers.max(axis=0) - spec.centers.min(axis=0)
        assert_allclose(spreads[flat], 0.0, atol=1e-12)
        vary = np.setdiff1d(np.arange(spec.p), flat)
        assert (spreads[vary] > 1.0).all()


# sha256 of values, observed, codes and labels.  Any change to the draws or
# to the arithmetic on them changes every fixture and benchmark input, so it
# must show here first.
PINNED = {
    "survey-seed3": (
        lambda: GeneratorSpec.survey_shaped(seed=3, n=2000),
        ("1a35f5c14d637b5353ad6cdfe05863ddf49d3772ff1dd9f3f048d08d5db8e0a5",
         "e1b42e829bb7e5f5cfd671165d66d7b262d09977267491ce669de52a7ee224e6",
         "cb8109fd6b968abfa8b598742f8fa0a03cac712cffc483e59d3ea26c9a455bc4",
         "51f8eaca7280c33f924f013b1811a2bcbf07b62ae8fe9caa1be506554c0adb99"),
    ),
    "keep-one-observed": (
        lambda: small_spec(missing_rate=0.85),
        ("06f174afaf3587f410ded7daa2b56b9ebb72137a18fd711f201fa6ff88c7957c",
         "11df2e73e51f699985eac5e96f388a37bdd2fd83cc740453eff433b9f0a0d410",
         "04368d62900418df682dabe8982d35ad8e055875f4bf8f70a791d20c202c009b",
         "95743cdf28fa667db6102a3c6791861891990a929bc1300d11e82516c56bd770"),
    ),
    "zero-sum-fallback": (
        lambda: small_spec(noise_scale=1e4),
        ("53320bc7f2ec5909d22dbb18c50651b01d534db9cfee43e139e514f0873631a7",
         "c2f458565e69bdf6057a09301fb461fc653278afc3b8ddf223fa396b7c090691",
         "04368d62900418df682dabe8982d35ad8e055875f4bf8f70a791d20c202c009b",
         "95743cdf28fa667db6102a3c6791861891990a929bc1300d11e82516c56bd770"),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_generated_bytes_are_pinned(case):
    make_spec, expected = PINNED[case]
    spec = make_spec()
    d, labels = generate(spec)
    arrays = (d.continuous.values, d.continuous.observed, d.categorical.codes, labels)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert got == expected
    if case == "zero-sum-fallback":
        # rows whose clipped draw sums to zero fall back to their center
        assert (d.continuous.values == spec.centers[labels]).all(axis=1).any()
