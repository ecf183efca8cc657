"""PCA and standardizer oracles.

The eigen checks compare against a brute-force dense covariance
eigendecomposition done inline with numpy.linalg.eigh, independent of
the fitting code's Gram shortcut.
"""

import numpy as np
import pytest

from traceweights.reduction import (
    PcaModel,
    RankDeficiencyError,
    Standardizer,
    pca_fit,
    pca_transform,
)


def _reconstruct(model, x):
    """x projected onto the fitted components and mapped back to trace space."""
    return pca_transform(model, x) @ model.components + model.mean


def _brute_force_eigs(x, k):
    x = np.asarray(x, dtype=np.float64)
    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / (x.shape[0] - 1)
    evals = np.linalg.eigh(cov)[0]
    return evals[::-1][:k]


def test_rank_one_line_recovered_exactly_by_one_component():
    rng = np.random.default_rng(0)
    direction = rng.normal(size=12)
    direction /= np.linalg.norm(direction)
    t = rng.normal(size=(40, 1))
    x = 3.0 + t * direction
    model = pca_fit(x, 1)
    recon = _reconstruct(model, x)
    assert float(np.max(np.abs(recon - x))) < 1e-8
    # the single component is the line direction up to sign
    dot = abs(float(model.components[0] @ direction))
    assert dot == pytest.approx(1.0, abs=1e-10)


def test_full_rank_data_reconstructs_exactly_at_full_k():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 6))
    model = pca_fit(x, 6)
    recon = _reconstruct(model, x)
    assert float(np.max(np.abs(recon - x))) < 1e-8


def test_eigenvalues_match_brute_force_on_20_random_matrices():
    rng = np.random.default_rng(2)
    for i in range(20):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(2, 20))
        k = int(rng.integers(1, min(n, d) + 1))
        x = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        try:
            model = pca_fit(x, k)
        except RankDeficiencyError:
            continue
        ref = _brute_force_eigs(x, k)
        assert float(np.max(np.abs(model.eigenvalues - ref))) < 1e-8


def test_components_are_orthonormal():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 15))
    model = pca_fit(x, 10)
    gram = model.components @ model.components.T
    assert float(np.max(np.abs(gram - np.eye(10)))) < 1e-8


def test_eigenvalues_descend_and_match_projected_variance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 8)) * np.array([5, 4, 3, 2.5, 2, 1.5, 1, 0.5])
    model = pca_fit(x, 8)
    evs = model.eigenvalues
    assert np.all(np.diff(evs) <= 1e-12)
    z = pca_transform(model, x)
    var = z.var(axis=0, ddof=1)
    assert float(np.max(np.abs(var - evs))) < 1e-8


def test_reconstruction_error_non_increasing_in_k():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(25, 12))
    errs = []
    for k in range(1, 13):
        model = pca_fit(x, k)
        recon = _reconstruct(model, x)
        errs.append(float(np.sum((recon - x) ** 2)))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-9


def test_fit_is_invariant_to_row_order():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 9))
    perm = rng.permutation(20)
    a = pca_fit(x, 4)
    b = pca_fit(x[perm], 4)
    assert float(np.max(np.abs(a.components - b.components))) < 1e-8
    assert float(np.max(np.abs(a.eigenvalues - b.eigenvalues))) < 1e-8
    # sign convention: every component's largest-magnitude entry is positive
    for row in a.components:
        assert row[int(np.argmax(np.abs(row)))] > 0


def test_gram_and_dense_paths_agree():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(14, 10))
    tall = np.vstack([base, rng.normal(size=(6, 10)) * 0.1])  # n=20 >= d=10: dense
    wide_model = pca_fit(tall[:8], 5)  # n=8 < d=10: gram
    dense_ref = _brute_force_eigs(tall[:8], 5)
    assert float(np.max(np.abs(wide_model.eigenvalues - dense_ref))) < 1e-8
    # components from the gram path still diagonalize the dense covariance
    xc = tall[:8] - tall[:8].mean(axis=0)
    cov = (xc.T @ xc) / 7
    quad = np.diag(wide_model.components @ cov @ wide_model.components.T)
    assert float(np.max(np.abs(quad - wide_model.eigenvalues))) < 1e-8


def test_transform_of_fitted_mean_is_zero():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(15, 7)) + 4.0
    model = pca_fit(x, 3)
    z = pca_transform(model, model.mean)
    assert float(np.max(np.abs(z))) < 1e-10
    zc = pca_transform(model, x)
    assert float(np.max(np.abs(zc.mean(axis=0)))) < 1e-8


def test_pca_fit_rejects_bad_k_naming_both_bounds():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 9))
    with pytest.raises(ValueError) as err:
        pca_fit(x, 6)
    msg = str(err.value)
    assert "6" in msg and "5" in msg
    with pytest.raises(ValueError):
        pca_fit(x, 0)
    with pytest.raises(ValueError):
        pca_fit(x[:1], 1)


def test_pca_fit_raises_on_rank_deficient_data():
    x = np.tile(np.arange(6.0), (10, 1)) * np.arange(1.0, 11.0)[:, None]
    with pytest.raises(RankDeficiencyError):
        pca_fit(x, 3)  # rank-1 data cannot support 3 components
    # fewer rows than columns takes the Gram-matrix path; the same check holds
    wide = np.tile(np.arange(12.0), (4, 1)) * np.arange(1.0, 5.0)[:, None]
    with pytest.raises(RankDeficiencyError):
        pca_fit(wide, 3)


def test_transform_rejects_length_mismatch():
    rng = np.random.default_rng(10)
    model = pca_fit(rng.normal(size=(10, 6)), 2)
    with pytest.raises(ValueError):
        pca_transform(model, np.zeros(7))
    with pytest.raises(ValueError):
        pca_transform(model, np.zeros((3, 5)))


def test_standardizer_frozen_example_and_identities():
    s = Standardizer.fit(np.array([[0.0], [2.0]]))
    out = s.apply(np.array([[0.0], [2.0]]))
    assert np.array_equal(out, np.array([[-1.0], [1.0]]))

    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, 5)) * 3.0 + 2.0
    s2 = Standardizer.fit(x)
    z = s2.apply(x)
    assert float(np.max(np.abs(z.mean(axis=0)))) < 1e-6
    assert float(np.max(np.abs(z.std(axis=0) - 1.0))) < 1e-6
    back = z * s2.std + s2.mean
    assert float(np.max(np.abs(back - x))) < 1e-9


def test_standardizer_constant_dimension_maps_to_zero():
    x = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
    s = Standardizer.fit(x)
    z = s.apply(x)
    assert np.all(z[:, 0] == 0.0)
    assert s.std[0] == 1e-12

