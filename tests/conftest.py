"""Shared test oracles, independent of the library's eigensolver path."""

import numpy as np
import pytest

from psdmask import verify


def eig2(a, b, d):
    """Eigenvalues of [[a, b], [conj(b), d]] by the closed 2x2 formula."""
    mean = (a + d) / 2.0
    disc = np.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    return mean - disc, mean + disc


def det2(M):
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


def det3(M):
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def chol_psd(M, jitter=1e-10):
    """Cholesky-with-jitter PSD oracle."""
    M = np.asarray(M, dtype=np.complex128)
    shift = jitter * max(1.0, float(np.abs(M).max()))
    try:
        np.linalg.cholesky(M + shift * np.eye(M.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


def random_psd(rng, n, complex_entries=True, rank=None):
    """Gram-matrix PSD sample for tests that do not go through the library sampler."""
    r = rank or int(rng.integers(1, n + 1))
    B = rng.standard_normal((n, r))
    if complex_entries:
        B = B + 1j * rng.standard_normal((n, r))
    return B @ B.conj().T


def permute_conjugate(M, sigma):
    """Conjugate by the permutation matrix of sigma: output[p][q] = M[sigma[p]][sigma[q]]."""
    s = [int(i) for i in sigma]
    return np.asarray(M, dtype=np.complex128)[np.ix_(s, s)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cold_cache(monkeypatch):
    """Every battery in the test grows its witnesses from an empty cache, and
    the process cache is left untouched, so a patched constructor is called
    and what it builds or raises is not kept."""
    monkeypatch.setattr(verify, "_section", verify._section.__wrapped__)
