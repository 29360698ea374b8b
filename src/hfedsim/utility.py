"""Learning-utility metric over device gradients, plus PCA gradient compression.

A device's utility combines how well its latest gradient aligns with the
averaged gradient of the cohort (affinity) and how much it disagrees with the
other devices pairwise (diversity). Both terms are sums of plain dot products,
and each sum runs through the column sum of the gradients, so a refresh costs
O(m·p) for m devices of p coordinates, with no m × m Gram matrix.

The compressor is fitted once, on the [m, d] stack of the m warmup gradients
of d parameters, which it centres in place: its components come from the
eigenvectors of the m × m Gram matrix of the centred stack, with a thin SVD
for a stack taller than it is wide (m > d) or one whose p-th eigenvalue is too
small for the Gram to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True, eq=False)
class PcaModel:
    mean: np.ndarray  # [d]
    components: np.ndarray  # [p, d], orthonormal rows

    @property
    def dim(self) -> int:
        return self.components.shape[0]

    @property
    def full_dim(self) -> int:
        return self.components.shape[1]


def learning_utility(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-device utility u = eta + nu of the gradients in the rows of `g` [m, p].

    eta_i is the dot product of gradient i with the cohort mean gradient;
    nu_i is minus the average dot product with every other device's gradient.
    Returns the arrays (u, eta, nu), each [m], in row order.

    Both come from the row sums of the Gram matrix, taken without building it:
    sum_j g_i·g_j = g_i·S with S = sum_j g_j, and the term j = i is |g_i|^2.
    That is O(m·p) time and memory. It rounds differently from summing a row
    of `g @ g.T`. Both err by at most (m + p)·eps·sum_j |g_i|·|g_j|, with
    absolute values taken elementwise (tests/test_utility.py checks this
    against exact arithmetic), but the utilities are not bitwise those of the
    Gram form. The contract is that no scheduling decision flips on the
    committed scenarios: the golden traces and `tests/harness_digests.py`
    give the same digests under either form.
    """
    n = len(g)
    if n < 2:
        raise ConfigurationError("learning utility needs >= 2 devices")
    row_sums = g @ g.sum(axis=0)
    eta = row_sums / n
    nu = -(row_sums - np.einsum("ij,ij->i", g, g)) / (n - 1)
    return eta + nu, eta, nu


def pca_fit(g: np.ndarray, p: int) -> PcaModel:
    """Top-p principal directions of the warmup gradients, the m rows of `g`.

    `g` is an [m, d] float64 array, and the fit centres it in place: on
    return it holds `g - mean`, each row rounded as `pca_project` rounds its
    `g - mean`, so `components @ g[i]` is bit for bit the projection of the
    original row i. A caller that needs the gradients afterwards passes a
    copy. The fit copies no stack of its own, so on the Gram path `g` is its
    one [m, d] array (numpy's `svd` still copies its input for LAPACK).

    Components are ordered by descending variance, with each row's sign fixed
    so its largest-magnitude entry is positive (reproducible traces).

    When m <= d, the fit solves the m × m Gram eigenproblem of the centred
    [m, d] stack g with `eigh`: component k is u_k^T g / sqrt(lambda_k) for the
    eigenpair (lambda_k, u_k) of g @ g.T. That costs a fraction of a thin SVD of
    g and needs no [m, d] output beside it.

    The Gram squares the stack's condition number. A Gram component's norm is
    off by about eps·lambda_1 / lambda_k and its direction by about
    eps·lambda_1 / (lambda_k - lambda_{k+1}), where the SVD's errors grow only
    with sigma_1 / sigma_k. So the fit takes the Gram path only while
    lambda_p > sqrt(eps)·lambda_1, which bounds the norm error near
    sqrt(eps) ≈ 1.5e-8. Otherwise, and whenever m > d, it takes the thin SVD
    of g, the one path that defines every component of a rank-deficient stack
    (p = m, duplicated or all-equal gradients). The committed warmup stacks
    that take the Gram path have lambda_p / lambda_1 >= 7e-4, where the
    components agree with the SVD's to within 3e-13.

    The two paths are not bitwise equal. As for `learning_utility`, the
    contract is that no scheduling decision flips on the committed scenarios:
    the golden traces and `tests/harness_digests.py` give the same digests
    under either method.
    """
    if not (isinstance(g, np.ndarray) and g.ndim == 2 and g.dtype == np.float64):
        raise ConfigurationError("PCA fit needs an [m, d] float64 array")
    m, d = g.shape
    if m < 2:
        raise ConfigurationError("PCA fit needs >= 2 gradient vectors")
    if not 1 <= p <= min(m, d):
        raise ConfigurationError(
            f"PCA dim {p} must be in [1, min(n_vectors={m}, d={d})]"
        )
    mean = g.mean(axis=0)
    g -= mean
    resolved = False
    if m <= d:
        lam, u = np.linalg.eigh(g @ g.T)
        lam, u = lam[::-1][:p], u[:, ::-1][:, :p]  # the top p, descending
        resolved = lam[-1] > np.sqrt(np.finfo(g.dtype).eps) * lam[0]
    if resolved:
        components = (u.T @ g) / np.sqrt(lam)[:, None]
    else:
        components = np.linalg.svd(g, full_matrices=False)[2][:p].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1
    return PcaModel(mean=mean, components=components)


def pca_project(model: PcaModel, g: np.ndarray) -> np.ndarray:
    """Compress a full gradient to its principal-component coordinates."""
    if g.shape != model.mean.shape:
        raise ConfigurationError(
            f"gradient length {g.shape} does not match PCA dim {model.mean.shape}"
        )
    return model.components @ (g - model.mean)


def pca_bytes(model: PcaModel) -> int:
    """Wire size of the compressor: mean vector plus component matrix, f64 entries."""
    return 8 * (model.dim + 1) * model.full_dim
