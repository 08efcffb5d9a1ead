import numpy as np
import pytest

from hjacobi._kernels import pair_kind, plane_rotation, rotate_columns


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, n, complex_scalars=False, scale=1.0):
    A = rng.standard_normal((n, n))
    if complex_scalars:
        A = A + 1j * rng.standard_normal((n, n))
    return scale * (A + A.conj().T) / 2.0


def random_full_rank(rng, m, n, complex_scalars=False):
    while True:
        G = rng.standard_normal((m, n))
        if complex_scalars:
            G = G + 1j * rng.standard_normal((m, n))
        if np.linalg.matrix_rank(G) == n:
            return np.asfortranarray(G)


def graded_hermitian(rng, n, decades, complex_scalars=False, neg_fraction=0.4):
    """H = D A D with D = logspace(0, decades, n) and A = S + E, where S is
    diagonal with |S_ii| in [1, 1.25] and ||E||_2 = 0.2.  A is then
    well-conditioned and has S's inertia, which D A D shares; returns
    (H, A, number of negative eigenvalues)."""
    n_neg = int(round(neg_fraction * n))
    signs = np.ones(n)
    signs[rng.permutation(n)[:n_neg]] = -1.0
    E = random_hermitian(rng, n, complex_scalars)
    A = np.diag(signs * rng.uniform(1.0, 1.25, n)) + E * (0.2 / np.linalg.norm(E, 2))
    d = np.logspace(0, decades, n)
    return d[:, None] * A * d[None, :], A, n_neg


def kernel_rotation(d_rr, d_ss, a_rs, same_sign):
    """The sweep kernel's rotation of pivots [[d_rr, a_rs], [conj(a_rs), d_ss]],
    for scalars or arrays of pivots: eta and phase taken from the Gram entry
    a_rs as ``_kernels.sweep_rounds`` takes them (phase None for a real
    a_rs), then ``plane_rotation`` of the pair's kind.  Returns (eta, phase,
    t, cs, sn, hyp)."""
    a_rs = np.asarray(a_rs)
    aa = np.hypot(a_rs.real, a_rs.imag)
    eta = np.where(a_rs.real >= 0.0, aa, -aa)
    hyp = pair_kind(same_sign)
    phase = a_rs / eta if a_rs.dtype.kind == "c" else None
    with np.errstate(over="ignore"):  # theta = +-inf for a tiny a_rs: t = 0, cs = 1
        return (eta, phase, *plane_rotation(d_rr, d_ss, eta, hyp), hyp)


def gram_entries(M, m, R, S):
    """The Gram entries a_rs of the column pairs (R[j], S[j]) of M[:m] as
    ``_kernels.sweep_rounds`` reads them: one batched dot of each pair's
    unit-stride columns, the r column conjugated."""
    return np.matmul(M.T[R, :m].conj()[:, None, :], M.T[S, :m][:, :, None]).reshape(len(R))


def rotation_matrices(d_rr, d_ss, a_rs, same_sign):
    """W_P of each pivot, shape (pivots, 2, 2): a 2x2 identity rotated by
    ``rotate_columns`` with ``kernel_rotation``'s coefficients, all pivots at
    once as one stack of column pairs; the identity where a_rs == 0, a pair
    the kernel skips."""
    d_rr, d_ss, a_rs = (np.atleast_1d(x) for x in np.broadcast_arrays(d_rr, d_ss, a_rs))
    W = np.tile(np.eye(2, dtype=np.result_type(a_rs, np.float64)), (a_rs.size, 1, 1))
    act = np.flatnonzero(a_rs != 0)
    _, phase, _, cs, sn, hyp = kernel_rotation(d_rr[act], d_ss[act], a_rs[act], same_sign)
    out = np.empty((act.size, 2, 2), dtype=W.dtype)
    rotate_columns(W[act], phase, cs, sn, hyp, out)  # a pair's columns are rows of W[j]
    W[act] = out
    return W.transpose(0, 2, 1)
