import math

import numpy as np
import pytest

from hjacobi.testmat import EigSpec, generate_test_matrix, parse_eig_spec


def test_explicit_spectrum():
    H = generate_test_matrix(3, EigSpec(mode="explicit", values=(1.0, 2.0, 3.0)))
    w = np.sort(np.linalg.eigvalsh(H))
    assert np.allclose(w, [1.0, 2.0, 3.0], rtol=1e-12)


def test_single_negative():
    H = generate_test_matrix(1, EigSpec(mode="explicit", values=(-5.0,)))
    assert np.allclose(H, [[-5.0]])


def test_output_exactly_hermitian():
    for complex_scalars in (False, True):
        H = generate_test_matrix(10, EigSpec(seed=3), complex_scalars)
        assert np.abs(H - H.conj().T).max() == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        EigSpec(mode="explicit", values=())
    with pytest.raises(ValueError):
        EigSpec(mode="explicit", values=(1.0, 0.0))
    with pytest.raises(ValueError):
        EigSpec(mode="uniform", lo=-1.0, hi=1.0)
    with pytest.raises(ValueError):
        EigSpec(neg_fraction=1.5)
    with pytest.raises(ValueError):
        EigSpec(mode="banana")
    for values in ((1.0, 2.0, math.nan, 3.0), (1.0, math.inf, 2.0), (-math.inf,)):
        with pytest.raises(ValueError, match="finite"):
            EigSpec(mode="explicit", values=values)
    for mode in ("log_uniform", "uniform"):
        for lo, hi in ((1e-3, math.inf), (1.0, math.nan), (math.nan, 1.0), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                EigSpec(mode=mode, lo=lo, hi=hi)


def test_explicit_length_mismatch():
    with pytest.raises(ValueError):
        generate_test_matrix(4, EigSpec(mode="explicit", values=(1.0, 2.0)))


def test_negative_fraction_counts():
    spec = EigSpec(mode="log_uniform", lo=0.1, hi=1.0, neg_fraction=0.25,
                   seed=9)
    lam = spec.draw(16)
    assert int(np.sum(lam < 0)) == 4


def test_range_modes_respect_bounds():
    for mode in ("log_uniform", "uniform"):
        spec = EigSpec(mode=mode, lo=0.5, hi=2.0, neg_fraction=0.0, seed=1)
        lam = spec.draw(50)
        assert np.all(lam >= 0.5) and np.all(lam <= 2.0)


def test_generated_spectrum_matches_spec(rng):
    spec = EigSpec(mode="log_uniform", lo=1e-3, hi=1.0, neg_fraction=0.5,
                   seed=77)
    H = generate_test_matrix(64, spec)
    lam = np.sort(spec.draw(64, np.random.default_rng(77)))
    w = np.sort(np.linalg.eigvalsh(H))
    assert np.all(np.abs(w - lam) <= 1e-10 * np.abs(lam))


def test_determinism():
    spec = EigSpec(seed=123)
    a = generate_test_matrix(20, spec)
    b = generate_test_matrix(20, spec)
    assert np.array_equal(a, b)


def test_parse_eig_spec():
    s = parse_eig_spec("log:0.01:1", neg_fraction=0.3, seed=7)
    assert s.mode == "log_uniform" and s.lo == 0.01 and s.hi == 1.0
    s = parse_eig_spec("uni:1:2")
    assert s.mode == "uniform"
    s = parse_eig_spec("1,2,-3")
    assert s.mode == "explicit" and s.values == (1.0, 2.0, -3.0)
    with pytest.raises(ValueError):
        parse_eig_spec("log:oops")
