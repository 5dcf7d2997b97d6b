import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_psd, random_sym_with_eigs
from dissinet.matrix_core import (
    EigenDecompositionError,
    SingularBlockError,
    block_diag,
    block_inverse_2x2,
    definiteness,
    eig_general,
    eig_sym,
    expm_with_integral,
    inertia,
    kron,
    pinv_sym_psd,
    require_symmetric,
    schur_complement,
    symmetrize,
)


def test_require_symmetric_rejects_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        require_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


def random_stack(rng, k=40, n=5):
    return np.array([random_sym_with_eigs(rng, n, -3, 3) for _ in range(k)])


def test_stacked_eig_sym_equals_looped_calls():
    rng = np.random.default_rng(3)
    for n in (1, 2, 5):
        stack = random_stack(rng, n=n)
        w, V = eig_sym(stack)
        for i, M in enumerate(stack):
            wi, Vi = eig_sym(M)
            assert np.array_equal(w[i], wi) and np.array_equal(V[i], Vi)
    w, _ = eig_sym(stack.reshape(4, 10, 5, 5))
    assert np.array_equal(w.reshape(40, 5), eig_sym(stack)[0])


def test_stacked_definiteness_equals_looped_calls():
    rng = np.random.default_rng(4)
    stack = random_stack(rng)
    stack[3] = np.zeros((5, 5))
    stack[4] = np.eye(5)
    stack[5] = -np.eye(5)
    stack[6] = np.diag([0.0, 0.0, 1.0, 2.0, 3.0])
    stack[7] = -stack[6]
    for mode in ("PD", "PSD", "ND", "NSD"):
        for tol in (None, 0.0, 0.5):
            v = definiteness(stack, mode, tol)
            for i, M in enumerate(stack):
                vi = definiteness(M, mode, tol)
                assert (v.kind[i], v.min_eig[i], v.max_eig[i], v.tol_used[i],
                        v.satisfied[i]) == (vi.kind, vi.min_eig, vi.max_eig,
                                            vi.tol_used, vi.satisfied)
    assert set(definiteness(stack).kind) == {"PD", "ND", "PSD", "NSD", "Indefinite"}


def test_single_matrix_verdict_has_scalar_fields():
    v = definiteness(np.eye(2), "PD")
    assert type(v.kind) is str and type(v.satisfied) is bool
    assert type(v.min_eig) is float and type(v.tol_used) is float


def test_stacked_eig_sym_names_an_asymmetric_block():
    stack = random_stack(np.random.default_rng(5))
    stack[17, 0, 1] += 1e-3
    with pytest.raises(ValueError, match=r"blocks\[17\] is not symmetric"):
        eig_sym(stack, name="blocks")


def test_stacked_eig_sym_names_a_block_that_fails_reconstruction(monkeypatch):
    stack = random_stack(np.random.default_rng(6))
    eigh = np.linalg.eigh

    def corrupted(M):
        w, V = eigh(M)
        w = w.copy()
        w[..., 9, 0] += 1e-3   # block 9 no longer reconstructs its input
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(EigenDecompositionError, match=r"blocks\[9\] failed reconstruction"):
        eig_sym(stack, name="blocks")


def test_eig_sym_identity():
    w, V = eig_sym(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    assert np.allclose(V @ V.T, np.eye(3))


def test_eig_sym_swap_matrix():
    w, _ = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_sym_triangle_laplacian():
    # unit triangle: L = 3I - 11^T, spectrum {0, 3, 3} from the
    # characteristic polynomial lam(lam-3)^2
    L = 3.0 * np.eye(3) - np.ones((3, 3))
    w, _ = eig_sym(L)
    assert np.allclose(w, [0.0, 3.0, 3.0], atol=1e-12)


def test_eig_sym_ascending_and_reconstructs():
    rng = np.random.default_rng(0)
    for _ in range(25):
        M = random_sym_with_eigs(rng, int(rng.integers(2, 9)), -5, 5)
        w, V = eig_sym(M)
        assert np.all(np.diff(w) >= 0)
        scale = 1.0 + np.abs(M).max()
        assert np.max(np.abs((V * w) @ V.T - M)) <= 1e-10 * scale


def test_definiteness_identity_pd():
    assert definiteness(np.eye(2), "PD").satisfied


def test_definiteness_zero_matrix():
    Z = np.zeros((2, 2))
    assert definiteness(Z, "PSD").satisfied
    assert not definiteness(Z, "PD").satisfied
    assert definiteness(Z, "NSD").satisfied


def test_definiteness_verdict_fields():
    v = definiteness(np.diag([-2.0, 3.0]), "PD")
    assert v.kind == "Indefinite"
    assert not v.satisfied
    assert v.min_eig == pytest.approx(-2.0)
    assert v.max_eig == pytest.approx(3.0)


def test_definiteness_agrees_with_spectrum_fuzz():
    rng = np.random.default_rng(1)
    for _ in range(60):
        M = random_sym_with_eigs(rng, int(rng.integers(1, 7)), -3, 3)
        w, _ = eig_sym(M)
        v = definiteness(M, "PD")
        assert v.satisfied == (w[0] > v.tol_used)
        assert definiteness(M, "ND").satisfied == (w[-1] < -v.tol_used)


def test_inertia_diag():
    assert inertia(np.diag([-1.0, 0.0, 2.0])).as_tuple() == (1, 1, 1)


def test_inertia_supply_block():
    # [[Q, S], [S, R]] with Q=-1, S=0.5, R=1 has one eigenvalue each side
    M = np.array([[-1.0, 0.5], [0.5, 1.0]])
    assert inertia(M).as_tuple() == (1, 0, 1)


def test_inertia_dualization_center_matrix():
    # scalar storage/supply stack diag(-P, -R, P, -Q) with P=1, Q=-1, R=1
    M = np.diag([-1.0, -1.0, 1.0, 1.0])
    assert inertia(M).as_tuple() == (2, 0, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_inertia_congruence_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    M = random_sym_with_eigs(rng, n, -4, 4)
    T = rng.standard_normal((n, n))
    while abs(np.linalg.det(T)) < 1e-3:
        T = rng.standard_normal((n, n))
    assert inertia(M).as_tuple() == inertia(symmetrize(T @ M @ T.T)).as_tuple()


def test_schur_complement_2x2():
    out = schur_complement(np.array([[2.0, 1.0], [1.0, 1.0]]), 1)
    assert np.allclose(out, [[1.0]])


def test_schur_complement_design_lmi_scalar_blocks():
    # hand-assembled 4x4 from scalar design data
    # (P=1, A=0.5, B=0, Z=0, G=0.1, S=0.5, C=1, R=0.4, inv(Q)=-1)
    M = np.array(
        [
            [1.0, 0.5, 0.1, 0.0],
            [0.5, 1.0, 0.5, 1.0],
            [0.1, 0.5, 0.4, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ]
    )
    out = schur_complement(M, 3, eliminate="trailing")
    expected = M[:3, :3] - np.outer([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(out, expected)


def test_schur_complement_psd_property_fuzz():
    # complement of a PSD matrix with PD eliminated block stays PSD
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        M = random_psd(rng, n, hi=3.0) + 1e-6 * np.eye(n)
        out = schur_complement(M, k, eliminate="trailing")
        w, _ = eig_sym(out)
        assert w[0] >= -1e-9


def test_schur_complement_definiteness_equivalence():
    # for PD trailing block: M PD iff trailing PD and complement PD
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        M = random_sym_with_eigs(rng, n, -1, 3)
        C = M[k:, k:]
        if not definiteness(C, "PD").satisfied:
            continue
        lhs = definiteness(M, "PD").satisfied
        rhs = definiteness(schur_complement(M, k), "PD").satisfied
        assert lhs == rhs


def test_schur_complement_singular_pivot():
    M = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularBlockError) as exc:
        schur_complement(M, 1, eliminate="trailing")
    assert exc.value.condition == np.inf


def test_schur_complement_leading_form():
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    out = schur_complement(M, 1, eliminate="leading")
    assert np.allclose(out, [[0.5]])  # 1 - 1 * (1/2) * 1
    with pytest.raises(ValueError, match="eliminate"):
        schur_complement(M, 1, eliminate="sideways")


def test_kron_two_node_laplacian():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    K = kron(L, np.eye(2))
    eye = np.eye(2)
    assert np.allclose(K, np.block([[eye, -eye], [-eye, eye]]))


def test_kron_zero():
    assert np.allclose(kron(np.zeros((2, 2)), np.eye(3)), np.zeros((6, 6)))


def test_kron_ones_with_psd_is_psd():
    rng = np.random.default_rng(4)
    for _ in range(20):
        B = random_psd(rng, int(rng.integers(1, 4)))
        w, _ = eig_sym(kron(np.ones((3, 3)), B))
        assert w[0] >= -1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (int(rng.integers(1, 4)) for _ in range(4))
    A = rng.standard_normal((a, b))
    C = rng.standard_normal((b, c))
    B = rng.standard_normal((c, d))
    D = rng.standard_normal((d, a))
    assert np.allclose(kron(A, B) @ kron(C, D), kron(A @ C, B @ D), atol=1e-10)


def test_block_diag_scalars():
    assert np.allclose(block_diag([[[1.0]], [[2.0]]]), np.diag([1.0, 2.0]))


def test_block_diag_equals_kron_identity():
    rng = np.random.default_rng(5)
    S = random_sym_with_eigs(rng, 2, -1, 1)
    assert np.allclose(block_diag([S] * 4), kron(np.eye(4), S))


def test_block_diag_inertia_additivity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        blocks = [
            random_sym_with_eigs(rng, int(rng.integers(1, 4)), -2, 2)
            for _ in range(int(rng.integers(1, 4)))
        ]
        total = inertia(block_diag(blocks))
        parts = [inertia(b) for b in blocks]
        assert total.neg == sum(p.neg for p in parts)
        assert total.pos == sum(p.pos for p in parts)


def test_block_inverse_identity_triple():
    Qi, Si, Ri = block_inverse_2x2(-np.eye(2), np.zeros((2, 2)), np.eye(2))
    assert np.allclose(Qi, -np.eye(2))
    assert np.allclose(Si, 0.0)
    assert np.allclose(Ri, np.eye(2))


def test_block_inverse_scalar_hand_computed():
    # inverse of [[-2, 0.5], [0.5, 1]] worked out by hand
    Qi, Si, Ri = block_inverse_2x2([[-2.0]], [[0.5]], [[1.0]])
    assert Qi[0, 0] == pytest.approx(-4.0 / 9.0)
    assert Si[0, 0] == pytest.approx(2.0 / 9.0)
    assert Ri[0, 0] == pytest.approx(8.0 / 9.0)


def test_block_inverse_block_diagonal_structure():
    rng = np.random.default_rng(7)
    for _ in range(15):
        Q = block_diag([random_sym_with_eigs(rng, 1, -3, -0.5) for _ in range(3)])
        R = block_diag([random_sym_with_eigs(rng, 1, 0.5, 3) for _ in range(3)])
        S = np.diag(rng.uniform(-0.3, 0.3, size=3))
        Qi, Si, Ri = block_inverse_2x2(Q, S, R)
        for M in (Qi, Si, Ri):
            off = M - np.diag(np.diag(M))
            assert np.max(np.abs(off)) < 1e-10


def test_block_inverse_round_trip():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        Q = random_sym_with_eigs(rng, p, -3, -0.5)
        R = random_sym_with_eigs(rng, m, 0.5, 3)
        S = rng.standard_normal((p, m)) * 0.5
        Qi, Si, Ri = block_inverse_2x2(Q, S, R)
        Q2, S2, R2 = block_inverse_2x2(Qi, Si, Ri)
        assert np.max(np.abs(Q2 - Q)) < 1e-8
        assert np.max(np.abs(S2 - S)) < 1e-8
        assert np.max(np.abs(R2 - R)) < 1e-8


def test_block_inverse_singular_error():
    with pytest.raises(SingularBlockError):
        block_inverse_2x2([[1.0]], [[1.0]], [[1.0]])


def test_expm_zero_matrix():
    E, F = expm_with_integral(np.zeros((3, 3)), 0.7)
    assert np.allclose(E, np.eye(3))
    assert np.allclose(F, 0.7 * np.eye(3))


def test_expm_diagonal_closed_form():
    a = -1.3
    h = 0.4
    E, F = expm_with_integral([[a]], h)
    assert E[0, 0] == pytest.approx(np.exp(a * h))
    assert F[0, 0] == pytest.approx((np.exp(a * h) - 1.0) / a)


def test_expm_rotation_quarter_turn():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    E, F = expm_with_integral(A, np.pi / 2)
    assert np.allclose(E, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
    # integral of [[cos, sin], [-sin, cos]] over a quarter period
    assert np.allclose(F, [[1.0, 1.0], [-1.0, 1.0]], atol=1e-12)


def test_expm_derivative_identity():
    # d/dh e^{Ah} = A e^{Ah}, checked by central differences
    rng = np.random.default_rng(9)
    A = rng.standard_normal((3, 3))
    h, dh = 0.3, 1e-5
    E_plus, _ = expm_with_integral(A, h + dh)
    E_minus, _ = expm_with_integral(A, h - dh)
    E, _ = expm_with_integral(A, h)
    deriv = (E_plus - E_minus) / (2 * dh)
    scale = np.max(np.abs(A @ E))
    assert np.max(np.abs(deriv - A @ E)) <= 1e-6 * scale


def test_expm_rejects_bad_step():
    with pytest.raises(ValueError):
        expm_with_integral(np.eye(2), 0.0)


def test_pinv_identity():
    assert np.allclose(pinv_sym_psd(np.eye(3)), np.eye(3))


def test_pinv_two_node_laplacian():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(pinv_sym_psd(L), L / 4.0)


def test_pinv_recovers_projector_fuzz():
    rng = np.random.default_rng(10)
    for _ in range(20):
        M = random_psd(rng, int(rng.integers(2, 6)), hi=4.0)
        Mp = pinv_sym_psd(M)
        assert np.max(np.abs(M @ Mp @ M - M)) <= 1e-8 * (1.0 + np.abs(M).max())


def test_pinv_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        pinv_sym_psd(np.diag([1.0, -1.0]))


def test_eig_general_diagonal():
    w = eig_general(np.diag([0.5, -0.2]))
    assert sorted(w.real) == pytest.approx([-0.2, 0.5])


def test_eig_general_dgu_closed_loop():
    # trace/determinant give the quadratic roots directly
    M = np.array([[-2.0, 100.0], [-400.0, -480.0]])
    w = np.sort(eig_general(M).real)
    tr, det = -482.0, (-2.0) * (-480.0) - 100.0 * (-400.0)
    disc = np.sqrt(tr * tr - 4 * det)
    assert w == pytest.approx([(tr - disc) / 2, (tr + disc) / 2])


def test_eig_general_companion_of_unit_circle():
    comp = np.array([[0.0, -1.0], [1.0, 0.0]])
    w = eig_general(comp)
    assert sorted(np.round(w.imag, 12)) == [-1.0, 1.0]
    assert np.allclose(w.real, 0.0)


def test_eig_general_charpoly_residual():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        M = rng.standard_normal((n, n))
        scale = max(1.0, np.abs(M).max()) ** n
        for lam in eig_general(M):
            resid = abs(np.linalg.det(M - lam * np.eye(n)))
            assert resid <= 1e-7 * scale * math.factorial(n)


def test_congruence_preserves_psd_fuzz():
    # B^T A B is PSD for PSD A; PD for PD A and full-column-rank B
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n + 1))
        A = random_psd(rng, n)
        B = rng.standard_normal((n, k))
        w, _ = eig_sym(symmetrize(B.T @ A @ B))
        assert w[0] >= -1e-9 * (1.0 + abs(w[-1]))
        A_pd = A + 0.5 * np.eye(n)
        if np.linalg.matrix_rank(B) == k:
            assert definiteness(symmetrize(B.T @ A_pd @ B), "PD").satisfied


def test_dominated_corner_block_psd_fuzz():
    # A >= B and C >= B >= 0 make [[A, B], [B, C]] PSD
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        B = random_psd(rng, n)
        A = B + random_psd(rng, n)
        C = B + random_psd(rng, n)
        M = np.block([[A, B], [B, C]])
        w, _ = eig_sym(symmetrize(M))
        assert w[0] >= -1e-9 * (1.0 + abs(w[-1]))


def test_dualization_equivalence_fuzz():
    # strict primal form negative iff strict dual form positive, for
    # invertible [[A, B], [*, C]] with A < 0 and C > 0
    rng = np.random.default_rng(14)
    agreements = 0
    for _ in range(60):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        A = random_sym_with_eigs(rng, n, -3, -0.3)
        C = random_sym_with_eigs(rng, p, 0.3, 3)
        B = rng.standard_normal((n, p)) * 0.5
        T = np.block([[A, B], [B.T, C]])
        Tinv = np.linalg.inv(T)
        M = rng.standard_normal((p, n))
        outer = np.vstack([np.eye(n), M])
        primal = definiteness(symmetrize(outer.T @ T @ outer), "ND").satisfied
        outer_d = np.vstack([-M.T, np.eye(p)])
        dual = definiteness(symmetrize(outer_d.T @ Tinv @ outer_d), "PD").satisfied
        assert primal == dual
        agreements += 1
    assert agreements == 60
