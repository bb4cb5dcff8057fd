"""Tests for standardization, the orthogonal representation, and the
linear algebra underneath it."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icsphere import _linalg, moments, specfun, sphere
from icsphere.errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    ModelError,
)
from tests.conftest import even_exponents, exact_entries

RNG = np.random.default_rng(20240811)

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=2, max_value=12),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def random_pd(n: int, rng) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


class TestCenterAndStandardize:
    def test_center_removes_mean(self):
        z = np.array([3.0, 1.0, 2.0])
        c = sphere.center(z)
        assert c == pytest.approx([1.0, -1.0, 0.0])
        assert abs(c.sum()) < 1e-15

    def test_two_dim_image(self):
        u = sphere.standardize([1.0, 0.0])
        s = math.sqrt(0.5)
        assert u.coords == pytest.approx([s, -s])
        d = sphere.standardize([-3.0, 5.0])
        assert d.coords == pytest.approx([-s, s])

    def test_three_dim_example(self):
        u = sphere.standardize([3.0, 1.0, 2.0])
        ref = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert u.coords == pytest.approx(ref, abs=1e-15)

    def test_constant_vector_degenerate(self):
        with pytest.raises(DegenerateInputError):
            sphere.standardize([5.0, 5.0, 5.0])
        with pytest.raises(DegenerateInputError):
            sphere.standardize([0.0, 0.0])

    def test_near_constant_vector_degenerate(self):
        z = np.ones(4) + 1e-14 * np.array([1.0, -1.0, 0.5, -0.5])
        with pytest.raises(DegenerateInputError):
            sphere.standardize(z)

    def test_tie_in_two_dims_degenerate(self):
        with pytest.raises(DegenerateInputError):
            sphere.standardize([2.5, 2.5])

    @given(finite_vectors, st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=150, deadline=None)
    def test_affine_invariance(self, z, a, b):
        c = z - z.mean()
        r = np.linalg.norm(c)
        if r <= 1e-10 * max(np.linalg.norm(z), 1.0):
            return  # effectively degenerate; covered elsewhere
        u = sphere.standardize(z)
        v = sphere.standardize(a * z + b)
        assert np.max(np.abs(u.coords - v.coords)) < 1e-10

    @given(finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_on_sphere(self, z):
        c = z - z.mean()
        r = np.linalg.norm(c)
        if r <= 1e-10 * max(np.linalg.norm(z), 1.0):
            return
        u = sphere.standardize(z)
        assert abs(np.linalg.norm(u.coords) - 1.0) <= 1e-12
        assert abs(u.coords.sum()) <= 1e-12
        again = sphere.standardize(u.coords)
        assert np.max(np.abs(u.coords - again.coords)) < 1e-12

    def test_standardize_rows_matches_scalar(self):
        m = RNG.standard_normal((40, 7))
        units, kept = sphere.standardize_rows(m)
        assert kept.all()
        for i in range(40):
            one = sphere.standardize(m[i])
            assert np.array_equal(units[i].view(np.int64), one.coords.view(np.int64))

    def test_standardize_rows_drops_degenerate(self):
        m = np.vstack([np.ones(5), RNG.standard_normal(5), 2.0 * np.ones(5)])
        units, kept = sphere.standardize_rows(m)
        assert kept.tolist() == [False, True, False]
        assert units.shape == (1, 5)


def standardize_rows_reference(rows):
    """standardize_rows as whole-matrix numpy calls on a C-ordered copy,
    the formula the blocked kernel must reproduce bit for bit."""
    arr = np.array(rows, dtype=np.float64, order="C")
    # A row whose sum of squares is out of range is scaled so that its
    # largest |entry| lies in [1/2, 1).
    with np.errstate(over="ignore"):
        sumsq = np.add.reduce(arr * arr, axis=1)
    far = (sumsq < 2.0 ** -960) | (sumsq > 2.0 ** 960)
    _, e = np.frexp(np.abs(arr[far]).max(axis=1))
    arr[far] = np.ldexp(arr[far], -e[:, None])
    c = arr - arr.mean(axis=1, keepdims=True)
    r = np.linalg.norm(c, axis=1)
    kept = r > sphere.DEGENERACY_REL * np.linalg.norm(arr, axis=1)
    u = c[kept] / r[kept, None]
    u -= u.mean(axis=1, keepdims=True)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u, kept


def wide_range(rows: int, n: int, decades: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, n))
            * 10.0 ** rng.uniform(-decades, decades, (rows, n)))


def assert_same_bits(got, ref):
    (units, kept), (ref_units, ref_kept) = got, ref
    assert np.array_equal(kept, ref_kept)
    assert units.shape == ref_units.shape
    assert units.flags.c_contiguous
    # Compared as bit patterns, so that the sign of a zero counts too.
    assert np.array_equal(units.view(np.int64), ref_units.view(np.int64))


class TestScaleInvariance:
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 12)),
                  elements=exact_entries),
           even_exponents)
    @settings(max_examples=300, deadline=None)
    def test_rows_keep_every_bit_at_any_power_of_two(self, z, k):
        assert_same_bits(sphere.standardize_rows(np.ldexp(z, k)),
                         sphere.standardize_rows(z))

    def test_overflowing_mean(self):
        u = sphere.standardize([1.5e308, 1.5e308, -1.5e308])
        assert u.coords == pytest.approx(np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0),
                                         abs=1e-15)

    def test_subnormal_row_has_a_direction(self):
        u = sphere.standardize([5e-324, 0.0, 0.0])
        want = sphere.standardize([1.0, 0.0, 0.0])
        assert np.array_equal(u.coords.view(np.int64), want.coords.view(np.int64))

    @pytest.mark.parametrize("z", [[1e-310] * 3, [5e-324] * 4, [0.0, 0.0, 0.0],
                                   [-0.0, -0.0]])
    def test_subnormal_constant_and_zero_rows_stay_degenerate(self, z):
        with pytest.raises(DegenerateInputError):
            sphere.standardize(z)
        units, kept = sphere.standardize_rows([z])
        assert units.shape == (0, len(z)) and not kept.any()


class TestRowSums:
    SIZES = list(range(2, 18)) + [63, 64, 127, 128, 129, 255, 256, 257, 1000, 10**4]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("decades", [150.0, 3.0])
    def test_numpy_pairwise_order(self, n, decades):
        # Terms spanning 10^+-150 make most totals one dominant term;
        # 10^+-3 makes most totals depend on the order of every addition.
        x = wide_range(64 if n <= 1000 else 16, n, decades, seed=n)
        got = sphere._row_sums(np.ascontiguousarray(x.T))
        assert np.array_equal(got, np.add.reduce(x, axis=1))


def row_by_row(x: np.ndarray) -> np.ndarray:
    """The rows of x added one at a time, in order, from +0.0."""
    total = np.zeros(x.shape[1])
    for row in x:
        total += row
    return total


def assert_column_sums_in_row_order(x: np.ndarray) -> None:
    got = sphere._column_sums(x)
    # Compared as bit patterns, so that the sign of a zero counts too.
    assert got.view(np.int64).tolist() == row_by_row(x).view(np.int64).tolist()
    assert got.view(np.int64).tolist() == x.sum(axis=0).view(np.int64).tolist()


def binary_wide_range(rows: int, n: int, seed: int) -> np.ndarray:
    """Entries +-2^e, e uniform in [-60, 60], so that most column sums
    depend on the order of every addition."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(rows, n))
    return signs * np.exp2(rng.uniform(-60.0, 60.0, (rows, n)))


def in_workspace(x: np.ndarray, view: str) -> np.ndarray:
    """x itself, or a copy of it in a larger workspace: its prefix
    ("flat", as _resultant's blocks are), a slice past the start
    ("offset") or a column slice of a wider matrix ("columns")."""
    rows, n = x.shape
    if view == "own":
        return x
    if view == "columns":
        v = np.full((rows + 2, n + 5), np.nan)[1:rows + 1, 2:n + 2]
    else:
        start = 0 if view == "flat" else 2 * n
        work = np.full(rows * n + 3 * n, np.nan)
        v = work[start:start + x.size].reshape(x.shape)
    v[...] = x
    return v


class TestColumnSums:
    @given(n=st.integers(2, 300), rows=st.integers(1, 3000),
           seed=st.integers(0, 2 ** 32 - 1),
           zero_rows=st.lists(st.tuples(st.integers(0, 2999), st.booleans()),
                              max_size=6),
           view=st.sampled_from(["own", "flat", "offset", "columns"]))
    @settings(max_examples=150, deadline=None)
    def test_rows_added_in_order(self, n, rows, seed, zero_rows, view):
        x = binary_wide_range(rows, n, seed)
        for i, negative in zero_rows:
            x[i % rows] = -0.0 if negative else 0.0
        x = in_workspace(x, view)
        assert_column_sums_in_row_order(x)

    @pytest.mark.parametrize("rows, n", [(65536, 2), (65536, 3), (65536, 9),
                                         (65536, 10), (2048, 4096)])
    def test_shard_shapes(self, rows, n):
        x = binary_wide_range(rows, n, seed=n)
        x[[0, rows // 2]] = -0.0
        x[rows - 1] = 0.0
        assert_column_sums_in_row_order(x)

    def test_negative_zero_total_is_positive(self):
        assert_column_sums_in_row_order(np.array([[-0.0, 1.0]]))
        assert sphere._column_sums(np.array([[-0.0, 1.0]])).view(np.int64)[0] == 0


class TestStandardizeRowsBlocks:
    @staticmethod
    def with_degenerate_rows(n: int, step: int, seed: int) -> np.ndarray:
        """Five blocks and a partial one, with degenerate rows at the first,
        a middle and the last row of a block, one block of them only, and
        the matrix's last row."""
        rows = 5 * step + 2
        x = wide_range(rows, n, 3.0, seed) + np.linspace(-4.0, 4.0, rows)[:, None]
        x[0] = 2.5
        x[step - 1] = 0.0
        x[step + step // 2] = 1.0 + 1e-14 * np.arange(n)
        x[2 * step:3 * step] = -7.0
        x[-1] = 1e-310
        return x

    @pytest.mark.parametrize("block_values", [20, 64, 1000])
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 10, 17, 129])
    def test_bitwise_reference(self, monkeypatch, block_values, n):
        monkeypatch.setattr(sphere, "_ROW_BLOCK_VALUES", block_values)
        step = max(block_values // n, 1)
        x = self.with_degenerate_rows(n, step, seed=n)
        got = sphere.standardize_rows(x)
        assert not got[1][[0, step - 1, step + step // 2, 2 * step, -1]].any()
        assert_same_bits(got, standardize_rows_reference(x))

    @pytest.mark.parametrize("block_values", [20, 64, 1000])
    def test_layouts_and_dtypes(self, monkeypatch, block_values):
        monkeypatch.setattr(sphere, "_ROW_BLOCK_VALUES", block_values)
        x = self.with_degenerate_rows(10, max(block_values // 10, 1), seed=3)
        wide = np.hstack([x, x[:, ::-1]])
        fortran = np.asfortranarray(x)
        cases = [
            x[:1],
            x[1:2],
            fortran,
            fortran[:, ::-1],
            *(fortran[i:i + 1] for i in range(1, 9)),
            wide[:, ::2],
            wide[::-1, 3:13],
            np.round(x * 1000.0).astype(np.int64),
            np.arange(40.0).reshape(4, 10) * 5e-324,
            x * 1e-300,
        ]
        for rows in cases:
            assert_same_bits(sphere.standardize_rows(rows),
                             standardize_rows_reference(rows))

    def test_bits_depend_on_values_not_layout(self):
        # Wide-range values make every row sum depend on the order of its
        # additions, so a layout-dependent order would show in the bits.
        x = wide_range(5000, 50, 3.0, seed=11)
        fortran = np.asfortranarray(x)
        reversed_rows = np.ascontiguousarray(x[::-1])[::-1]
        reversed_columns = np.asfortranarray(x[:, ::-1])[:, ::-1]
        strided = np.zeros((2 * x.shape[0], 2 * x.shape[1]))
        strided[::2, ::2] = x
        strided_fortran = np.asfortranarray(strided)
        want = sphere.standardize_rows(x)
        for rows in (fortran, reversed_rows, reversed_columns,
                     strided[::2, ::2], strided_fortran[::2, ::2]):
            assert_same_bits(sphere.standardize_rows(rows), want)

    @pytest.mark.parametrize("block_values", [20, 1000])
    def test_out_buffer_gives_same_bits(self, monkeypatch, block_values):
        monkeypatch.setattr(sphere, "_ROW_BLOCK_VALUES", block_values)
        x = self.with_degenerate_rows(10, max(block_values // 10, 1), seed=4)
        x[1] = np.ldexp(x[1], 700)  # rows scaled by a power of two
        x[3] = np.ldexp(x[3], -700)
        x[-2] = 1e308
        want = sphere.standardize_rows(x)
        assert not want[1].all()
        buf = np.full_like(x, np.nan)
        got = sphere.standardize_rows(x, out=buf)
        assert_same_bits(got, want)
        assert got[0].base is buf
        # The rows' own array can take the units.
        rows = x.copy()
        got = sphere.standardize_rows(rows, out=rows)
        assert_same_bits(got, want)
        assert got[0].base is rows

    def test_no_rows(self):
        units, kept = sphere.standardize_rows(np.empty((0, 4)))
        assert units.shape == (0, 4) and kept.shape == (0,)

    def test_non_finite_rejected_in_any_block(self, monkeypatch):
        monkeypatch.setattr(sphere, "_ROW_BLOCK_VALUES", 20)
        x = wide_range(50, 4, 3.0, seed=1)
        x[47, 2] = np.nan
        with pytest.raises(DomainError):
            sphere.standardize_rows(x)

    def test_memory_is_output_plus_blocks(self):
        x = wide_range(65536, 10, 3.0, seed=5)
        tracemalloc.start()
        try:
            units, kept = sphere.standardize_rows(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept.all()
        assert peak <= units.nbytes + kept.nbytes + 2 * 2**20


class TestUnitDirection:
    def test_validation(self):
        s = math.sqrt(0.5)
        ok = sphere.UnitDirection(np.array([s, -s]))
        assert ok.dim == 2
        with pytest.raises(DomainError):
            sphere.UnitDirection(np.array([1.0, 0.0]))  # sum != 0
        with pytest.raises(DomainError):
            sphere.UnitDirection(np.array([0.5, -0.5]))  # norm != 1
        with pytest.raises(DimensionError):
            sphere.UnitDirection(np.array([1.0]))

    def test_readonly(self):
        u = sphere.standardize([1.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            u.coords[0] = 3.0

    def test_negation(self):
        u = sphere.standardize([1.0, 2.0, 4.0])
        assert np.allclose((-u).coords, -u.coords)


class TestHelmert:
    def test_two_dim_entries(self):
        v = sphere.helmert_v(2)
        s = math.sqrt(0.5)
        assert v == pytest.approx(np.array([[s, s], [-s, s]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 15, 40])
    def test_orthogonality(self, n):
        v = sphere.helmert_v(n)
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_projected_gram_block(self, n):
        v = sphere.helmert_v(n)
        p = sphere.centering_matrix(n)
        gram = v.T @ p @ v
        target = np.eye(n)
        target[n - 1, n - 1] = 0.0
        assert np.max(np.abs(gram - target)) <= 1e-13

    def test_last_column_constant(self):
        v = sphere.helmert_v(9)
        assert v[:, -1] == pytest.approx(np.full(9, 1.0 / 3.0))

    def test_rejects_small_n(self):
        with pytest.raises(DimensionError):
            sphere.helmert_v(1)


class TestJacobi:
    """_linalg.symmetric_eigen: LAPACK eigenpairs with the projector tie rule."""

    def test_identity(self):
        w, v = _linalg.symmetric_eigen(np.eye(4))
        assert w == pytest.approx(np.ones(4))
        # one tie group whose projector is I: Gram-Schmidt returns I
        assert np.array_equal(v, np.eye(4))

    def test_centering_matrix_spectrum(self):
        n = 6
        w, v = _linalg.symmetric_eigen(sphere.centering_matrix(n))
        assert w[0] == pytest.approx(0.0, abs=1e-13)
        assert w[1:] == pytest.approx(np.ones(n - 1))
        # kernel eigenvector is the constant direction with positive sign
        assert v[:, 0] == pytest.approx(np.full(n, 1.0 / math.sqrt(n)))
        # the tied block starts with the first projected basis vector
        first = np.eye(n)[0] - 1.0 / n
        assert np.max(np.abs(v[:, 1] - first / np.linalg.norm(first))) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
    def test_reconstruction(self, n):
        a = random_pd(n, np.random.default_rng(n))
        w, v = _linalg.symmetric_eigen(a)
        recon = (v * w) @ v.T
        assert np.max(np.abs(recon - a)) <= 1e-12 * np.linalg.norm(a, "fro")
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        assert np.all(np.diff(w) >= 0.0)

    def test_matches_numpy_eigenvalues(self):
        for n in (1, 2, 12, 60):
            a = random_pd(n, np.random.default_rng(7 + n))
            w, _ = _linalg.symmetric_eigen(a)
            ref = np.linalg.eigvalsh(a)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.linalg.norm(a, "fro")

    def test_deterministic_signs(self):
        a = random_pd(5, np.random.default_rng(3))
        _, v1 = _linalg.symmetric_eigen(a)
        _, v2 = _linalg.symmetric_eigen(a.copy())
        assert np.array_equal(v1, v2)
        lead = np.argmax(np.abs(v1), axis=0)
        assert np.all(v1[lead, np.arange(5)] > 0.0)

    def test_tie_rule_ignores_basis_inside_groups(self, monkeypatch):
        # spectrum 1, 2 (x3), 3, 5 (x4): LAPACK may return any orthonormal
        # basis of each tied eigenspace; the output must not depend on it.
        rng = np.random.default_rng(31)
        lam = np.array([1.0, 2.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 5.0])
        n = lam.size
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (basis * lam) @ basis.T
        a = 0.5 * (a + a.T)
        w_ref, v_ref = _linalg.symmetric_eigen(a)
        groups = _linalg.tie_groups(w_ref, np.linalg.norm(a, "fro"))
        assert [hi - lo for lo, hi in groups] == [1, 3, 1, 4]

        lapack_eigh = np.linalg.eigh
        for trial in range(5):
            def rotated_eigh(m, trial=trial):
                w, v = lapack_eigh(m)
                r = np.random.default_rng(100 + trial)
                for lo, hi in groups:
                    rot, _ = np.linalg.qr(r.standard_normal((hi - lo, hi - lo)))
                    v[:, lo:hi] = v[:, lo:hi] @ rot
                return w, v

            monkeypatch.setattr(np.linalg, "eigh", rotated_eigh)
            _, v = _linalg.symmetric_eigen(a)
            monkeypatch.undo()
            assert np.max(np.abs(v - v_ref)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_homoscedastic_cov_chi(self, n):
        model = moments.HomoscedasticModel(
            mu=np.linspace(-0.5, 0.5, n) ** 3, sigma=0.4, rho=0.2
        )
        cov = moments.cov_chi_homoscedastic(model)
        w, v = _linalg.symmetric_eigen(cov)
        fro = np.linalg.norm(cov, "fro")
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        assert np.max(np.abs((v * w) @ v.T - cov)) <= 1e-12 * fro
        g = specfun.g_var(n - 1, model.concentration())
        sizes = {
            hi - lo for lo, hi in _linalg.tie_groups(w, fro)
            if abs(w[lo] - g) <= 1e-10
        }
        assert sizes == {n - 2}

    def test_one_by_one(self):
        w, v = _linalg.symmetric_eigen(np.array([[-2.5]]))
        assert w.tolist() == [-2.5]
        assert v.tolist() == [[1.0]]

    def test_zero_matrix(self):
        w, v = _linalg.symmetric_eigen(np.zeros((4, 4)))
        assert np.array_equal(w, np.zeros(4))
        assert np.array_equal(v, np.eye(4))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            _linalg.symmetric_eigen(np.ones((2, 3)))


class TestCholesky:
    def test_reconstruction(self):
        a = random_pd(6, np.random.default_rng(11))
        low = _linalg.cholesky_lower(a)
        assert np.allclose(low @ low.T, a, atol=1e-12)
        assert np.allclose(low, np.tril(low))

    def test_matches_numpy(self):
        a = random_pd(9, np.random.default_rng(13))
        assert _linalg.cholesky_lower(a) == pytest.approx(np.linalg.cholesky(a))

    def test_rejects_indefinite(self):
        with pytest.raises(ModelError):
            _linalg.cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_semidefinite(self):
        with pytest.raises(ModelError):
            _linalg.cholesky_lower(np.ones((3, 3)))


class TestRepresentation:
    def test_identity_covariance(self):
        n = 6
        mu = RNG.standard_normal(n)
        rep = sphere.build_representation(mu, np.eye(n))
        assert rep.lam == pytest.approx(np.ones(n - 1), abs=1e-12)
        assert np.max(np.abs(rep.u.T @ rep.u - np.eye(n))) <= 1e-10

    def test_equicorrelated_covariance(self):
        n = 5
        sigma, rho = 1.3, 0.4
        cov = sigma ** 2 * ((1 - rho) * np.eye(n) + rho * np.ones((n, n)))
        rep = sphere.build_representation(np.arange(1.0, n + 1.0), cov)
        # projected covariance is isotropic with variance sigma^2 (1 - rho)
        assert rep.lam == pytest.approx(np.full(n - 1, sigma ** 2 * (1 - rho)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_random_pd_congruence(self, n):
        rng = np.random.default_rng(100 + n)
        cov = random_pd(n, rng)
        mu = rng.standard_normal(n)
        rep = sphere.build_representation(mu, cov)
        u = rep.u
        assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-10
        pu = sphere.centering_matrix(n) @ u
        gram = u.T @ pu
        target = np.eye(n)
        target[n - 1, n - 1] = 0.0
        assert np.max(np.abs(gram - target)) <= 1e-10
        block = (u.T @ cov @ u)[: n - 1, : n - 1]
        assert np.max(np.abs(block - np.diag(rep.lam))) <= 1e-9
        assert np.all(np.diff(rep.lam) <= 1e-12)
        # nu is the projected mean in the new basis
        pmu = mu - mu.mean()
        assert rep.nu == pytest.approx((u.T @ pmu)[: n - 1])

    def test_pushforward_identity(self):
        # standardizing z equals rotating the unit vector of the
        # projected coordinates back through u
        n = 7
        rng = np.random.default_rng(17)
        cov = random_pd(n, rng)
        rep = sphere.build_representation(rng.standard_normal(n), cov)
        for _ in range(5):
            z = rng.standard_normal(n)
            xi = (rep.u.T @ (z - z.mean()))[: n - 1]
            lifted = rep.u[:, : n - 1] @ (xi / np.linalg.norm(xi))
            direct = sphere.standardize(z).coords
            assert np.max(np.abs(lifted - direct)) < 1e-10

    def test_validation(self):
        with pytest.raises(DimensionError, match=r"^u must be square, got \(3, 2\)$"):
            sphere.Representation(u=np.eye(3)[:, :2], lam=np.ones(2), nu=np.zeros(2))
        with pytest.raises(DimensionError, match="^lam and nu must have length n - 1$"):
            sphere.Representation(u=np.eye(3), lam=np.ones(3), nu=np.zeros(2))
        with pytest.raises(DimensionError, match=r"^cov must be 3 x 3, got \(2, 2\)$"):
            sphere.build_representation(np.array([1.0, 0.0, -1.0]), np.eye(2))
        with pytest.raises(DomainError):
            sphere.Representation(
                u=np.eye(3) * 2.0, lam=np.ones(2), nu=np.zeros(2)
            )
        with pytest.raises(DomainError):
            sphere.Representation(
                u=np.eye(3), lam=np.array([1.0, -0.5]), nu=np.zeros(2)
            )
        with pytest.raises(DomainError):
            sphere.Representation(
                u=np.eye(3), lam=np.array([1.0, 2.0]), nu=np.zeros(2)
            )


class TestSurfaceArea:
    def test_four_dims_exact(self):
        assert sphere.support_surface_area(4) == pytest.approx(
            2.0 * math.pi, rel=1e-12
        )

    def test_anchor_values(self):
        assert sphere.support_surface_area(10) == pytest.approx(32.0, rel=0.02)
        assert sphere.support_surface_area(100) == pytest.approx(3.7e-37, rel=0.05)

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 50, 100, 300])
    def test_against_lgamma_reference(self, n):
        ref = math.exp(
            math.log(2.0)
            + 0.5 * (n - 2) * math.log(math.pi)
            - math.lgamma((n - 2) / 2.0)
        )
        assert sphere.support_surface_area(n) == pytest.approx(ref, rel=1e-12)

    def test_rejects_n_below_three(self):
        with pytest.raises(DimensionError):
            sphere.support_surface_area(2)
