"""Tests for the deterministic sampling stack.

The scalar generator written out in plain Python here is the reference
definition; the vectorized source must reproduce it bitwise, at every
take() boundary, and for any shard layout.
"""

import datetime
import hashlib
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from icsphere import montecarlo as mc
from icsphere import cli, fixtures, moments, specfun, sphere
from icsphere.errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    UndefinedMeanDirectionError,
)
from tests.conftest import (
    business_days,
    load_perfbench,
    one_factor_returns,
    write_panel_csv,
)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
SALT = 0x6A09E667F3BCC909


def mix64(v: int) -> int:
    v &= MASK
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & MASK
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & MASK
    v ^= v >> 31
    return v


def stream_key(seed: int, stream_id: int) -> int:
    a = mix64((seed + GAMMA) & MASK)
    b = mix64((stream_id + SALT) & MASK)
    return mix64(a ^ b)


def scalar_normals(stream: mc.SeededStream, count: int) -> np.ndarray:
    """First count normals of the stream, one attempt at a time."""
    return scalar_polar(stream, count)[0]


def scalar_polar(stream: mc.SeededStream, count: int):
    """First count normals, and the attempt that emitted each pair."""
    key = stream_key(stream.seed, stream.stream_id)

    def uniform(i: int) -> float:
        raw = mix64((key + (i + 1) * GAMMA) & MASK)
        return (raw >> 11) * 2.0 ** -53

    out: list[float] = []
    pair_attempts: list[int] = []
    attempt = 0
    while len(out) < count:
        u = uniform(2 * attempt)
        v = uniform(2 * attempt + 1)
        attempt += 1
        a = 2.0 * u - 1.0
        b = 2.0 * v - 1.0
        s = a * a + b * b
        if 0.0 < s < 1.0:
            m = float(np.sqrt(-2.0 * np.log(s) / s))
            out.append(a * m)
            out.append(b * m)
            pair_attempts.append(attempt - 1)
    return np.array(out[:count]), pair_attempts


class TestNormalSource:
    def test_matches_scalar_reference(self):
        stream = mc.SeededStream(seed=20240701, stream_id=0)
        ref = scalar_normals(stream, 400)
        got = mc._NormalSource(stream).take(400)
        assert np.array_equal(got, ref)

    def test_take_boundaries_are_invisible(self):
        stream = mc.SeededStream(seed=7, stream_id=3)
        ref = scalar_normals(stream, 16)
        src = mc._NormalSource(stream)
        pieces = [src.take(7), src.take(5), src.take(1), src.take(3)]
        assert np.array_equal(np.concatenate(pieces), ref)

    def test_zero_take(self):
        src = mc._NormalSource(mc.SeededStream(seed=1))
        assert src.take(0).size == 0
        assert np.array_equal(src.take(4), scalar_normals(mc.SeededStream(seed=1), 4))

    def test_streams_are_distinct(self):
        a = mc._NormalSource(mc.SeededStream(seed=1, stream_id=0)).take(32)
        b = mc._NormalSource(mc.SeededStream(seed=1, stream_id=1)).take(32)
        c = mc._NormalSource(mc.SeededStream(seed=2, stream_id=0)).take(32)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reproducible(self):
        s = mc.SeededStream(seed=99, stream_id=5)
        assert np.array_equal(
            mc._NormalSource(s).take(257), mc._NormalSource(s).take(257)
        )

    def test_block_crossings_match_scalar_reference(self):
        # Over more than three attempt blocks: odd takes carry a pair's
        # second variate across block ends, and the second take ends on
        # the last accepted pair of the second block. Blocks are whole
        # and drawn only when a take needs one, so the attempt count is
        # the end of the block that emitted the last used pair.
        block = mc._BLOCK_ATTEMPTS
        stream = mc.SeededStream(seed=77, stream_id=5)
        ref, pair_attempts = scalar_polar(stream, 2 * int(3.1 * block))
        src = mc._NormalSource(stream)
        used = 2 * block + 1
        pieces = [src.take(used)]
        # Pairs 0..block are consumed, and pair block is in the second block.
        assert pair_attempts[block] // block == 1
        pairs = sum(j < 2 * block for j in pair_attempts)
        sizes = [2 * pairs - used, 2 * block + 3, 1, 4097]
        for size in sizes:
            last = pair_attempts[(used + 1) // 2 - 1]
            assert src._attempts == (last // block + 1) * block
            pieces.append(src.take(size))
            used += size
        assert used <= ref.size
        assert np.array_equal(np.concatenate(pieces), ref[:used])
        last = pair_attempts[(used + 1) // 2 - 1]
        assert src._attempts == (last // block + 1) * block
        assert src._attempts > 3 * block

    def test_take_into_out_matches_take(self):
        # Uneven odd takes leave a pair's second variate, which the next
        # take must hand on whether or not it writes into a buffer; a
        # take writes exactly out[:count], so the buffer needs no spare
        # slot, and its stale values beyond a take must not leak.
        stream = mc.SeededStream(seed=31, stream_id=2)
        sizes = [1, 7, 2 * mc._BLOCK_ATTEMPTS + 3, 0, 4, 9, 40001, 6]
        plain = mc._NormalSource(stream)
        into = mc._NormalSource(stream)
        buf = np.full(max(sizes), np.nan)
        for size in sizes:
            want = plain.take(size)
            got = into.take(size, buf)
            assert got.base is buf and got.size == size
            assert np.array_equal(got, want)
            assert into._attempts == plain._attempts
            assert np.array_equal(into._left, plain._left)
        assert plain._left.size % 2 == 1

    def test_shard_bits_frozen(self):
        # Frozen before the sampler moved to attempt blocks: a speedup
        # must not change the draws.
        src = mc._NormalSource(mc.SeededStream(20240701))
        z = src.take(mc.SHARD_ROWS * 10)
        assert hashlib.sha256(z.tobytes()).hexdigest() == (
            "80e7880bde91d3e709b145f30bed0664c00553274fcff6a61f4cf1ec0f7dd0bd")
        # Its last pair came from attempt 416,764, in the 26th block.
        block = mc._BLOCK_ATTEMPTS
        assert src._attempts == (416764 // block + 1) * block

    def test_shard_take_memory(self):
        # One shard's take holds its output and a few block-sized
        # buffers, not whole-shard temporaries.
        src = mc._NormalSource(mc.SeededStream(seed=3))
        tracemalloc.start()
        try:
            z = src.take(mc.SHARD_ROWS * 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= z.nbytes + (4 << 20)

    def test_streamed_resultant_memory(self):
        # Each shard streams in row blocks: no shard-sized normals, draws
        # or directions (5.2 MB each at n = 10) are ever held.
        mu, cov = fixtures.load_params(None, "ten_base")
        model = moments.GaussianModel(mu, cov)
        tracemalloc.start()
        try:
            mc.estimate_chi_mrl(model, 1 << 20, mc.SeededStream(seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_moments_sane(self):
        z = mc._NormalSource(mc.SeededStream(seed=12345)).take(200000)
        n = z.size
        assert abs(z.mean()) < 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
        # symmetry of tails
        assert abs((z > 1.96).mean() - 0.025) < 4.0 * math.sqrt(0.025 / n)
        assert abs((z < -1.96).mean() - 0.025) < 4.0 * math.sqrt(0.025 / n)


class TestSeededStream:
    def test_key_matches_reference(self):
        s = mc.SeededStream(seed=20240701, stream_id=42)
        assert s.key() == stream_key(20240701, 42)

    def test_shift_wraps(self):
        s = mc.SeededStream(seed=0, stream_id=MASK)
        assert s.shifted(1).stream_id == 0

    def test_negative_seed_normalized(self):
        s = mc.SeededStream(seed=-1)
        assert s.seed == MASK

    def test_non_integer_seed_is_domain_error(self):
        with pytest.raises(DomainError, match="seed"):
            mc.SeededStream(1.5)
        with pytest.raises(DomainError, match="stream_id"):
            mc.SeededStream(1, 0.5)


class TestShards:
    def test_small_count_single_shard(self):
        def rows(count):
            return mc._map_shards(lambda g: g.shape, 2, count, mc.SeededStream(0))
        assert rows(100) == [(100, 2)]
        assert rows(mc.SHARD_ROWS) == [(mc.SHARD_ROWS, 2)]

    def test_split_counts(self):
        stream = mc.SeededStream(7)
        shards = mc._map_shards(lambda g: g, 2, mc.SHARD_ROWS * 2 + 5, stream)
        assert [g.shape for g in shards] == [(mc.SHARD_ROWS, 2)] * 2 + [(5, 2)]
        for i, g in enumerate(shards):
            want = mc._NormalSource(stream.shifted(i)).take(g.size)
            assert np.array_equal(g.ravel(), want)

    def test_block_rows_power_of_two_dividing_shard(self):
        # Every n that can stream, then n around 2^17 / 2^k beyond it.
        edges = [(mc._SHARD_BLOCK_VALUES >> k) + d for k in range(4)
                 for d in (-1, 0, 1)]
        for n in [*range(2, 8202), *edges, 1 << 20]:
            step = mc._block_rows(n)
            assert step & (step - 1) == 0 and mc.SHARD_ROWS % step == 0, n
            assert (step == mc.SHARD_ROWS
                    or step * n <= mc._SHARD_BLOCK_VALUES < 2 * step * n), n
        # Whole shards where blocks changed the draws' bits.
        assert [mc._block_rows(n) for n in (10, 192, 193, 200, 257, 8192, 8200)] == [
            8192, 512, mc.SHARD_ROWS, 512, mc.SHARD_ROWS, 16, mc.SHARD_ROWS]


class TestSampleMVN:
    def test_shard_layout_is_the_contract(self):
        model = moments.GaussianModel(
            mu=np.array([0.1, -0.2, 0.3]), cov=np.eye(3)
        )
        stream = mc.SeededStream(seed=11, stream_id=7)
        count = 2 * mc.SHARD_ROWS + 18928
        full = mc.sample_mvn(model, count, stream)
        parts = [
            mc.sample_mvn(model, mc.SHARD_ROWS, stream),
            mc.sample_mvn(model, mc.SHARD_ROWS, stream.shifted(1)),
            mc.sample_mvn(model, 18928, stream.shifted(2)),
        ]
        assert np.array_equal(full, np.vstack(parts))

    def test_first_row_matches_reference(self):
        mu = np.array([1.0, 2.0])
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        model = moments.GaussianModel(mu=mu, cov=cov)
        stream = mc.SeededStream(seed=3, stream_id=9)
        x = mc.sample_mvn(model, 5, stream)
        g = scalar_normals(stream, 10).reshape(5, 2)
        ref = g @ model.chol.T + mu
        assert np.array_equal(x, ref)

    def test_mean_and_cov_recovered(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + 0.5 * np.eye(4)
        mu = np.array([1.0, -2.0, 0.5, 3.0])
        model = moments.GaussianModel(mu=mu, cov=cov)
        n = 100000
        x = mc.sample_mvn(model, n, mc.SeededStream(seed=77))
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(x.mean(axis=0) - mu) <= 4.0 * se_mean)
        sample_cov = np.cov(x, rowvar=False)
        d = np.diag(cov)
        se_cov = np.sqrt((np.outer(d, d) + cov ** 2) / n)
        assert np.all(np.abs(sample_cov - cov) <= 4.0 * se_cov)

    def test_rejects_bad_count(self):
        model = moments.GaussianModel(mu=np.zeros(2), cov=np.eye(2))
        with pytest.raises(DomainError):
            mc.sample_mvn(model, 0, mc.SeededStream(seed=1))


class TestDirectionalSample:
    def test_validation(self):
        s = math.sqrt(0.5)
        ok = mc.DirectionalSample(np.array([[s, -s], [-s, s]]))
        assert ok.size == 2 and ok.dim == 2
        with pytest.raises(DomainError):
            mc.DirectionalSample(np.array([[1.0, 0.0]]))
        with pytest.raises(DomainError):
            mc.DirectionalSample(np.array([[2 * s, -2 * s]]))
        with pytest.raises(DimensionError):
            mc.DirectionalSample(np.array([s, -s]))
        with pytest.raises(DomainError):
            mc.DirectionalSample(np.array([[np.nan, 0.0]]))

    def test_rows_readonly(self):
        s = math.sqrt(0.5)
        d = mc.DirectionalSample(np.array([[s, -s]]))
        with pytest.raises(ValueError):
            d.matrix[0, 0] = 1.0
        assert d.points()[0].coords == pytest.approx([s, -s])

    def test_estimates_depend_on_values_not_layout(self):
        # Column sums over 5,000 rows add in a layout-dependent order
        # unless the sample holds one layout.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5000, 50)) * 10.0 ** rng.uniform(-3, 3, (5000, 50))
        units, _ = sphere.standardize_rows(x)
        c_order = mc.DirectionalSample(units)
        fortran = mc.DirectionalSample(np.asfortranarray(units))
        assert fortran.matrix.flags.c_contiguous
        want, got = mc.estimate_md_mrl(c_order), mc.estimate_md_mrl(fortran)
        assert float.hex(got.mrl) == float.hex(want.mrl)
        assert np.array_equal(got.md.coords, want.md.coords)
        assert np.array_equal(mc.estimate_cov(fortran), mc.estimate_cov(c_order))

    @pytest.mark.parametrize("which,count,seed,want", [
        ("ten_base", 2 * mc.SHARD_ROWS + 777, 71,
         "eb455c8c6b9a7d4383e234602560efc589c69fbc071c134816f6d3c0141b38b6"),
        # The partial shard's 34,467 rows at n = 3 take an odd count of
        # normals, which ends on a cached variate.
        ("three", 100003, 72,
         "59471c0f1ae46a7fb0a4d220757080ae5532caa05fe6cf4e7bfd55a86791ebc5"),
    ], ids=["ten_base", "three"])
    def test_sample_chi_frozen(self, which, count, seed, want):
        # Frozen while sample_chi standardized sample_mvn's stacked draws.
        mu, cov = fixtures.load_params(None, which)
        sample = mc.sample_chi(moments.GaussianModel(mu, cov), count,
                               mc.SeededStream(seed))
        assert sample.size == count
        assert digest(sample.matrix) == want


class TestEstimators:
    @staticmethod
    def toy_sample(n_rows: int = 500, dim: int = 4, seed: int = 21):
        model = moments.GaussianModel(
            mu=np.array([0.6, 0.1, -0.2, 0.0]), cov=np.eye(dim)
        )
        return mc.sample_chi(model, n_rows, mc.SeededStream(seed=seed))

    def test_md_mrl_on_identical_rows(self):
        u = sphere.standardize([3.0, -1.0, 0.0]).coords
        sample = mc.DirectionalSample(np.tile(u, (10, 1)))
        summary = mc.estimate_md_mrl(sample)
        assert summary.mrl == pytest.approx(1.0, abs=1e-12)
        assert summary.md.coords == pytest.approx(u, abs=1e-12)

    def test_md_mrl_on_balanced_pair(self):
        u = sphere.standardize([1.0, 0.0, -1.0]).coords
        sample = mc.DirectionalSample(np.vstack([u, -u]))
        with pytest.raises(UndefinedMeanDirectionError) as exc:
            mc.estimate_md_mrl(sample)
        assert exc.value.mrl <= 1e-12

    def test_cov_identical_rows_is_zero(self):
        u = sphere.standardize([2.0, -3.0, 1.0]).coords
        sample = mc.DirectionalSample(np.tile(u, (5, 1)))
        assert np.max(np.abs(mc.estimate_cov(sample))) < 1e-15

    def test_cov_annihilates_constant_vector(self):
        sample = self.toy_sample()
        cov = mc.estimate_cov(sample)
        assert np.max(np.abs(cov @ np.ones(sample.dim))) < 1e-10
        assert np.max(np.abs(cov - cov.T)) == 0.0

    def test_scatter_trace_is_one(self):
        sample = self.toy_sample()
        scatter = mc.scatter_matrix(sample)
        assert np.trace(scatter) == pytest.approx(1.0, abs=1e-12)

    def test_scatter_single_point(self):
        u = sphere.standardize([1.0, 2.0, -3.0]).coords
        sample = mc.DirectionalSample(u[None, :])
        assert mc.scatter_matrix(sample) == pytest.approx(np.outer(u, u))

    def test_streaming_mrl_matches_materialized(self):
        model = moments.GaussianModel(
            mu=np.array([0.4, -0.1, 0.0]), cov=np.eye(3)
        )
        stream = mc.SeededStream(seed=31)
        direct = mc.estimate_md_mrl(mc.sample_chi(model, 5000, stream)).mrl
        streaming = mc.estimate_chi_mrl(model, 5000, stream)
        assert streaming == pytest.approx(direct, abs=1e-12)


def moments_digest(res):
    return [hashlib.sha256(getattr(res, name).tobytes()).hexdigest()
            for name in ("mean", "cov", "se_mean", "se_cov")]


class TestProjectedMomentsMC:
    # mean frozen before the shard kernel moved to transposed row blocks;
    # cov, se_mean and se_cov re-pinned when shards streamed in row blocks,
    # whose BLAS products sum block by block. The cases reach each branch
    # of sphere._row_sums (n < 8, 8 <= n <= 128, n > 128) and end on a
    # partial shard and a partial block.
    @pytest.mark.parametrize("n,x,count,seed,digest", [
        (3, 1.0, 2 * mc.SHARD_ROWS + 777, 71, [
            "37e80eb0edfed332eb307add0acc231ee7e0adbf758b0fd1fcde33a600847b95",
            "44c96eb1de70bc96b4fdaf7cbad9730f3fca4c33ccea03935f9e7aad1348f9be",
            "c5a0e484614f0df4b9316a21299603ce622df7fa076dcab2ec11dc543ba9699c",
            "d54c9e55bf7d5a6bd0eab08ec2293e856f286bae1a3a48149c19a439d1eaf1a9"]),
        (9, 0.1288, mc.SHARD_ROWS + 5, 72, [
            "6cfb7177def6b7fcedadb6be44eec566494c08ca2f29aa928c9ddd19db0dfff4",
            "fc3380a09fa2bcd715ba2fe4f904845a12223257f2a40cfa5c8f6a51cec150eb",
            "78bb1cc25031eb34ccf9bfd43b2dd93953c18eaa6cdc307bf56b16e5a362cf82",
            "0e1e3dd24db41b35be6b6ecb38d0af914610313ffe7901c045a0eca06669122a"]),
        (200, 5.0, 5000, 73, [
            "5124b2b79e9728ca8e8e792d4801eed5db21b56fbd64a80950b4ad22fd5ac3bf",
            "f720a06ffa50865d360e8cb5c94d7855351fcf8c5022e3466d64f1e97a77c84f",
            "848461dc578ae861e019b9820b30bf79c1ea0fe9c39b68e1a08980418ea77364",
            "aa8a3307e909e96251861f3916ad0c423a3436948439d3f0fdc1c15d0f51a48d"]),
    ], ids=["n3", "n9", "n200"])
    def test_frozen_bits(self, n, x, count, seed, digest):
        res = mc.projected_moments_mc(n, x, count, mc.SeededStream(seed=seed))
        assert res.count == count
        assert moments_digest(res) == digest

    @pytest.mark.parametrize("n,x", [(3, 1.0), (9, 0.1288)])
    def test_matches_whole_sample_reference(self, n, x):
        # The same normals, normalized and reduced by plain numpy over the
        # whole sample. mean adds each shard's rows in order, then the
        # shard sums, in every bit; the BLAS products sum block by block,
        # so the rest agree to rounding, relative to each output's
        # largest entry (an off-diagonal cov entry is a small difference).
        count = 2 * mc.SHARD_ROWS + 777
        stream = mc.SeededStream(seed=80 + n)
        res = mc.projected_moments_mc(n, x, count, stream)
        shards = []
        for i, start in enumerate(range(0, count, mc.SHARD_ROWS)):
            rows = min(mc.SHARD_ROWS, count - start)
            g = mc._NormalSource(stream.shifted(i)).take(rows * n).reshape(rows, n)
            g[:, 0] += x
            shards.append(g / np.linalg.norm(g, axis=1)[:, None])
        mean = sum(u.sum(axis=0) for u in shards) / count
        u = np.vstack(shards)
        raw2 = u.T @ u / count
        u *= u
        want = {
            "cov": raw2 - np.outer(mean, mean),
            "se_mean": np.sqrt(np.clip(np.diag(raw2) - mean ** 2, 0.0, None) / count),
            "se_cov": np.sqrt(np.clip(u.T @ u / count - raw2 ** 2, 0.0, None) / count),
        }
        assert res.count == count
        assert np.array_equal(res.mean, mean)
        for name, ref in want.items():
            err = np.max(np.abs(getattr(res, name) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("n,x,count,bound", [
        (9, 0.1288, 1 << 18, 2.5),
        (200, 5.0, mc.SHARD_ROWS + 5, 4.5),
    ], ids=["n9", "n200"])
    def test_memory_is_one_block(self, n, x, count, bound):
        # Shards stream in row blocks of at most 2^17 values through one
        # normals buffer: 6.0 and 102 MiB when each shard was held whole.
        tracemalloc.start()
        try:
            mc.projected_moments_mc(n, x, count, mc.SeededStream(seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2 ** 20

    def test_zero_row_dropped_without_warning(self, monkeypatch):
        n = 5
        take = mc._NormalSource.take

        def take_with_zero_row(source, count, out=None):
            out = take(source, count, out)
            out[n:2 * n] = 0.0  # the second row of every shard
            return out

        monkeypatch.setattr(mc._NormalSource, "take", take_with_zero_row)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mc.projected_moments_mc(n, 0.0, 3000, mc.SeededStream(seed=74))
        assert res.count == 2999
        assert moments_digest(res) == [
            "ed94b37423b7f4625dce043187d87779a6d92bad5b1ad9c148178e04530ab756",
            "a63116085852bb121e5ac24264d192d30fe36df989092c79dbf22b0fdea51303",
            "cffa0d640091436424b343bcca0ba409958b31e201d3944c1676dd26acd21f8d",
            "4aebcd2cdf76ec78ae294ff03d36cca80e27c89908b759e6c965709c010349d7"]

    def test_recovers_closed_forms(self):
        n, x, count = 3, 1.0, 200000
        res = mc.projected_moments_mc(n, x, count, mc.SeededStream(seed=101))
        assert res.count == count
        target_mean = np.zeros(n)
        target_mean[0] = specfun.varrho(n, x)
        assert np.all(
            np.abs(res.mean - target_mean) <= 4.0 * res.se_mean + 1e-12
        )
        target = np.diag(
            [specfun.f_var(n, x)] + [specfun.g_var(n, x)] * (n - 1)
        )
        assert np.all(np.abs(res.cov - target) <= 4.0 * res.se_cov + 1e-12)

    def test_zero_signal_is_uniform(self):
        n, count = 4, 100000
        res = mc.projected_moments_mc(n, 0.0, count, mc.SeededStream(seed=55))
        assert np.all(np.abs(res.mean) <= 4.0 * res.se_mean + 1e-12)
        target = np.eye(n) / n
        assert np.all(np.abs(res.cov - target) <= 4.0 * res.se_cov + 1e-12)

    def test_rejects_bad_inputs(self):
        s = mc.SeededStream(seed=1)
        with pytest.raises(DimensionError):
            mc.projected_moments_mc(1, 0.5, 100, s)
        with pytest.raises(DomainError):
            mc.projected_moments_mc(3, -0.5, 100, s)
        with pytest.raises(DomainError):
            mc.projected_moments_mc(3, math.inf, 100, s)

    def test_non_integer_n_is_domain_error(self):
        s = mc.SeededStream(seed=1)
        with pytest.raises(DomainError, match="n must be an int"):
            mc.projected_moments_mc(2.5, 1.0, 100, s)


class TestKDE:
    def test_fixed_bandwidth_honored(self):
        vals = np.array([0.0, 1.0, 2.0, 3.0])
        est = mc.kde(vals, bandwidth=0.5)
        assert est.bandwidth == 0.5
        assert est.grid[0] == pytest.approx(-1.5)
        assert est.grid[-1] == pytest.approx(4.5)
        assert est.grid.size == 512

    def test_standard_normal_density(self):
        vals = mc._NormalSource(mc.SeededStream(seed=2024)).take(100000)
        est = mc.kde(vals)
        mass = float(np.trapezoid(est.density, est.grid))
        assert abs(mass - 1.0) <= 1e-6
        # At h = 0.09 the kernel bias at 0 is -0.4% and the standard
        # error 0.9%; TestKDEAgainstDirectSum covers the arithmetic.
        at_zero = est.density[np.argmin(np.abs(est.grid))]
        assert at_zero == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=0.02)

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateInputError):
            mc.kde(np.ones(50))

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            mc.kde(np.array([1.0]))
        with pytest.raises(DomainError):
            mc.kde(np.array([1.0, np.inf]))
        with pytest.raises(DomainError):
            mc.kde(np.array([1.0, 2.0]), bandwidth=-1.0)

    def test_density_estimate_mass_guard(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError):
            mc.DensityEstimate(grid=grid, density=np.full(11, 3.0), bandwidth=1.0)
        # Unchecked where the grid does not resolve the kernel.
        mc.DensityEstimate(grid=grid, density=np.full(11, 3.0), bandwidth=0.05)

    def test_density_estimate_shape_and_sign(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DimensionError,
                           match="^grid and density must be equal-length vectors$"):
            mc.DensityEstimate(grid=grid, density=np.ones(10), bandwidth=0.05)
        negative = np.ones(11)
        negative[3] = -1e-3
        with pytest.raises(DomainError, match="^density must be nonnegative$"):
            mc.DensityEstimate(grid=grid, density=negative, bandwidth=0.05)


def direct_sum_kde(values, grid, h):
    """The Gaussian KDE summed point by point: the oracle for mc.kde."""
    dens = np.zeros(grid.size)
    for start in range(0, values.size, 4096):
        z = (grid[None, :] - values[start:start + 4096, None]) / h
        dens += np.exp(-0.5 * z * z).sum(axis=0)
    return dens / (values.size * h * math.sqrt(2.0 * math.pi))


def relative_error(values, est):
    """max |kde - direct sum| over the direct sum's peak."""
    ref = direct_sum_kde(values, est.grid, est.bandwidth)
    return float(np.max(np.abs(est.density - ref)) / ref.max())


def binning_bound(est):
    """(d/h)^2 / 8 for the binning step d = step / ceil(128 step / h)."""
    step = est.grid[1] - est.grid[0]
    d = step / math.ceil(128.0 * step / est.bandwidth)
    return (d / est.bandwidth) ** 2 / 8.0


def bandwidth_at(values, k):
    """The h for which h = (grid step) / k, the grid spanning +-3h."""
    return float(values.max() - values.min()) / (511.0 * k - 6.0)


class TestKDEAgainstDirectSum:
    TWO_POINT = np.array([-1.0, 1.0] * 500)

    def test_ten_hetero_projections(self):
        mu, cov = fixtures.load_params(None, "ten_hetero")
        est, values = mc.ic_distribution(
            moments.GaussianModel(mu, cov), "sample_md", 1 << 16,
            mc.SeededStream(seed=3),
        )
        assert relative_error(values, est) <= 1e-6

    def test_seeded_normals(self):
        vals = mc._NormalSource(mc.SeededStream(seed=2024)).take(100000)
        assert relative_error(vals, mc.kde(vals)) <= 1e-6

    @pytest.mark.parametrize("values,bandwidth", [
        (TWO_POINT, None),
        (TWO_POINT, 0.01),
        (np.linspace(-1.25, 1.25, 1001), 50.0),
    ], ids=["two_point_auto", "two_point_h0.01", "width2.5_h50"])
    def test_packed_inputs_within_binning_bound(self, values, bandwidth):
        # Linear binning is exact for linear functions; its worst case is
        # (d/h)^2 / 8 of the peak, where all the mass sits in a few bins.
        est = mc.kde(values, bandwidth)
        assert relative_error(values, est) <= binning_bound(est) + 1e-12

    def test_empty_gap_is_clipped_at_zero(self):
        # Between the two points the FFT leaves round-off near -1e-13.
        est = mc.kde(self.TWO_POINT, 0.01)
        assert est.density.min() >= 0.0

    def test_bandwidth_floor_is_cheap(self):
        vals = mc._NormalSource(mc.SeededStream(seed=5)).take(20000)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"2\^20 \+ 1"):
                mc.kde(vals, 1e-12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        with pytest.raises(DomainError, match="floor"):
            mc.kde(vals, bandwidth_at(vals, 17.0))

    @pytest.mark.parametrize("k", [15.0, 16.0])
    def test_sparse_sample_near_floor(self, k):
        # The 512-point grid does not resolve a kernel this narrow: its
        # trapezoid reads a mass of 0.985. The mass is checked on the
        # binning grid instead.
        vals = mc._NormalSource(mc.SeededStream(seed=5)).take(20000)
        est = mc.kde(vals, bandwidth_at(vals, k))
        assert float(np.trapezoid(est.density, est.grid)) < 0.99
        assert relative_error(vals, est) <= binning_bound(est) + 1e-12

    def test_mass_checked_on_binning_grid(self, monkeypatch):
        # A kernel cut off at h / 2 holds about 38% of the mass; near the
        # floor only kde's own check can see that.
        vals = mc._NormalSource(mc.SeededStream(seed=5)).take(20000)
        monkeypatch.setattr(mc, "_KDE_CUTOFF", 0.5)
        with pytest.raises(DomainError, match="integrates to 0.38"):
            mc.kde(vals, bandwidth_at(vals, 15.0))

    def test_just_above_floor(self):
        # At h = step / 15 the 512-point grid can no longer integrate a
        # sparse sample's spikes, so the values are spread evenly.
        vals = np.linspace(-1.0, 1.0, 20001)
        est = mc.kde(vals, bandwidth_at(vals, 15.0))
        assert relative_error(vals, est) <= binning_bound(est) + 1e-12


class TestICDistribution:
    def test_two_assets_is_two_point(self):
        model = moments.GaussianModel(mu=np.array([0.5, 0.0]), cov=np.eye(2))
        est, values = mc.ic_distribution(
            model, "chi_mu", 4000, mc.SeededStream(seed=8)
        )
        assert set(np.round(values, 12)) <= {-1.0, 1.0}
        mrl = specfun.varrho(1, model.mu[0] / math.sqrt(2.0))
        se = math.sqrt(1.0 - mrl * mrl) / math.sqrt(values.size)
        assert abs(values.mean() - mrl) <= 4.0 * se
        assert est.grid.size == 512

    def test_chi_mu_mean_matches_resultant_curve(self):
        n = 10
        rng = np.random.default_rng(6)
        mu = rng.standard_normal(n) * 0.01
        model = moments.HomoscedasticModel(mu=mu, sigma=0.02, rho=0.1)
        summary = moments.md_mrl_homoscedastic(model)
        _, values = mc.ic_distribution(
            model.to_gaussian(), "chi_mu", 100000, mc.SeededStream(seed=41)
        )
        var_t = moments.variance_T(summary.md, summary.cov_chi)
        se = math.sqrt(var_t / values.size)
        assert abs(values.mean() - summary.mrl) <= 4.0 * se

    def test_sample_md_mean_equals_sample_mrl(self):
        model = moments.GaussianModel(
            mu=np.array([0.3, 0.0, -0.3]), cov=np.eye(3)
        )
        stream = mc.SeededStream(seed=17)
        _, values = mc.ic_distribution(model, "sample_md", 3000, stream)
        mrl_hat = mc.estimate_md_mrl(mc.sample_chi(model, 3000, stream)).mrl
        assert values.mean() == pytest.approx(mrl_hat, abs=1e-10)

    def test_deterministic(self):
        model = moments.GaussianModel(mu=np.array([0.2, -0.2]), cov=np.eye(2))
        s = mc.SeededStream(seed=3)
        _, v1 = mc.ic_distribution(model, "chi_mu", 2000, s)
        _, v2 = mc.ic_distribution(model, "chi_mu", 2000, s)
        assert np.array_equal(v1, v2)

    def test_degenerate_mean_rejected_for_chi_mu(self):
        model = moments.GaussianModel(mu=np.ones(3), cov=np.eye(3))
        with pytest.raises(UndefinedMeanDirectionError):
            mc.ic_distribution(model, "chi_mu", 100, mc.SeededStream(seed=1))

    def test_sample_md_tests_the_mean_resultant(self, monkeypatch):
        # 10^6 kept rows that sum to norm 1.4e-9 are a mean resultant of
        # 1.4e-15: undefined for sample_md exactly as for md-perturb.
        # Both reach the rows through _directions.
        rows = np.zeros((10**6, 3))
        rows[0] = np.array([1.0, -1.0, 0.0]) * (1.4e-9 / math.sqrt(2.0))
        monkeypatch.setattr(mc, "_directions", lambda model, g, out=None: rows)
        model = moments.GaussianModel(mu=np.array([0.3, 0.0, -0.3]), cov=np.eye(3))
        stream = mc.SeededStream(seed=2)
        with pytest.raises(UndefinedMeanDirectionError):
            mc.md_perturbation_experiment(model.mu, model.cov, "mu1", [1.0],
                                          100, stream)
        with pytest.raises(UndefinedMeanDirectionError):
            mc.ic_distribution(model, "sample_md", 100, stream)

    def test_bad_mode_rejected(self):
        model = moments.GaussianModel(mu=np.zeros(2), cov=np.eye(2))
        with pytest.raises(DomainError):
            mc.ic_distribution(model, "other", 100, mc.SeededStream(seed=1))

    @pytest.mark.parametrize("mode,limit", [
        ("sample_md", 28.5), ("chi_mu", 15.0)])
    def test_directions_overwrite_their_draws(self, mode, limit):
        # Each shard's directions are written into its draws array, so
        # no second shard-sized array (5.2 MB at n = 10) is held per
        # shard: peaks of 31.5 and 18.0 MiB when they had their own.
        mu, cov = fixtures.load_params(None, "ten_hetero")
        model = moments.GaussianModel(mu, cov)
        tracemalloc.start()
        try:
            mc.ic_distribution(model, mode, 1 << 18, mc.SeededStream(seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit * (1 << 20), peak / (1 << 20)


class TestPerturbationExperiment:
    MU = np.array([1.0, 0.2, -0.5])
    COV = 0.25 * np.eye(3)

    def test_mu1_axis_tracks_closed_form(self):
        factors = [0.5, 1.0, 2.0]
        points = mc.md_perturbation_experiment(
            self.MU, self.COV, "mu1", factors, 20000, mc.SeededStream(seed=70)
        )
        assert [p.factor for p in points] == factors
        for p in points:
            mu_k = self.MU.copy()
            mu_k[0] *= p.factor
            model = moments.HomoscedasticModel(mu=mu_k, sigma=0.5, rho=0.0)
            truth = moments.md_mrl_homoscedastic(model)
            cosine = float(p.md.coords @ truth.md.coords)
            assert cosine > math.cos(math.radians(2.0))
            assert p.mrl == pytest.approx(truth.mrl, abs=0.02)

    def test_sigma1_axis_decreases_concentration(self):
        points = mc.md_perturbation_experiment(
            self.MU, self.COV, "sigma1", [1.0, 3.0], 20000,
            mc.SeededStream(seed=71),
        )
        assert points[1].mrl < points[0].mrl

    def test_deterministic(self):
        a = mc.md_perturbation_experiment(
            self.MU, self.COV, "mu1", [1.0, 2.0], 2000, mc.SeededStream(seed=5)
        )
        b = mc.md_perturbation_experiment(
            self.MU, self.COV, "mu1", [1.0, 2.0], 2000, mc.SeededStream(seed=5)
        )
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.md.coords, pb.md.coords)
            assert pa.mrl == pb.mrl

    def test_factor_streams_are_independent_of_order(self):
        stream = mc.SeededStream(seed=9)
        both = mc.md_perturbation_experiment(
            self.MU, self.COV, "mu1", [1.0, 2.0], 3000, stream
        )
        # factor j alone on stream_id + j * STREAM_BLOCK reproduces it
        solo = mc.md_perturbation_experiment(
            self.MU, self.COV, "mu1", [2.0], 3000,
            stream.shifted(mc.STREAM_BLOCK),
        )
        assert np.array_equal(both[1].md.coords, solo[0].md.coords)
        assert both[1].mrl == solo[0].mrl

    def test_rejects_bad_arguments(self):
        s = mc.SeededStream(seed=1)
        with pytest.raises(DomainError):
            mc.md_perturbation_experiment(self.MU, self.COV, "mu9", [1.0], 10, s)
        with pytest.raises(DomainError):
            mc.md_perturbation_experiment(self.MU, self.COV, "mu1", [], 10, s)
        with pytest.raises(DomainError):
            mc.md_perturbation_experiment(self.MU, self.COV, "mu1", [-1.0], 10, s)


class TestClosedFormAgreement:
    @pytest.mark.parametrize(
        "n,sigma,rho,scale",
        [(3, 1.0, 0.0, 1.0), (5, 0.5, 0.3, 0.4), (10, 0.02, 0.12, 0.003)],
    )
    def test_mrl_and_cov_within_mc_error(self, n, sigma, rho, scale):
        rng = np.random.default_rng(1000 + n)
        mu = rng.standard_normal(n) * scale
        model = moments.HomoscedasticModel(mu=mu, sigma=sigma, rho=rho)
        truth = moments.md_mrl_homoscedastic(model)
        count = 200000
        sample = mc.sample_chi(
            model.to_gaussian(), count, mc.SeededStream(seed=500 + n)
        )
        est = mc.estimate_md_mrl(sample)
        # resultant-length spread: coordinate variances sum to 1 - mrl^2
        se_mrl = math.sqrt((1.0 - truth.mrl ** 2) / count)
        assert abs(est.mrl - truth.mrl) <= 4.0 * se_mrl
        cov_hat = mc.estimate_cov(sample)
        # conservative entrywise error scale for bounded coordinates
        se_cov = 4.0 / math.sqrt(count)
        assert np.max(np.abs(cov_hat - truth.cov_chi)) <= se_cov


class TestThreadIndependence:
    """Every sampler's bits, frozen over more than two full shards."""

    COUNT = 2 * mc.SHARD_ROWS + 777
    MODEL = moments.GaussianModel(
        mu=np.array([0.3, -0.1, 0.0]),
        cov=np.array([[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 2.0]]),
    )

    def test_ic_distribution_sample_md(self):
        stream = mc.SeededStream(seed=61)
        _, v1 = mc.ic_distribution(self.MODEL, "sample_md", self.COUNT, stream)
        assert v1.size == self.COUNT
        # Frozen before the KDE moved to binning: a speedup must not
        # change the draws.
        assert hashlib.sha256(v1.tobytes()).hexdigest() == (
            "d316a7d0eab46de9670d7e37094c5eb130b78df43a2f8ea0035847f592816fe3")

    def test_estimate_chi_mrl_frozen(self):
        mu, cov = fixtures.load_params(None, "ten_base")
        model = moments.GaussianModel(mu, cov)
        stream = mc.SeededStream(seed=20240701)
        a = mc.estimate_chi_mrl(model, self.COUNT, stream)
        # Frozen before the sampler moved to attempt blocks.
        assert float.hex(a) == "0x1.57f9adae8492dp-5"

    def test_projected_moments_mc(self):
        stream = mc.SeededStream(seed=62)
        a = mc.projected_moments_mc(4, 0.7, self.COUNT, stream)
        assert a.count == self.COUNT
        # mean frozen before the shard kernel moved to transposed row
        # blocks; the rest re-pinned when shards streamed in row blocks.
        assert moments_digest(a) == [
            "a718e8b8d5219417dde00f346f44c38aa6f3deb0dfbb29dd3b3cbe4a29635be5",
            "accffcb06b79928c80301317fde1337c96c0184bfbaff45a1c7549996dfaa1dc",
            "df477d4293fbbe8f62f656b512dc9d3225d2edc79b899b8d43a94d54ac18a4fe",
            "ba9a5f1ab0514fb5e369c46d96bc1e05a3ea8df043894acc4a6d8f5bd6c2ff2c"]

    def test_md_perturbation_experiment(self):
        stream = mc.SeededStream(seed=63)
        args = (self.MODEL.mu, self.MODEL.cov, "sigma1", [0.5, 2.0],
                self.COUNT, stream)
        points = mc.md_perturbation_experiment(*args)
        # Frozen before the thread pool was removed.
        assert [(p.factor, float.hex(p.mrl), [float.hex(v) for v in p.md.coords])
                for p in points] == [
            (0.5, "0x1.06f09ab2b2a8fp-2", ["0x1.8c3c2e1001769p-1",
                                           "-0x1.3987ff51c40cbp-1",
                                           "-0x1.4ad0baf8f5a78p-3"]),
            (2.0, "0x1.11058d92a93cbp-3", ["0x1.80eff25dc4725p-1",
                                           "-0x1.4dad015de95b0p-1",
                                           "-0x1.9a1787fed8ba2p-4"]),
        ]

    def test_md_perturbation_experiment_mu1(self):
        stream = mc.SeededStream(seed=64)
        args = (self.MODEL.mu, self.MODEL.cov, "mu1", [0.25, 3.0],
                self.COUNT, stream)
        points = mc.md_perturbation_experiment(*args)
        # Frozen before each shard streamed in row blocks.
        assert [(p.factor, float.hex(p.mrl), [float.hex(v) for v in p.md.coords])
                for p in points] == [
            (0.25, "0x1.6ce5982b538ffp-4", ["0x1.42ad5ed056424p-1",
                                            "-0x1.87840e05fa500p-1",
                                            "0x1.135abcd69036dp-3"]),
            (3.0, "0x1.ee31a8f7b92b4p-2", ["0x1.98f588fefb594p-1",
                                           "-0x1.178e171ef4bb6p-1",
                                           "-0x1.02cee3c00d3bcp-2"]),
        ]


def seeded_model(n: int) -> moments.GaussianModel:
    """A model with correlated components of unequal scale."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    return moments.GaussianModel(0.1 * rng.standard_normal(n),
                                 a @ a.T / n + np.eye(n))


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestStreamedResultant:
    """_resultant streams each shard in row blocks. Every value here was
    frozen when shards were summed whole, at counts that end in a partial
    shard whose last block takes the remainder."""

    @pytest.mark.parametrize("n,count,mrl,total", [
        # Blocks are whole shards.
        (2, 2 * mc.SHARD_ROWS + 777, "0x1.beba0ea4c6e49p-6",
         "53dc9cd576fadd8caf8622a61abf350cad81b75ef5306992bb32192c2d032ecd"),
        # A 16,385-row shard: blocks of 8,192 and 8,193 rows, not a 1-row one.
        (10, mc.SHARD_ROWS + 2 * 8192 + 1, "0x1.e250b44ed0608p-5",
         "3e204222d91b4df0f3a6f15294e1f535f1eaf44161b9ec7a9aaa4a56249d09c2"),
        # 128 blocks of 512 rows, then blocks of 512, 512 and 513 rows.
        (200, mc.SHARD_ROWS + 3 * 512 + 1, "0x1.140ca009bcd96p-4",
         "33163e5522ef6f70598b2e993fd5f2ded35d346c22154a49ffa000b7c2b58a5f"),
        # Whole shards: blocks of 256 and 261 rows, or 256, 256, 256 and
        # 259, changed a row's last n mod 8 coordinates, and at n = 300
        # the MRL's last bit.
        (257, 2 * 256 + 5, "0x1.57f376eb58b64p-4",
         "59fe129280d587000f5f66120245b4dd06bb17d1702c2428ec0ca7bb20b3cdea"),
        (300, 4 * 256 + 3, "0x1.3c5d02fbf0303p-4",
         "ce631d352cbd7bd3e7c81a7a03526fedc4b1fad7cc2989f29c1b20fcfbbbf7aa"),
    ], ids=["n2", "n10", "n200", "n257", "n300"])
    def test_frozen_bits(self, n, count, mrl, total):
        model = seeded_model(n)
        stream = mc.SeededStream(seed=n)
        vec, kept = mc._resultant(model, count, stream)
        assert kept == count
        assert digest(vec) == total
        assert float.hex(mc.estimate_chi_mrl(model, count, stream)) == mrl

    @pytest.mark.parametrize("n,count", [
        (10, mc.SHARD_ROWS + 2 * 8192 + 1),
        (200, 3 * 512 + 1),
    ], ids=["n10", "n200"])
    def test_blocks_give_whole_shard_directions(self, monkeypatch, n, count):
        # A 1-row tail block would take BLAS's gemv path and change the
        # last row's bits, which a long sum can round away.
        model = seeded_model(n)
        stream = mc.SeededStream(seed=n)
        whole = np.vstack(mc._map_shards(lambda g: mc._directions(model, g),
                                         n, count, stream))
        directions = mc._directions
        blocks = []

        def recorded(model, g, out=None):
            units = directions(model, g, out)
            # The next block overwrites these units, and _resultant adds
            # into their first row.
            blocks.append(units.copy())
            return units

        monkeypatch.setattr(mc, "_directions", recorded)
        mc._resultant(model, count, stream)
        assert len(blocks) > count // mc.SHARD_ROWS + 1
        assert np.array_equal(np.vstack(blocks), whole)

    def test_one_workspace_per_call(self):
        # Blocks reuse the call's buffers, so the allocator does not hand
        # the heap top back and fault it in again for every block: 11,776
        # to 53,319 minor faults per op when each block allocated its own.
        resource = pytest.importorskip("resource")
        mu, cov = fixtures.load_params(None, "ten_base")
        model = moments.GaussianModel(mu, cov)
        stream = mc.SeededStream(seed=3)
        mc.estimate_chi_mrl(model, 1 << 20, stream)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        mc.estimate_chi_mrl(model, 1 << 20, stream)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 2000, faults

    def test_frozen_bits_blocks_of_16_rows(self):
        # 53 rows are blocks of 16, 16 and 21 rows at n = 4104, the
        # smallest n with 16-row blocks that stream (a multiple of 8 above
        # 4096). Its chol takes 135 MB. The kernel reads only n, mu and
        # chol; a stand-in carries them, where GaussianModel would hold
        # several copies of cov.
        n = 4104
        assert mc._block_rows(n) == 16
        rng = np.random.default_rng(n)
        model = types.SimpleNamespace(n=n, mu=0.1 * rng.standard_normal(n),
                                      chol=rng.standard_normal((n, n)))
        stream = mc.SeededStream(seed=n)
        vec, kept = mc._resultant(model, 53, stream)
        assert kept == 53
        assert digest(vec) == (
            "32c402d55717ddd4cd5dd06f0ee235ecf8dc9ec7bfb81ab620d11dbcbc28d4f8")
        assert float.hex(mc.estimate_chi_mrl(model, 53, stream)) == (
            "0x1.1646bbe6925acp-3")

    @pytest.mark.parametrize("row,total", [
        (8192 + 100,
         "546265ef4426ae5c011e50c3c7252ee914e869a6d6517f9c6f380d849e81a1a9"),
        (8192,
         "f5a0a062f094896cee615fb6774cf21fca803c99171eb26a11d9c533668cd3d8"),
    ], ids=["mid_block", "block_start"])
    def test_degenerate_row_dropped(self, monkeypatch, row, total):
        # A constant draw in the second 8,192-row block of shard 0; at the
        # block's start, the carried sum goes into the next kept row.
        draws = mc._draws
        seen = [0]

        def draws_with_constant_row(model, g, out=None):
            y = draws(model, g, out)
            lo = seen[0]
            seen[0] += g.shape[0]
            if lo <= row < seen[0]:
                y[row - lo] = 1.0
            return y

        monkeypatch.setattr(mc, "_draws", draws_with_constant_row)
        vec, kept = mc._resultant(seeded_model(10), mc.SHARD_ROWS + 5,
                                  mc.SeededStream(seed=5))
        assert kept == mc.SHARD_ROWS + 4
        assert digest(vec) == total


    @pytest.mark.parametrize("block", [1, 0], ids=["second", "first"])
    def test_degenerate_block_dropped(self, monkeypatch, block):
        # Every draw of one 8,192-row block of shard 0 is constant, so the
        # block keeps no direction; the carried sum goes on to the next.
        step = mc._block_rows(10)
        assert step == 8192
        lo, hi = block * step, (block + 1) * step
        draws = mc._draws
        seen = [0]

        def draws_with_constant_block(model, g, out=None):
            y = draws(model, g, out)
            start = seen[0]
            seen[0] += g.shape[0]
            y[max(lo - start, 0):max(hi - start, 0)] = 1.0
            return y

        monkeypatch.setattr(mc, "_draws", draws_with_constant_block)
        model, count = seeded_model(10), mc.SHARD_ROWS + 5
        stream = mc.SeededStream(seed=5)
        vec, kept = mc._resultant(model, count, stream)
        assert seen[0] == count
        assert kept == count - step
        seen[0] = 0
        shards = mc._map_shards(lambda g: mc._directions(model, g), 10, count,
                                stream)
        assert [len(units) for units in shards] == [mc.SHARD_ROWS - step, 5]
        want = np.zeros(10)
        for units in shards:
            want += sphere._column_sums(units)
        assert np.array_equal(vec, want)


class TestKeptBlocks:
    """_kept_blocks owns the whole-shard-sum rule of both streamed kernels."""

    def test_sums_whole_shards_in_order(self):
        rng = np.random.default_rng(28)
        # Blocks of unequal scale, so the order of the additions shows
        # in the bits.
        shards = [[rng.standard_normal((b, 4)) * 10.0 ** rng.integers(-3, 4)
                   for b in sizes]
                  for sizes in ([5, 7, 3], [4, 6, 2], [2, 3], [8, 1])]
        # Shard 1's first block keeps no row, shard 2 keeps none and
        # shard 3 keeps every row, so its blocks are yielded in place;
        # the others drop their rows of negative first coordinate.
        shards[1][0][:, 0] = -1.0
        for g in shards[2]:
            g[:, 0] = -1.0
        for g in shards[3]:
            np.abs(g, out=g)
        before = [[g.copy() for g in blocks] for blocks in shards]
        firsts = []

        def units(g):
            keep = g[:, 0] >= 0.0
            u = g if keep.all() else g[keep]
            firsts.extend(u[:1].copy())
            return u

        total = np.zeros(4)
        yielded = [u.copy() for u in mc._kept_blocks(shards, units, total)]
        # Each block comes out as the map gave it: the carry is gone.
        assert all(len(u) for u in yielded)
        assert np.array_equal([u[0] for u in yielded], firsts)
        assert all(np.array_equal(g, b) for blocks, kept in zip(shards, before)
                   for g, b in zip(blocks, kept))
        whole = [np.concatenate([g[g[:, 0] >= 0.0] for g in blocks])
                 for blocks in before]
        assert sum(len(u) for u in yielded) == sum(len(w) for w in whole)
        assert len(whole[2]) == 0
        want = np.zeros(4)
        for w in whole:
            want += w.sum(axis=0)
        assert digest(total) == digest(want)
        # Block by block, the same rows add to other bits.
        blockwise = np.zeros(4)
        for u in yielded:
            blockwise += u.sum(axis=0)
        assert digest(blockwise) != digest(want)


class TestTraceHooks:
    def test_shard_kernel_reaches_wrapped_standardize_rows(self):
        # The benchmark wraps standardize_rows where montecarlo holds it;
        # a kernel that bound it early would record no row spans.
        import icsphere.cli  # noqa: F401  (loads every layer the tracer wraps)

        spans = load_perfbench("spans")
        tracer = spans.Tracer()
        sites = spans.find_sites()
        model = moments.GaussianModel(mu=np.arange(3.0), cov=np.eye(3))
        count = 2 * mc.SHARD_ROWS + 10
        with spans.traced(tracer, sites):
            mc.estimate_chi_mrl(model, count, mc.SeededStream(seed=4))
        assert spans.unwrapped_problems(sites) == []
        names = [s.name for s in tracer.spans]
        # One span per row block: two of 32,768 rows in each full shard at
        # n = 3, and one for the 10-row shard.
        assert mc._block_rows(3) == mc.SHARD_ROWS // 2
        assert names.count("sphere.standardize_rows") == 5
        assert names.count("montecarlo.sampler") == 1
        metrics = spans.layer_metrics(tracer)
        assert metrics["sphere.rows_in"] == count

    def test_ic_pdf_sample_md_draws_each_row_once(self):
        import icsphere.cli  # noqa: F401  (loads every layer the tracer wraps)

        spans = load_perfbench("spans")
        tracer = spans.Tracer()
        sites = spans.find_sites()
        model = moments.GaussianModel(mu=np.arange(3.0), cov=np.eye(3))
        count = 2 * mc.SHARD_ROWS + 10
        with spans.traced(tracer, sites):
            mc.ic_distribution(model, "sample_md", count, mc.SeededStream(seed=4))
        assert spans.unwrapped_problems(sites) == []
        names = [s.name for s in tracer.spans]
        # One span per shard, and a one-row span for the sample mean
        # direction, which standardize takes from standardize_rows.
        assert names.count("sphere.standardize_rows") == 4
        metrics = spans.layer_metrics(tracer)
        assert metrics["sphere.rows_in"] == count + 1

    def test_empirical_standardizes_each_row_once(self, tmp_path, capsys):
        t = 300  # straddles a new year, so two yearly windows and full
        matrix = one_factor_returns(t, 6, seed=12)
        matrix[40] = 0.002  # one constant row, dropped as degenerate
        path = tmp_path / "panel.csv"
        write_panel_csv(path, business_days(datetime.date(2019, 6, 3), t),
                        [f"A{j}" for j in range(6)], matrix)
        spans = load_perfbench("spans")
        tracer = spans.Tracer()
        sites = spans.find_sites()
        with spans.traced(tracer, sites):
            code = cli.main(["empirical", "--input", str(path), "--windows", "yearly",
                             "--rolling", "20", "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert spans.unwrapped_problems(sites) == []
        names = [s.name for s in tracer.spans]
        assert names.count("empirical.standardize_panel") == 1
        assert names.count("empirical.rolling") == 1
        # One eigensolve per window's scatter matrix, found where the
        # benchmark wraps optimize.symmetric_eigen.
        assert names.count("optimize.symmetric_eigen") == 3
        metrics = spans.layer_metrics(tracer)
        # The panel's rows, and one row for each window's mean direction.
        assert metrics["sphere.rows_in"] == t + 3
        assert metrics["sphere.rows_dropped"] == 1
        assert "3 windows, 1 degenerate rows" in capsys.readouterr().out
