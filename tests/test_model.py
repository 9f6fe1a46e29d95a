import numpy as np
import pytest
from hypothesis import given, strategies as st

from glset import (Functional, Norm2, build_model, chunk_layout,
                   default_bandwidth, draw_chunk, endpoint_weights,
                   iter_sample_chunks, render_path, sample, vhat)
from glset.density import map_chunks
from glset.model import CHUNK_SIZE


def truncated_endpoint_variance(d):
    # direct summation of the closed-form spectrum, the test's own oracle
    k = np.arange(1, d + 1)
    return float(np.sum(2.0 / (((k - 0.5) ** 2) * np.pi ** 2)))


class TestBuildModel:
    def test_iid_spectrum_is_identity(self):
        m = build_model(("iid_gaussian", 3))
        assert m.eigenvalues == (1.0, 1.0, 1.0)

    def test_kl_brownian_first_eigenvalue(self):
        m = build_model(("kl_brownian", 1))
        assert m.eigenvalues[0] == pytest.approx(4.0 / np.pi ** 2, rel=1e-12)
        assert m.eigenvalues[0] == pytest.approx(0.405285, abs=1e-6)

    def test_kl_brownian_endpoint_variance_d8(self):
        m = build_model(("kl_brownian", 8))
        var = float(np.sum(endpoint_weights(m) ** 2))
        assert var == pytest.approx(truncated_endpoint_variance(8), rel=1e-12)
        assert var == pytest.approx(0.97470, abs=5e-6)

    def test_explicit_spectrum(self):
        m = build_model({"spectrum": [2.0, 0.5]})
        assert m.dim == 2 and m.eigenvalues == (2.0, 0.5)

    @pytest.mark.parametrize("bad", [("iid_gaussian", 0), ("iid_gaussian", -2)])
    def test_nonpositive_dim_rejected(self, bad):
        with pytest.raises(ValueError):
            build_model(bad)

    def test_nonpositive_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            build_model({"spectrum": [1.0, -0.5]})
        with pytest.raises(ValueError):
            build_model({"spectrum": [1.0, 0.0]})

    @pytest.mark.parametrize("bad", [{"family": "iid_gaussian", "dim": 3},
                                     {"spectrum": [1.0], "label": "x"}, "iid_gaussian"])
    def test_other_descriptors_rejected(self, bad):
        with pytest.raises(ValueError, match="unrecognized model descriptor"):
            build_model(bad)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_model(("ornstein", 3))


class TestSampling:
    def test_determinism_bit_identical(self, iid3):
        a = sample(iid3, 50_000, seed=7)
        b = sample(iid3, 50_000, seed=7)
        assert np.array_equal(a, b)

    def test_chunks_concatenate_to_batch(self, iid3):
        batch = sample(iid3, 40_000, seed=3)
        parts = [pts for _, pts in iter_sample_chunks(iid3, 40_000, 3)]
        assert np.array_equal(np.concatenate(parts), batch)

    def test_different_seeds_differ(self, iid3):
        a = sample(iid3, 1000, seed=1)
        b = sample(iid3, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_mean_near_zero(self):
        m = build_model(("iid_gaussian", 2))
        batch = sample(m, 10 ** 6, seed=11)
        bound = 4.0 / np.sqrt(10 ** 6)
        assert np.all(np.abs(batch.mean(axis=0)) < bound)

    def test_unit_variance(self):
        m = build_model(("iid_gaussian", 1))
        batch = sample(m, 10 ** 6, seed=13)
        assert batch.var() == pytest.approx(1.0, rel=0.01)

    def test_n_must_be_positive(self, iid3):
        with pytest.raises(ValueError):
            sample(iid3, 0, seed=1)


class RecordingNorm2(Functional):
    """norm2 that keeps a copy of every batch it is evaluated on."""

    name = "norm2"

    def __init__(self):
        self.batches = []

    def value(self, xi):
        self.batches.append(xi.copy())
        return Norm2().value(xi)


class TestStreamContract:
    """chunk_layout and draw_chunk are the one definition of the sample
    stream; every reader of the stream must see the same rows."""

    def test_layout_has_fixed_chunks_and_a_short_last_one(self):
        assert chunk_layout(40_000) == [(0, CHUNK_SIZE), (1, CHUNK_SIZE),
                                        (2, 40_000 - 2 * CHUNK_SIZE)]
        assert chunk_layout(CHUNK_SIZE) == [(0, CHUNK_SIZE)]
        with pytest.raises(ValueError):
            chunk_layout(0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_every_reader_draws_the_same_bits(self, iid3, monkeypatch, threads):
        monkeypatch.setenv("GLSET_THREADS", threads)
        n, seed = 40_000, 31
        mapped = map_chunks(iid3, n, seed, lambda index, pts: (index, pts))
        iterated = list(iter_sample_chunks(iid3, n, seed))
        drawn = [(index, draw_chunk(iid3, seed, index, size))
                 for index, size in chunk_layout(n)]
        for (i_m, p_m), (i_i, p_i), (i_d, p_d) in zip(mapped, iterated, drawn,
                                                      strict=True):
            assert i_m == i_i == i_d
            assert np.array_equal(p_m, p_i) and np.array_equal(p_i, p_d)

    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_bandwidth_reads_the_head_of_chunk_zero(self, iid3, n):
        G = RecordingNorm2()
        default_bandwidth(iid3, G, n, 41)
        head = draw_chunk(iid3, 41, 0, CHUNK_SIZE)[: min(n, CHUNK_SIZE)]
        assert len(G.batches) == 1 and np.array_equal(G.batches[0], head)

    def test_shorter_stream_is_a_prefix_of_a_longer_one(self, iid5):
        short = list(iter_sample_chunks(iid5, 5 * 10 ** 5, 7))
        assert len(short[-1][1]) == 5 * 10 ** 5 - (len(short) - 1) * CHUNK_SIZE
        assert len(short[-1][1]) < CHUNK_SIZE
        for (i, pts), (j, longer) in zip(short, iter_sample_chunks(iid5, 10 ** 6, 7)):
            assert i == j and np.array_equal(pts, longer[: len(pts)])


class TestWhitening:
    def test_coordinate_covariance_matches_spectrum(self, kl8):
        # pushforward through x_k = sqrt(lambda_k) xi_k: coordinate variances
        # must match the spectrum within 5 standard errors
        n = 10 ** 6
        batch = sample(kl8, n, seed=5)
        ambient = batch * np.sqrt(kl8.spectrum)
        var = ambient.var(axis=0)
        se = kl8.spectrum * np.sqrt(2.0 / n)  # sd of a chi-square mean
        assert np.all(np.abs(var - kl8.spectrum) < 5.0 * se)

    def test_path_endpoint_variance(self, kl8):
        n = 10 ** 6
        batch = sample(kl8, n, seed=9)
        endpoint = render_path(kl8, batch, times=[1.0])[:, 0]
        target = truncated_endpoint_variance(8)
        se = target * np.sqrt(2.0 / n)
        assert abs(endpoint.var() - target) < 5.0 * se

    def test_endpoint_weights_equal_rendered_path(self, kl8, rng):
        xi = rng.standard_normal((16, 8))
        direct = xi @ endpoint_weights(kl8)
        rendered = render_path(kl8, xi, times=[1.0])[:, 0]
        assert np.allclose(direct, rendered, rtol=1e-12)


class TestVhat:
    def test_identity_covariance_is_coordinate(self, iid3):
        assert vhat(iid3, 1, np.array([0.5, -1.0, 2.0])) == 0.5

    def test_kl_whitening_identity(self):
        m = build_model(("kl_brownian", 2))
        assert vhat(m, 2, np.array([0.0, 3.0])) == 3.0

    def test_zero_point(self, iid5):
        assert vhat(iid5, 4, np.zeros(5)) == 0.0

    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.floats(-5, 5), min_size=8, max_size=8))
    def test_vhat_equals_whitened_coordinate(self, k, coords):
        m = build_model(("kl_brownian", 8))
        xi = np.asarray(coords)
        assert vhat(m, k, xi) == xi[k - 1]

    def test_index_out_of_range(self, iid3):
        with pytest.raises(IndexError):
            vhat(iid3, 4, np.zeros(3))
        with pytest.raises(IndexError):
            vhat(iid3, 0, np.zeros(3))

    def test_dim_mismatch(self, iid3):
        with pytest.raises(ValueError):
            vhat(iid3, 1, np.zeros(4))
