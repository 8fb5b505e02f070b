import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmstruct.model import (
    KIND_GENERAL,
    LEARNABLE_KINDS,
    ExactOracle,
    NonDegeneracyParams,
    RbmModel,
    generate_model,
)
from rbmstruct.sampling import (
    GibbsConfig,
    SampleFileError,
    SampleSet,
    draw,
    exact_sample,
    gibbs_sample,
    load,
    save,
    split_rhat,
)

from conftest import brute_exact_sample, random_model


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestSampleSet:
    def test_bit_layout_msb_first(self):
        # +1 -> bit 1, node 0 in the byte's most significant bit
        s = SampleSet.from_pm1(np.array([[1, -1, 1, -1, -1, -1, -1, -1, 1]]))
        assert s.packed.shape == (1, 2)
        assert s.packed[0, 0] == 0b10100000
        assert s.packed[0, 1] == 0b10000000

    def test_pad_bits_enforced(self):
        with pytest.raises(ValueError, match="pad bits"):
            SampleSet(3, np.array([[0b10110000]], dtype=np.uint8))

    def test_round_trip_dense(self):
        rng = np.random.default_rng(0)
        rows = rng.choice([-1, 1], size=(13, 11)).astype(np.int8)
        s = SampleSet.from_pm1(rows)
        assert np.array_equal(s.dense, rows)

    def test_immutable(self):
        s = SampleSet.from_pm1(np.array([[1, -1]]))
        with pytest.raises(ValueError):
            s.packed[0, 0] = 0
        with pytest.raises(AttributeError):
            s.n = 5

    def test_cached_views_read_only_and_built_once(self):
        s = SampleSet.from_pm1(np.array([[1, -1, 1], [1, 1, -1]]))
        for name in ("dense", "bits"):
            view = getattr(s, name)
            assert getattr(s, name) is view and not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 0
        ones = {
            (): [2, 1, 1], (0,): [2, 1, 1], (1,): [1, 1, 0], (2,): [1, 0, 1],
            (2, 0): [1, 0, 1], (0, 1, 2): [0, 0, 0],
        }
        for S, want in ones.items():
            counts = s.ones_counts(S)
            assert counts.tolist() == want and not counts.flags.writeable
            assert s.ones_counts(S[::-1]) is counts and s.ones_counts(list(S)) is counts
            with pytest.raises(ValueError):
                counts[0] = 0

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            SampleSet.from_pm1(np.array([[1, 0]]))

    def test_pickle_round_trip(self):
        rows = np.random.default_rng(1).choice([-1, 1], size=(70, 11))
        s = SampleSet.from_pm1(rows)
        blank = pickle.dumps(s)
        s.dense, s.bits  # the caches are not pickled: workers rebuild them
        s.ones_counts(()), s.ones_counts((3,)), s.ones_counts((7, 0, 4))
        assert pickle.dumps(s) == blank
        back = pickle.loads(blank)
        assert back == s and back.n == s.n
        assert np.array_equal(back.bits, s.bits) and np.array_equal(back.dense, rows)
        for S, T in (((), ()), ((3,), (3,)), ((0, 4, 7), (7, 0, 4))):
            assert np.array_equal(back.ones_counts(S), s.ones_counts(T))
        with pytest.raises(AttributeError):
            back.n = 5


class TestExactSampler:
    def test_single_free_spin_unbiased(self):
        m = RbmModel(np.zeros((1, 0)), [0.0], [])
        s = exact_sample(m, 100_000, seed=1)
        assert abs(s.dense.mean()) <= 0.02

    def test_matches_marginal(self):
        m = RbmModel([[1.0], [1.0]], [0, 0], [0])
        s = exact_sample(m, 100_000, seed=2)
        emp = float(((s.dense[:, 0] == 1) & (s.dense[:, 1] == 1)).mean())
        exact = ExactOracle(m).probabilities[0b11]
        assert abs(emp - exact) <= 0.01

    def test_empty(self):
        m = RbmModel(np.zeros((3, 0)), np.zeros(3), [])
        s = exact_sample(m, 0, seed=3)
        assert s.M == 0 and s.n == 3

    def test_deterministic(self):
        m = RbmModel([[0.5], [0.5]], [0.1, 0.0], [0.0])
        assert exact_sample(m, 500, seed=7) == exact_sample(m, 500, seed=7)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from((KIND_GENERAL, *LEARNABLE_KINDS)),
        n=st.one_of(st.integers(1, 18), st.sampled_from([7, 8, 9, 15, 16, 17, 20])),
        m=st.integers(0, 4),
        model_seed=st.integers(0, 2**32 - 1),
        M=st.one_of(st.sampled_from([0, 1, 999, 1000, 1001]), st.integers(0, 70)),
        seed=st.one_of(
            st.integers(0, 2**64 - 1),
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        ),
    )
    def test_matches_brute_reference(self, kind, n, m, model_seed, M, seed):
        # packed rows written from the indices equal the decode-and-pack
        # route byte for byte, across 1-, 2- and 3-byte rows
        model = random_model(
            np.random.default_rng(model_seed), kind, n_range=(n, n + 1), m_range=(m, m + 1)
        )
        s = exact_sample(model, M, seed)
        assert s == brute_exact_sample(model, M, seed)
        row_bytes = (n + 7) // 8
        assert s.packed.shape == (M, row_bytes)
        pad_mask = (1 << (8 * row_bytes - n)) - 1
        assert not (s.packed[:, -1] & pad_mask).any()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from((KIND_GENERAL, *LEARNABLE_KINDS)),
        n=st.integers(1, 16),
        m=st.integers(0, 4),
        scale=st.floats(1.0, 40.0),
        model_seed=st.integers(0, 2**32 - 1),
        M=st.sampled_from([0, 1, 999, 5000]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_peaked_models_match_brute_reference(self, kind, n, m, scale, model_seed, M, seed):
        # scaled weights pile the CDF steps into few buckets, so most draws
        # are finished by lifting across wide buckets
        base = random_model(
            np.random.default_rng(model_seed), kind, n_range=(n, n + 1), m_range=(m, m + 1)
        )
        model = RbmModel(base.J * scale, base.f * scale, base.g * scale, kind=kind)
        assert exact_sample(model, M, seed) == brute_exact_sample(model, M, seed)

    def test_near_point_mass_matches_brute_reference(self):
        # all 2^n - 1 steps below the all-(+1) configuration fit in bucket 0
        model = RbmModel(np.zeros((12, 0)), np.full(12, 20.0), [])
        s = exact_sample(model, 5000, seed=4)
        assert s == brute_exact_sample(model, 5000, 4)
        assert (s.dense == 1).all()

    def test_peak_memory_per_sample(self):
        # guards against an (M, n) decode temporary, which alone costs
        # 8 n bytes per sample as int64
        model = generate_model("ferromagnetic", 16, 8, 3, NonDegeneracyParams(0.4, 2.0), seed=0)
        M = 256_000
        tracemalloc.start()
        try:
            exact_sample(model, M, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96 * M

    @pytest.mark.parametrize(
        "kind, model_seed, seed, digest",
        [
            ("ferromagnetic", 0, 1, "c767825e1c23025cd23cc70006b0e5ad"),
            ("ferromagnetic", 5, 2, "c37f07f29cc6b0bb0821aa2f8ee61aa9"),
            ("locally-consistent", 0, 1, "e9f091a4937679b61ba6f2daaee51fd5"),
            ("locally-consistent", 5, 2, "d8d7bccbb8ee5027c93b823db5c77fa4"),
        ],
    )
    def test_pinned_sample_digests(self, kind, model_seed, seed, digest):
        # the benchmark-shaped draws (n=16, m=8, d2=3, M=128k) stay byte-equal
        # to the recorded ones; never regenerate these digests to fit a change
        model = generate_model(kind, 16, 8, 3, NonDegeneracyParams(0.4, 2.0), seed=model_seed)
        packed = exact_sample(model, 128_000, seed=seed).packed
        assert hashlib.blake2b(packed.tobytes(), digest_size=16).hexdigest() == digest

    @pytest.mark.parametrize(
        "kind, n, digest",
        [
            ("ferromagnetic", 8, "1f989ecfdd9225917663e54f4d6e6aa4"),
            ("locally-consistent", 8, "365493f5f52ab19f9af0635d8a8e9f5e"),
            ("ferromagnetic", 20, "4a32c726fba283f6698867f1c0635553"),
            ("locally-consistent", 20, "1060d56563ea33734ca96184d341784c"),
        ],
    )
    def test_pinned_row_width_digests(self, kind, n, digest):
        # 1-byte (n=8) and 3-byte (n=20) rows, m=4, M=20k, stay byte-equal
        # to the recorded draws; never regenerate these digests to fit a change
        model = generate_model(kind, n, 4, 3, NonDegeneracyParams(0.4, 2.0), seed=0)
        packed = exact_sample(model, 20_000, seed=1).packed
        assert hashlib.blake2b(packed.tobytes(), digest_size=16).hexdigest() == digest


class TestGibbsConditionals:
    def test_conditionals_match_enumeration(self):
        # P(y_j = +1 | x) and P(x_i = +1 | y) against the joint table
        rng = np.random.default_rng(5)
        m = random_model(rng, n_range=(3, 4), m_range=(2, 3))
        n, mm = m.n, m.m
        for _ in range(10):
            x = rng.choice([-1.0, 1.0], size=n)
            y = rng.choice([-1.0, 1.0], size=mm)
            # joint weights over y given fixed x
            ty = m.g + x @ m.J
            for j in range(mm):
                others = [jj for jj in range(mm) if jj != j]
                w_plus = w_minus = 0.0
                for bits in range(1 << len(others)):
                    yy = y.copy()
                    for pos, jj in enumerate(others):
                        yy[jj] = 1.0 if (bits >> pos) & 1 else -1.0
                    yy[j] = 1.0
                    w_plus += math.exp(x @ m.J @ yy + m.f @ x + m.g @ yy)
                    yy[j] = -1.0
                    w_minus += math.exp(x @ m.J @ yy + m.f @ x + m.g @ yy)
                assert w_plus / (w_plus + w_minus) == pytest.approx(
                    sigmoid(2.0 * ty[j]), rel=1e-10
                )
            tx = m.f + m.J @ y
            for i in range(n):
                others = [ii for ii in range(n) if ii != i]
                w_plus = w_minus = 0.0
                for bits in range(1 << len(others)):
                    xx = x.copy()
                    for pos, ii in enumerate(others):
                        xx[ii] = 1.0 if (bits >> pos) & 1 else -1.0
                    xx[i] = 1.0
                    w_plus += math.exp(xx @ m.J @ y + m.f @ xx + m.g @ y)
                    xx[i] = -1.0
                    w_minus += math.exp(xx @ m.J @ y + m.f @ xx + m.g @ y)
                assert w_plus / (w_plus + w_minus) == pytest.approx(
                    sigmoid(2.0 * tx[i]), rel=1e-10
                )


class TestGibbsSampler:
    def test_zero_model_fair_coins(self):
        m = RbmModel(np.zeros((4, 2)), np.zeros(4), np.zeros(2))
        s = gibbs_sample(m, 100_000, GibbsConfig(burn_in=10, thinning=1, seed=11))
        assert np.abs(s.dense.mean(axis=0)).max() <= 0.02

    def test_matches_exact_distribution(self):
        m = RbmModel([[0.9], [0.9]], [0.1, 0.0], [0.1])
        gs = gibbs_sample(m, 100_000, GibbsConfig(burn_in=1000, thinning=10, seed=12))
        probs = ExactOracle(m).probabilities
        counts = np.zeros(4)
        idx = ((gs.dense[:, 0] == 1) * 2 + (gs.dense[:, 1] == 1)).astype(int)
        # config index: node 0 most significant
        for c in range(4):
            counts[c] = (idx == c).mean()
        assert np.abs(counts - probs).max() <= 0.02

    def test_deterministic(self):
        m = RbmModel([[0.5], [0.5]], [0.0, 0.0], [0.0])
        cfg = GibbsConfig(burn_in=50, thinning=3, seed=13)
        assert gibbs_sample(m, 200, cfg) == gibbs_sample(m, 200, cfg)

    def test_no_hidden_nodes(self):
        m = RbmModel(np.zeros((2, 0)), [0.4, -0.4], [])
        s = gibbs_sample(m, 50_000, GibbsConfig(burn_in=10, thinning=1, seed=14))
        expected = math.tanh(0.4)
        assert s.dense[:, 0].mean() == pytest.approx(expected, abs=0.02)
        assert s.dense[:, 1].mean() == pytest.approx(-expected, abs=0.02)

    @pytest.mark.parametrize("M", [0, 1, 63, 64, 65, 130])
    def test_chain_split_row_count(self, M):
        m = RbmModel([[0.5], [0.5], [-0.3]], [0.2, 0.0, -0.1], [0.1])
        s = gibbs_sample(m, M, GibbsConfig(burn_in=5, thinning=2, seed=15))
        assert s.M == M and s.packed.shape == (M, 1)
        assert not (s.packed[:, 0] & 0b00011111).any()

    def test_seeds_differ(self):
        m = RbmModel([[0.5], [0.5]], [0.0, 0.0], [0.0])
        a = gibbs_sample(m, 500, GibbsConfig(burn_in=20, thinning=2, seed=16))
        b = gibbs_sample(m, 500, GibbsConfig(burn_in=20, thinning=2, seed=17))
        assert a != b

    def test_draw_dispatches_to_both_samplers(self):
        m = RbmModel([[0.5], [0.5], [-0.3]], [0.2, 0.0, -0.1], [0.1])
        assert draw(m, 300, "exact", 19, 5, 2) == exact_sample(m, 300, 19)
        gibbs = gibbs_sample(m, 300, GibbsConfig(burn_in=5, thinning=2, seed=19))
        assert draw(m, 300, "gibbs", 19, 5, 2) == gibbs
        with pytest.raises(ValueError, match="unknown sampler 'bogus'"):
            draw(m, 300, "bogus", 19, 5, 2)

    def test_split_rhat(self):
        # rows follow the sampler's layout: row k * 64 + c is draw k of chain c
        rng = np.random.default_rng(18)
        iid = SampleSet.from_pm1(rng.choice([-1, 1], size=(64 * 400, 5)))
        assert split_rhat(iid) < 1.05
        p_plus = np.where(np.arange(64) % 2 == 0, 0.9, 0.1)
        shifted = np.where(rng.random((400, 64, 5)) < p_plus[None, :, None], 1, -1)
        assert split_rhat(SampleSet.from_pm1(shifted.reshape(-1, 5))) > 1.5
        # too few draws per chain, then no node that ever changes
        assert split_rhat(SampleSet.from_pm1(np.ones((64 * 3, 5)))) is None
        assert split_rhat(SampleSet.from_pm1(np.ones((64 * 4, 5)))) is None


class TestSampleFile:
    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(20)
        for i in range(100):
            n = int(rng.integers(1, 20))
            M = int(rng.integers(0, 40))
            s = SampleSet.from_pm1(rng.choice([-1, 1], size=(M, n)))
            path = tmp_path / f"s{i}.rbms"
            save(s, path)
            assert load(path) == s

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.rbms"
        path.write_bytes(b"XXXX" + bytes(13))
        with pytest.raises(SampleFileError, match="magic"):
            load(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rbms"
        path.write_bytes(b"RBMS\x01")
        with pytest.raises(SampleFileError, match="header"):
            load(path)

    def test_truncated_rows(self, tmp_path):
        s = SampleSet.from_pm1(np.ones((4, 9), dtype=np.int8))
        path = tmp_path / "trunc.rbms"
        save(s, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(SampleFileError, match="truncated sample rows"):
            load(path)
        # a malformed file is a ValueError, which the CLI maps to exit 1
        with pytest.raises(ValueError):
            load(path)

    def test_trailing_bytes(self, tmp_path):
        s = SampleSet.from_pm1(np.ones((2, 3), dtype=np.int8))
        path = tmp_path / "trail.rbms"
        save(s, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SampleFileError, match="trailing"):
            load(path)

    def test_pad_bits_set(self, tmp_path):
        s = SampleSet.from_pm1(np.ones((2, 3), dtype=np.int8))
        path = tmp_path / "pad.rbms"
        save(s, path)
        data = bytearray(path.read_bytes())
        data[-1] |= 1  # n = 3 leaves the low 5 bits of each row byte as pad
        path.write_bytes(bytes(data))
        with pytest.raises(SampleFileError, match="pad bits"):
            load(path)

    def test_unsupported_version(self, tmp_path):
        s = SampleSet.from_pm1(np.ones((1, 2), dtype=np.int8))
        path = tmp_path / "v2.rbms"
        save(s, path)
        data = bytearray(path.read_bytes())
        data[4] = 2
        path.write_bytes(bytes(data))
        with pytest.raises(SampleFileError, match="version"):
            load(path)
