import tracemalloc
from itertools import product

import numpy as np
import pytest

from sequr import states
from sequr.errors import DimensionMismatch
from sequr.linalg import spectral_resolution
from sequr.states import (
    MAX_TABLE_CELLS,
    JointDistribution,
    check_density,
    interference_gap,
    luders_map,
    outcome_probabilities,
    pure_density,
    random_hermitian,
    random_observable,
    random_state,
    sample_sequence,
    wigner_joint,
)


class TestLudersMap:
    def test_x_plus_under_z_gives_maximally_mixed(self, x_plus, sigma_z):
        assert np.allclose(luders_map(x_plus, sigma_z), np.eye(2) / 2, atol=1e-12)

    def test_eigenstate_unchanged(self, z_plus, sigma_z):
        assert np.allclose(luders_map(z_plus, sigma_z), z_plus, atol=1e-12)

    def test_zeroes_off_diagonal_in_measurement_basis(self, sigma_z):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rho = pure_density(v)
        collapsed = luders_map(rho, sigma_z)
        assert np.allclose(np.diag(np.diag(rho)), collapsed, atol=1e-12)

    def test_dimension_mismatch(self, sigma_z):
        with pytest.raises(DimensionMismatch):
            luders_map(np.eye(3) / 3, sigma_z)
        # a stack is checked on its trailing axis, not on its length
        with pytest.raises(DimensionMismatch):
            luders_map(np.zeros((2, 3, 3)), sigma_z)
        assert luders_map(np.zeros((3, 2, 2)), sigma_z).shape == (3, 2, 2)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_stack_equals_per_matrix_calls(self, dim):
        rng = np.random.default_rng(dim)
        stack = np.stack([random_hermitian(dim, rng) for _ in range(6)]).reshape(2, 3, dim, dim)
        degenerate = spectral_resolution(np.diag(np.arange(dim) // 2).astype(complex))
        for obs in (random_observable(dim, rng), degenerate):
            mapped = luders_map(stack, obs)
            assert mapped.shape == stack.shape
            for index in np.ndindex(stack.shape[:-2]):
                assert np.array_equal(mapped[index], luders_map(stack[index], obs))


class TestWignerJoint:
    def test_z_then_x_from_z_plus(self, z_plus, sigma_z, sigma_x):
        joint = wigner_joint(z_plus, sigma_z, sigma_x)
        # axes are ascending eigenvalues, so index 1 is outcome +1
        assert joint.table[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert joint.table[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(joint.table[0], 0.0, atol=1e-12)

    def test_repeated_measurement_is_diagonal(self, sigma_z):
        p = 0.3
        joint = wigner_joint(np.diag([p, 1 - p]).astype(complex), sigma_z, sigma_z)
        # state-ordering note: diag([p, 1-p]) puts weight p on z+, i.e. eigenvalue +1
        assert joint.table[1, 1] == pytest.approx(p, abs=1e-12)
        assert joint.table[0, 0] == pytest.approx(1 - p, abs=1e-12)
        assert joint.table[0, 1] == joint.table[1, 0] == 0.0

    def test_first_marginal_is_direct_distribution(self, sigma_z, sigma_x):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = pure_density(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            joint = wigner_joint(rho, sigma_z, sigma_x)
            direct = [np.trace(rho @ p).real for p in sigma_z.projectors]
            assert np.allclose(joint.marginal(0), direct, atol=1e-12)

    def test_three_step_diagonal(self, sigma_z):
        rho = np.diag([0.25, 0.75]).astype(complex)
        joint = wigner_joint(rho, sigma_z, sigma_z, sigma_z)
        assert joint.table[1, 1, 1] == pytest.approx(0.25, abs=1e-12)
        assert joint.table[0, 0, 0] == pytest.approx(0.75, abs=1e-12)
        assert joint.table.sum() == pytest.approx(1.0)

    def test_three_step_zxz(self, z_plus, sigma_z, sigma_x):
        joint = wigner_joint(z_plus, sigma_z, sigma_x, sigma_z)
        assert np.allclose(joint.table[1], 0.25, atol=1e-12)
        assert np.allclose(joint.table[0], 0.0, atol=1e-12)

    def test_three_step_marginalizes_to_two_step(self):
        rng = np.random.default_rng(9)
        rho = random_state(3, seed=1)
        a, b, c = (random_observable(3, seed=s) for s in (10, 11, 12))
        del rng
        three = wigner_joint(rho, a, b, c)
        two = wigner_joint(rho, a, b)
        assert np.allclose(three.table.sum(axis=2), two.table, atol=1e-12)


class TestJointDistribution:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match=r"^joint table sums to 1\.1, not 1$"):
            JointDistribution(axes=(np.array([0, 1]),), table=np.array([0.6, 0.5]))

    def test_clips_tiny_negatives(self):
        j = JointDistribution(axes=(np.array([0, 1]),), table=np.array([1.0, -1e-13]))
        assert j.table[1] == 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValueError, match="below clip"):
            JointDistribution(axes=(np.array([0, 1]),), table=np.array([1.1, -0.1]))
        with pytest.raises(ValueError, match="not a number"):
            JointDistribution(axes=(np.array([0, 1]),), table=np.array([np.nan, 1.0]))

    def test_marginals_sum_to_one(self, z_plus, sigma_z, sigma_x):
        joint = wigner_joint(z_plus, sigma_z, sigma_x, sigma_z)
        for marginal in joint.marginals():
            assert marginal.sum() == pytest.approx(1.0)
            assert marginal.min() >= 0.0

    def test_marginals_of_product_table(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.5, 0.25, 0.25])
        joint = JointDistribution(axes=(np.array([0, 1]), np.array([0, 1, 2])),
                                  table=np.outer(p, q))
        ma, mb = joint.marginals()
        assert np.allclose(ma, p)
        assert np.allclose(mb, q)


class TestInterferenceGap:
    def test_x_plus_z_then_x(self, x_plus, sigma_z, sigma_x):
        # collapsed state is I/2 with x-probability 1/2, direct probability is 1
        assert interference_gap(x_plus, sigma_z, sigma_x) == pytest.approx(0.5, abs=1e-12)

    def test_zero_for_mixture_of_eigenstates(self, sigma_z, sigma_x):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert interference_gap(rho, sigma_z, sigma_x) <= 1e-12

    def test_zero_for_repeated_observable(self, x_plus, sigma_z):
        assert interference_gap(x_plus, sigma_z, sigma_z) <= 1e-12


class TestSampleSequence:
    def test_repeated_measurement_perfectly_correlated(self, sigma_z):
        rho = np.diag([0.4, 0.6]).astype(complex)
        counts = sample_sequence(rho, [sigma_z, sigma_z], n=5000, seed=21)
        assert counts[0, 1] == counts[1, 0] == 0
        assert counts.sum() == 5000

    def test_frequencies_converge(self, z_plus, sigma_z, sigma_x):
        counts = sample_sequence(z_plus, [sigma_z, sigma_x], n=10**6, seed=4)
        freq_pp = counts[1, 1] / 10**6
        assert abs(freq_pp - 0.5) < 0.002  # ~3 sigma for a fair binomial at n=1e6

    def test_deterministic_given_seed(self, x_plus, sigma_z, sigma_x):
        first = sample_sequence(x_plus, [sigma_z, sigma_x], n=1000, seed=99)
        second = sample_sequence(x_plus, [sigma_z, sigma_x], n=1000, seed=99)
        assert np.array_equal(first, second)

    def test_rejects_bad_count(self, z_plus, sigma_z):
        with pytest.raises(ValueError):
            sample_sequence(z_plus, [sigma_z], n=0, seed=1)

    @pytest.mark.parametrize("build", [
        lambda rho, chain: wigner_joint(rho, *chain),
        lambda rho, chain: sample_sequence(rho, chain, n=1, seed=0),
    ], ids=["wigner_joint", "sample_sequence"])
    def test_table_size_cap(self, z_plus, sigma_z, build):
        # 2**k qubit outcomes is the smallest power of two above the cap
        k = MAX_TABLE_CELLS.bit_length()
        build(z_plus, [sigma_z] * 2)
        with pytest.raises(ValueError, match="exceeds the limit"):
            build(z_plus, [sigma_z] * k)

    @pytest.mark.parametrize("build", [
        lambda rho, chain: wigner_joint(rho, *chain),
        lambda rho, chain: sample_sequence(rho, chain, n=100, seed=0),
    ], ids=["wigner_joint", "sample_sequence"])
    @pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((0, 1), np.nan), ((1, 1), -0.5)],
                             ids=["nan-diagonal", "nan-off-diagonal", "negative"])
    def test_invalid_state_raises(self, sigma_z, sigma_x, build, entry, value):
        # a NaN on the diagonal reaches every outcome, off the diagonal only
        # those of the second observable; diag(1.5, -0.5) has a negative
        # outcome probability
        rho = np.diag([1.5 if value < 0 else 0.5, 0.5]).astype(complex)
        rho[entry] = value
        with pytest.raises(ValueError):
            build(rho, [sigma_z, sigma_x])

    def test_monte_carlo_matches_wigner_joint(self):
        """Every cell within 4 sigma of the analytic probability, 20 scenarios."""
        n = 10**5
        for k in range(20):
            rho = random_state(2, seed=1000 + k)
            a = random_observable(2, seed=2000 + k)
            b = random_observable(2, seed=3000 + k)
            joint = wigner_joint(rho, a, b)
            freqs = sample_sequence(rho, [a, b], n=n, seed=4000 + k) / n
            sigma = np.sqrt(joint.table * (1 - joint.table) / n)
            assert np.all(np.abs(freqs - joint.table) <= 4 * sigma + 1e-12)


class TestRandomGenerators:
    def test_random_state_is_density(self):
        for seed in range(5):
            rho = random_state(4, seed=seed)
            check_density(rho)

    def test_checked_density_is_accepted_by_the_joint_table(self, sigma_z, sigma_x):
        """A state within check_density's tolerances comes back exact enough for the table.

        diag(1 + 5e-11, -5e-11) has an eigenvalue above -1e-10, so it passes;
        taken as given, its table would hold -2.5e-11, below the -1e-12 clip.
        """
        given = np.diag([1 + 5e-11, -5e-11]).astype(complex)
        with pytest.raises(ValueError, match="below clip tolerance"):
            wigner_joint(given, sigma_z, sigma_x)
        rho = check_density(given)
        assert np.linalg.eigvalsh(rho).min() >= 0.0
        assert abs(np.trace(rho) - 1) <= 1e-15
        assert np.abs(rho - given).max() <= 1e-10
        table = wigner_joint(rho, sigma_z, sigma_x).table
        assert table.min() >= 0.0 and abs(table.sum() - 1.0) <= 1e-15
        assert sample_sequence(rho, [sigma_z, sigma_x], 1000, seed=0).sum() == 1000

    def test_random_observable_is_hermitian(self):
        obs = random_observable(3, seed=8)
        assert np.allclose(obs.matrix, obs.matrix.conj().T)

    def test_seed_reproducibility(self):
        assert np.array_equal(random_state(3, seed=5), random_state(3, seed=5))
        a = random_observable(4, seed=6)
        b = random_observable(4, seed=6)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_observable(4, np.random.default_rng(6))
        assert np.array_equal(a.matrix, c.matrix)

    def test_dim_range(self):
        with pytest.raises(ValueError):
            random_state(1, seed=0)
        with pytest.raises(ValueError):
            random_observable(17, seed=0)


def test_wigner_marginals_match_collapse_route():
    """Second marginal equals the collapsed-state distribution, 200 instances."""
    rng = np.random.default_rng(31)
    for i in range(200):
        dim = 2 + i % 5
        rho = random_state(dim, seed=5000 + i)
        a = random_observable(dim, seed=6000 + i)
        b = random_observable(dim, seed=7000 + i)
        joint = wigner_joint(rho, a, b)
        direct = [np.trace(rho @ p).real for p in a.projectors]
        collapsed = luders_map(rho, a)
        second = [np.trace(collapsed @ p).real for p in b.projectors]
        assert np.allclose(joint.marginal(0), direct, atol=1e-12)
        assert np.allclose(joint.marginal(1), second, atol=1e-12)
    del rng


def test_luders_idempotent_and_commuting():
    for i in range(40):
        dim = 2 + i % 5
        rho = random_state(dim, seed=i)
        a = random_observable(dim, seed=100 + i)
        once = luders_map(rho, a)
        twice = luders_map(once, a)
        assert np.abs(twice - once).max() <= 1e-12
        for p in a.projectors:
            assert np.abs(once @ p - p @ once).max() <= 1e-10


def _reference_joint(rho, *observables):
    """Per-tuple nested conjugation with full projectors: the definitional table."""
    shape = tuple(obs.n_outcomes for obs in observables)
    table = np.empty(shape)
    for idx in product(*(range(n) for n in shape)):
        state = np.asarray(rho, dtype=complex)
        for obs, i in zip(observables, idx):
            p = obs.projectors[i]
            state = p @ state @ p
        table[idx] = np.trace(state).real
    return table


def _reference_sampler(rho, chain, n, seed):
    """Depth-first collapse-chain sampler on full projectors."""
    chain = list(chain)
    rng = np.random.default_rng(seed)
    counts = np.zeros(tuple(obs.n_outcomes for obs in chain), dtype=np.int64)

    def descend(state, weight_count, depth, idx):
        if depth == len(chain):
            counts[idx] = weight_count
            return
        obs = chain[depth]
        probs = outcome_probabilities(state, obs)
        split = rng.multinomial(weight_count, probs / probs.sum())
        for i, c in enumerate(split):
            if c == 0:
                continue
            p = obs.projectors[i]
            collapsed = p @ state @ p
            descend(collapsed / np.trace(collapsed).real, c, depth + 1, idx + (i,))

    descend(np.asarray(rho, dtype=complex), n, 0, ())
    return counts


def _degenerate_observable(dim, seed):
    """Random eigenbasis with multiplicities (3, 2, 2, ..., 1 or 2); one outcome below dim 4."""
    q, _ = np.linalg.qr(random_hermitian(dim, np.random.default_rng(seed)))
    values = np.maximum(np.arange(dim) - 1, 0) // 2
    return spectral_resolution(q @ np.diag(values).astype(complex) @ q.conj().T)


def _mixed_state(dim, seed):
    weights = np.random.default_rng(seed).dirichlet(np.ones(3))
    return sum(w * random_state(dim, seed=10 * seed + k) for k, w in enumerate(weights))


def _chain_cases():
    """(dim, chain length, degenerate positions), reference table <= 4,096 cells.

    Every position of every chain is degenerate once; the dim-16 4-chain is
    degenerate throughout, which keeps its reference loop at 8^4 tuples.
    """
    for dim in (2, 3, 5, 8, 16):
        for length in range(1, 5):
            if dim**length <= 4096:
                for degenerate in ((), *((k,) for k in range(length))):
                    yield dim, length, degenerate
    yield 16, 4, (0, 1, 2, 3)


class TestChainKernel:
    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_matches_nested_conjugation(self, mixed):
        for case, (dim, length, degenerate) in enumerate(_chain_cases()):
            rho = _mixed_state(dim, case) if mixed else random_state(dim, seed=case)
            chain = [_degenerate_observable(dim, 100 * case + k) if k in degenerate
                     else random_observable(dim, seed=100 * case + k) for k in range(length)]
            got = wigner_joint(rho, *chain).table
            expected = _reference_joint(rho, *chain)
            assert np.abs(got - expected).max() <= 1e-14, (dim, length, degenerate)

    def test_covers_degenerate_multiplicities(self):
        assert _degenerate_observable(2, 0).multiplicities == (2,)
        assert _degenerate_observable(5, 0).multiplicities == (3, 2)
        assert _degenerate_observable(16, 0).multiplicities == (3, 2, 2, 2, 2, 2, 2, 1)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_single_observable_is_outcome_distribution(self, dim):
        rho = _mixed_state(dim, dim)
        for obs in (random_observable(dim, seed=dim), _degenerate_observable(dim, dim)):
            got = wigner_joint(rho, obs).table
            assert np.abs(got - outcome_probabilities(rho, obs)).max() <= 1e-14

    def test_peak_memory_dim16_four_chain(self):
        rho = _mixed_state(16, 3)
        chain = [random_observable(16, seed=40 + k) for k in range(4)]
        tracemalloc.start()
        try:
            joint = wigner_joint(rho, *chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert joint.table.nbytes == 2**19
        assert peak <= 8 * 2**20

    def test_full_cap_chain_builds(self):
        rho = random_state(16, seed=7)
        chain = [random_observable(16, seed=50 + k) for k in range(5)]
        tracemalloc.start()
        try:
            joint = wigner_joint(rho, *chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert joint.table.size == MAX_TABLE_CELLS
        assert joint.table.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(joint.table.sum(axis=4), wigner_joint(rho, *chain[:4]).table,
                           rtol=0, atol=1e-15)
        assert peak <= 24 * 2**20

    def test_oversized_chain_refused_before_allocation(self):
        rho = random_state(16, seed=7)
        chain = [random_observable(16, seed=50 + k) for k in range(6)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                wigner_joint(rho, *chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestSamplerKernel:
    def _cases(self):
        mid = _degenerate_observable(6, 1)
        assert not mid.is_nondegenerate
        yield _mixed_state(6, 2), [random_observable(6, seed=3), mid, random_observable(6, seed=4)]
        yield random_state(4, seed=5), [random_observable(4, seed=6 + k) for k in range(4)]

    @pytest.mark.parametrize("seed", [0, 1, 17, 123])
    def test_counts_equal_collapse_on_projectors(self, seed):
        for rho, chain in self._cases():
            got = sample_sequence(rho, chain, n=10**6, seed=seed)
            assert np.array_equal(got, _reference_sampler(rho, chain, 10**6, seed))

    def test_never_reads_the_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler read the analytic table")

        monkeypatch.setattr(states, "wigner_joint", refuse)
        for rho, chain in self._cases():
            assert sample_sequence(rho, chain, n=1000, seed=2).sum() == 1000


def _per_branch_sampler(rho, chain, n, seed):
    """The sampler as one recursive call per branch: the reference for its counts.

    Each branch carries its own collapsed block into the next eigenbasis,
    draws its split, and descends into its children one at a time.
    """
    chain = list(chain)
    overlaps = states._chain_overlaps(chain)
    heads = [np.array(obs.edges[:-1]) for obs in chain]
    rng = np.random.default_rng(seed)
    counts = np.zeros(tuple(obs.n_outcomes for obs in chain), dtype=np.int64)
    last = len(chain) - 1

    def descend(block, j, count, depth, idx):
        t = overlaps[depth][j]
        bounds = chain[depth].edges
        carried = t @ block @ t.conj().T
        probs = np.maximum(np.add.reduceat(carried.diagonal().real, heads[depth]), 0.0)
        split = rng.multinomial(count, probs / probs.sum())
        if depth == last:
            counts[idx] = split
            return
        for i, c in enumerate(split):
            if c == 0:
                continue
            lo, hi = bounds[i], bounds[i + 1]
            descend(carried[lo:hi, lo:hi] / probs[i], i, c, depth + 1, idx + (i,))

    descend(np.asarray(rho, dtype=complex), 0, n, 0, ())
    return counts


def _diagonal_observable(dim, degenerate):
    """A diagonal observable, so its eigenbasis is exact and repeats give exact zeros."""
    values = np.arange(dim) // 2 if degenerate else np.arange(dim)
    return spectral_resolution(np.diag(values).astype(complex))


def _oracle_cases():
    """(label, state, chain) of every shape the sampler's levels take.

    Chains of 1 to 5 observables at dims 2 to 8, up to 4,096 cells each, with
    no degenerate observable or one at the first, a middle or the last
    position; and repeated diagonal chains, whose off-diagonal branches have
    probability exactly zero.
    """
    case = 0
    for dim in (2, 3, 4, 6, 8):
        for length in range(1, 6):
            if dim**length > 4096:
                continue
            positions = sorted({0, length // 2, length - 1})
            for degenerate in (None, *positions):
                for mixed in (False, True):
                    case += 1
                    rho = _mixed_state(dim, case) if mixed else random_state(dim, seed=case)
                    chain = [_degenerate_observable(dim, 100 * case + k) if k == degenerate
                             else random_observable(dim, seed=100 * case + k)
                             for k in range(length)]
                    yield f"d{dim}-k{length}-deg{degenerate}-{'mixed' if mixed else 'pure'}", rho, chain
    for dim in (2, 3, 5):
        z, z2 = _diagonal_observable(dim, False), _diagonal_observable(dim, True)
        rho = _mixed_state(dim, dim)
        yield f"d{dim}-repeated", rho, [z, z, z2, z]


class TestSamplerOracle:
    @pytest.mark.parametrize("n", [1, 7, 10**6])
    def test_counts_equal_per_branch_descent(self, n):
        cases = 0
        for label, rho, chain in _oracle_cases():
            for seed in range(5):
                got = sample_sequence(rho, chain, n=n, seed=seed)
                assert np.array_equal(got, _per_branch_sampler(rho, chain, n, seed)), (label, seed)
                cases += 1
        assert cases == 5 * 157

    def test_repeated_chains_have_zero_branches(self):
        repeated = [(rho, chain) for label, rho, chain in _oracle_cases() if "repeated" in label]
        for rho, chain in repeated:
            counts = sample_sequence(rho, chain, n=10**6, seed=0)
            assert counts.sum() == 10**6
            assert np.count_nonzero(counts) < counts.size // 2
