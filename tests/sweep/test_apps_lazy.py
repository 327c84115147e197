"""The three application sweeps on the lazy path, pinned to eager.

Each app keeps an ``eager=True`` escape hatch that runs the original
one-block (or one-proposal-at-a-time) code. These pins are the
refactor's safety net: the lazy DAG path must reproduce the eager
results *bitwise* — same delays, same RNG streams, same accepted
descent steps — at every chunk size tried.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps import (
    WireSizingProblem,
    h_tree,
    perturbed_clock_tree,
    sweep_widths,
    tune_clock_tree,
)
from repro.apps.variation import (
    VariationModel,
    _factor_prefix,
    _staged_factor_values,
    sample_delays,
)
from repro.circuit import fig5_tree
from repro.sweep import lognormal_factors


@pytest.fixture(scope="module")
def tree():
    return fig5_tree()


class TestSampleDelaysLazy:
    @pytest.mark.parametrize("chunk_size", [1, 52, 53, 60, None])
    def test_bitwise_identical_to_eager(self, tree, chunk_size):
        kwargs = dict(
            samples=53, exact_samples=3, seed=11,
            variation=VariationModel(0.15, 0.1, 0.2),
        )
        lazy = sample_delays(tree, "n7", chunk_size=chunk_size, **kwargs)
        eager = sample_delays(tree, "n7", eager=True, **kwargs)
        assert lazy.rlc.values.tobytes() == eager.rlc.values.tobytes()
        assert lazy.rc.values.tobytes() == eager.rc.values.tobytes()
        assert lazy.exact.values.tobytes() == eager.exact.values.tobytes()

    def test_rng_stream_is_chunk_invariant(self, tree):
        variation = VariationModel()
        small = sample_delays(
            tree, "n7", variation, samples=40, seed=3, chunk_size=7
        )
        large = sample_delays(
            tree, "n7", variation, samples=40, seed=3, chunk_size=1000
        )
        assert small.rlc.values.tobytes() == large.rlc.values.tobytes()


class TestStagedFactorMemory:
    def test_eager_staging_no_longer_holds_all_blocks(self):
        """Satellite regression: the eager factor matrix is staged
        through one generator in blocks, so its peak transient memory
        is the output block plus O(one stage), not three full copies
        of the (S, 3, n) matrix as the old expression built."""
        sections, samples = 24, 4000
        sig = np.array([0.15, 0.1, 0.2])
        nominal = np.array([25.0, 5e-9, 0.5e-12])[:, None] * np.ones(sections)
        output_bytes = samples * 3 * sections * 8

        tracemalloc.start()
        values = _staged_factor_values(
            sections, sig, nominal, samples, seed=5, stage=256
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert values.shape == (samples, 3, sections)
        assert peak < 2 * output_bytes

    def test_staged_values_match_one_shot_draw(self):
        sig = np.array([0.15, 0.1, 0.2])
        nominal = np.array([25.0, 5e-9, 0.5e-12])[:, None] * np.ones(8)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((100, 8, 3))
        reference = (
            np.exp(-0.5 * sig * sig + sig * z).transpose(0, 2, 1) * nominal
        )
        staged = _staged_factor_values(8, sig, nominal, 100, seed=5, stage=13)
        assert staged.tobytes() == reference.tobytes()


class TestChunkedFactorDraw:
    """The lazy axis draws in place, one element kind at a time; its
    chunks must concatenate to the eager broadcast draw bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096, 4097])
    def test_chunks_match_eager_draws(self, chunk):
        sections, seed = 7, 21
        samples = 2 * chunk + 3  # ragged last chunk for chunk > 3
        sig = np.array([0.15, 0.1, 0.2])
        nominal = np.array([25.0, 5e-9, 0.5e-12])[:, None] * np.ones(sections)
        axis = lognormal_factors(
            f"draw{chunk}", sigmas=sig, sections=sections,
            samples=samples, seed=seed,
        )
        rng = axis.start_stream()
        blocks = [
            axis.draw(rng, min(chunk, samples - lo))
            for lo in range(0, samples, chunk)
        ]
        drawn = np.concatenate(blocks)
        prefix = _factor_prefix(sig, sections, samples, seed)
        assert drawn.tobytes() == prefix.tobytes()
        staged = _staged_factor_values(
            sections, sig, nominal, samples, seed=seed, stage=chunk
        )
        assert (drawn * nominal).tobytes() == staged.tobytes()


class TestSweepWidthsLazy:
    @pytest.mark.parametrize("model", ["rlc", "rc"])
    def test_bitwise_identical_to_eager(self, model):
        problem = WireSizingProblem()
        widths = np.linspace(problem.min_width, problem.max_width, 37)
        lazy = sweep_widths(problem, widths, model, chunk_size=10)
        eager = sweep_widths(problem, widths, model, eager=True)
        assert lazy.tobytes() == eager.tobytes()

    def test_empty_grid(self):
        problem = WireSizingProblem()
        assert sweep_widths(problem, []).size == 0


class TestTuneClockTreeLazy:
    def test_cascade_descent_matches_eager_probing(self):
        tree = perturbed_clock_tree(h_tree(levels=3), 0.15, seed=5)
        lazy = tune_clock_tree(tree)
        eager = tune_clock_tree(tree, eager=True)
        assert lazy.objective_trace == eager.objective_trace
        assert lazy.iterations == eager.iterations
        assert set(lazy.widths) == set(eager.widths)
        assert all(lazy.widths[k] == eager.widths[k] for k in eager.widths)
        assert lazy.skew_after == eager.skew_after

    def test_budget_capped_cascade_matches(self):
        tree = perturbed_clock_tree(h_tree(levels=3), 0.25, seed=2)
        lazy = tune_clock_tree(tree, iterations=7, initial_step=0.2)
        eager = tune_clock_tree(tree, iterations=7, initial_step=0.2,
                                eager=True)
        assert lazy.iterations == eager.iterations
        assert lazy.objective_trace == eager.objective_trace
        assert all(lazy.widths[k] == eager.widths[k] for k in eager.widths)
