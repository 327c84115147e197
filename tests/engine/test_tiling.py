"""Row-tiled batch evaluation is bitwise identical to one untiled pass.

``analyze_batch`` walks large scenario blocks in row tiles of
``_TILE_CELLS`` cells, and the threaded tier runs the same tiled
pipeline on contiguous row ranges. The oracle here is the untiled pipeline spelled out: both
tree passes and the metric kernels over the whole ``(S, n)`` block at
once. Every comparison is on the raw float64 bits.
"""

import tracemalloc

import numpy as np
import pytest

from repro.circuit import RLCTree, Section, random_tree, single_line
from repro.engine import analyze_batch, clear_topology_cache, compile_tree, table
from repro.engine.dispatch import shutdown_pool
from repro.engine.kernels import METRIC_NAMES, metrics_from_sums
from repro.engine.sharded import analyze_batch_sharded

#: A small tile for the size grid, so blocks of a few thousand cells
#: already span several tiles and ``n > _TILE_CELLS`` stays cheap.
SMALL_TILE = 2048


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_topology_cache()
    yield
    clear_topology_cache()


@pytest.fixture
def small_tile(monkeypatch):
    monkeypatch.setattr(table, "_TILE_CELLS", SMALL_TILE)
    monkeypatch.setattr(table, "_LEVEL_CELLS", 16)
    return SMALL_TILE


_TREES = {}


def comb(chains, depth):
    """``chains`` lines of ``depth`` sections off one root: deep, narrow."""
    tree = RLCTree()
    for c in range(chains):
        parent = tree.root
        for d in range(depth):
            name = f"c{c}_{d}"
            tree.add_section(name, parent, section=Section(15.0, 2e-9, 2e-13))
            parent = name
    return tree


def compiled_tree(kind, n):
    """A compiled chain, branching or comb tree of ``n`` sections."""
    key = (kind, n)
    if key not in _TREES:
        if kind == "chain":
            tree = single_line(
                n, resistance=25.0, inductance=2e-9, capacitance=3e-13
            )
        elif kind == "comb":
            tree = comb(10, n // 10)
        else:
            tree = random_tree(n, np.random.default_rng(n))
        _TREES[key] = tree
    return compile_tree(_TREES[key])


def value_block(compiled, scenarios, seed=0):
    rng = np.random.default_rng(seed)
    nominal = np.stack(
        [compiled.resistance, compiled.inductance, compiled.capacitance]
    )
    return nominal * rng.uniform(0.5, 1.5, size=(scenarios, 3, compiled.size))


def untiled(compiled, r, l, c, settle_band=0.1, select=None):
    """The one-shot pipeline over the whole block: the oracle."""
    topology = compiled.topology
    loads = topology.accumulate(c)
    t_rc = topology.descend(r * loads)
    t_lc = topology.descend(l * loads)
    return metrics_from_sums(t_rc, t_lc, settle_band, select=select)


def bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def assert_bitwise(got, want):
    for name in METRIC_NAMES:
        expected = getattr(want, name)
        actual = getattr(got, name)
        if expected is None:
            assert actual is None, name
            continue
        assert actual.shape == expected.shape, name
        np.testing.assert_array_equal(bits(actual), bits(expected), err_msg=name)


def tile_rows(compiled):
    return table._tile_rows(compiled.topology)


@pytest.mark.parametrize("kind", ["chain", "branching"])
@pytest.mark.parametrize("n", [1, 7, 1000, SMALL_TILE + 3])
@pytest.mark.parametrize(
    "offset", ["zero", "one", "rows-1", "rows", "rows+1", "3rows+5"]
)
def test_size_grid_matches_untiled(small_tile, kind, n, offset):
    compiled = compiled_tree(kind, n)
    rows = tile_rows(compiled)
    scenarios = {
        "zero": 0,
        "one": 1,
        "rows-1": rows - 1,
        "rows": rows,
        "rows+1": rows + 1,
        "3rows+5": 3 * rows + 5,
    }[offset]
    block = value_block(compiled, scenarios, seed=n)
    got = analyze_batch(compiled, block).metrics
    want = untiled(compiled, block[:, 0], block[:, 1], block[:, 2])
    assert got.t_rc.shape == (scenarios, n)
    assert_bitwise(got, want)


@pytest.mark.parametrize(
    "kind, n", [("chain", 1000), ("branching", 1000), ("comb", 200)]
)
def test_batch_shape_at_the_real_tile(kind, n):
    """Blocks spanning several tiles of the shipped constants."""
    compiled = compiled_tree(kind, n)
    scenarios = 3 * tile_rows(compiled) + 5
    block = value_block(compiled, scenarios, seed=1)
    got = analyze_batch(compiled, block).metrics
    assert_bitwise(got, untiled(compiled, block[:, 0], block[:, 1], block[:, 2]))


@pytest.mark.parametrize(
    "metrics, select",
    [
        (None, None),
        ([], ()),
        (["delay_50"], ("delay_50",)),
        (["settling_time", "zeta"], ("settling", "zeta")),
        (
            ["overshoot", "omega_n", "rise_time"],
            ("overshoot", "omega_n", "rise_time"),
        ),
    ],
)
def test_metric_subsets_match_untiled(small_tile, metrics, select):
    compiled = compiled_tree("branching", 1000)
    block = value_block(compiled, 3 * tile_rows(compiled) + 5, seed=2)
    got = analyze_batch(compiled, block, metrics=metrics).metrics
    want = untiled(
        compiled, block[:, 0], block[:, 1], block[:, 2], select=select
    )
    assert_bitwise(got, want)


def test_broadcast_vectors_give_stride_zero_rows(small_tile):
    compiled = compiled_tree("branching", 1000)
    scenarios = 3 * tile_rows(compiled) + 5
    rng = np.random.default_rng(3)
    r = compiled.resistance * rng.uniform(0.5, 1.5, (scenarios, compiled.size))
    c = compiled.capacitance * 1.25  # one (n,) vector for every scenario
    got = analyze_batch(
        compiled, resistance=r, capacitance=c, settle_band=0.05
    ).metrics
    shape = (scenarios, compiled.size)
    want = untiled(
        compiled,
        r,
        np.broadcast_to(compiled.inductance, shape),
        np.broadcast_to(c, shape),
        settle_band=0.05,
    )
    assert_bitwise(got, want)


def test_rc_lanes_and_out_of_domain_lanes(small_tile):
    compiled = compiled_tree("branching", 1000)
    scenarios = 3 * tile_rows(compiled) + 5
    block = value_block(compiled, scenarios, seed=4)
    block[::3, 1, :] = 0.0  # whole RC scenarios, in every tile
    block[1::3, 1, ::7] = 0.0  # scattered RC sections
    block[2::5, 2, 0] = -block[2::5, 2, 0]  # negative load at the root
    block[4, 0, 10] = np.nan
    got = analyze_batch(compiled, block).metrics
    want = untiled(compiled, block[:, 0], block[:, 1], block[:, 2])
    assert np.isinf(got.zeta).any() and np.isnan(got.delay_50).any()
    assert_bitwise(got, want)


def test_deep_narrow_trees_get_taller_tiles():
    wide = compiled_tree("branching", 1000)
    assert tile_rows(wide) == table._TILE_CELLS // 1000
    deep = compiled_tree("comb", 200)  # 20 levels of 10 nodes
    assert len(deep.topology.levels) == 20
    assert tile_rows(deep) > table._TILE_CELLS // 200
    assert tile_rows(deep) * 200 >= table._LEVEL_CELLS * 20


def test_multi_tile_outputs_own_their_data(small_tile):
    compiled = compiled_tree("chain", 7)
    block = value_block(compiled, 3 * tile_rows(compiled) + 5)
    metrics = analyze_batch(compiled, block).metrics
    for name in METRIC_NAMES:
        values = getattr(metrics, name)
        assert values.flags.owndata and values.flags.c_contiguous, name


def test_each_tile_is_released_before_the_next(small_tile):
    """Only one tile's metric arrays are alive while the next is computed.

    Above the ``(S, n)`` outputs, the peak holds one tile's temporaries
    (about 2.5 tiles of field bytes); keeping the previous tile's
    results alive adds one more tile on top.
    """
    compiled = compiled_tree("branching", 1000)
    topology = compiled.topology
    rows = tile_rows(compiled)
    block = value_block(compiled, 6 * rows)
    r, l, c = block[:, 0], block[:, 1], block[:, 2]
    table._evaluate_block(topology, r, l, c, 0.1, None)
    tracemalloc.start()
    try:
        metrics = table._evaluate_block(topology, r, l, c, 0.1, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = 8 * compiled.size * 8
    over = peak - len(block) * field_bytes
    assert over < 3 * rows * field_bytes, over / (rows * field_bytes)
    assert_bitwise(metrics, untiled(compiled, r, l, c))


class TestShardWorker:
    """A shard's rows evaluate through the same tiles, threaded or not."""

    @pytest.fixture(autouse=True)
    def no_leaked_pool(self):
        yield
        shutdown_pool()

    def _setup(self, tiles=3):
        compiled = compiled_tree("branching", 1000)
        scenarios = tiles * tile_rows(compiled) + 5
        block = value_block(compiled, scenarios, seed=5)
        return compiled, block

    @pytest.mark.parametrize(
        "fields", [METRIC_NAMES, ("t_rc", "t_lc", "delay_50")]
    )
    def test_range_writes_only_its_rows(self, fields):
        compiled, block = self._setup()
        scenarios, _, n = block.shape
        select = None if fields == METRIC_NAMES else ("delay_50",)
        out = {name: np.full((scenarios, n), -1.0) for name in fields}
        start, stop = 9, scenarios - 11
        rows = block[start:stop]
        table._evaluate_block(
            compiled.topology,
            rows[:, 0],
            rows[:, 1],
            rows[:, 2],
            0.1,
            select,
            out={name: values[start:stop] for name, values in out.items()},
            rows=tile_rows(compiled) // 2,
        )
        want = analyze_batch(compiled, block, metrics=select).metrics
        for name in fields:
            np.testing.assert_array_equal(
                bits(out[name][start:stop]),
                bits(getattr(want, name)[start:stop]),
                err_msg=name,
            )
            assert np.all(out[name][:start] == -1.0)
            assert np.all(out[name][stop:] == -1.0)

    def test_pooled_shards_match_in_process(self):
        compiled, block = self._setup(tiles=6)
        got = analyze_batch_sharded(compiled, block, shards=3, workers=2)
        assert_bitwise(got.metrics, analyze_batch(compiled, block).metrics)
