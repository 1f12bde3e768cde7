"""Tests for the per-figure experiment drivers (small-scale instances).

Each test runs the *same* experiment code the benchmarks run, at unit
scale, and asserts the paper's qualitative claim for that figure.
"""

from dataclasses import replace

import pytest

from repro.cluster import SUMMIT
from repro.dl import COSMOUNIVERSE, IMAGENET21K, RESNET50, TRESNET_M
from repro.experiments import Scale, resolve_setup, run_training
from repro.experiments.batch import batch_size_scaling
from repro.experiments.cache_split import cache_split
from repro.experiments.epochs import epoch_scaling, per_epoch_analysis
from repro.experiments.load_balance import load_balance
from repro.experiments.mdtest_exp import (
    LARGE_FILE,
    SMALL_FILE,
    mdtest_scaling,
    mdtest_scaling_analytic,
)
from repro.experiments.scaling import (
    node_scaling,
    node_scaling_analytic,
    normalized_to_gpfs,
    overhead_vs_xfs,
)

TINY = Scale(files_per_rank=6, sim_batch_size=3, repetitions=1, procs_per_node=2)


class TestHarness:
    def test_resolve_setup_by_name(self):
        assert resolve_setup("gpfs").label == "GPFS"

    def test_resolve_setup_passthrough(self):
        setup = resolve_setup("hvac2")
        assert resolve_setup(setup) is setup

    def test_resolve_unknown(self):
        with pytest.raises(ValueError):
            resolve_setup("tape-robot")

    @pytest.mark.parametrize("field, value", [
        ("files_per_rank", 0),
        ("files_per_rank", -3),
        ("repetitions", 0),
        ("procs_per_node", 0),
        ("epochs_simulated", 0),
        ("sim_batch_size", -4),
        ("files_per_rank", float("nan")),
    ])
    def test_scale_rejects_bad_sizes(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scale(**{field: value})

    def test_run_training_returns_result(self):
        res = run_training("xfs", RESNET50, IMAGENET21K, 2, TINY)
        assert len(res.epoch_times) == 2
        assert res.system_label == "XFS-on-NVMe"

    def test_hvac_hit_rate_populated(self):
        res = run_training("hvac1", RESNET50, IMAGENET21K, 2, TINY)
        assert res.cache_hit_rate > 0

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_are_rejected(self, epochs):
        # epochs=0 used to run the scale's default epoch count
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            run_training("xfs", RESNET50, IMAGENET21K, 2, TINY, epochs=epochs)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            per_epoch_analysis(RESNET50, IMAGENET21K, TINY, n_nodes=2, epochs=epochs)

    @pytest.mark.parametrize("n_nodes", [0, -2])
    def test_node_counts_below_one_are_rejected(self, n_nodes):
        # used to blame n_files, which the caller never passed
        with pytest.raises(ValueError, match="n_nodes must be >= 1"):
            run_training("xfs", RESNET50, IMAGENET21K, n_nodes, TINY)
        with pytest.raises(ValueError, match="n_nodes must be >= 1"):
            node_scaling(RESNET50, IMAGENET21K, [n_nodes], TINY)
        with pytest.raises(ValueError, match="n_nodes must be >= 1"):
            per_epoch_analysis(RESNET50, IMAGENET21K, TINY, n_nodes=n_nodes)

    @pytest.mark.parametrize("sweep", [
        lambda: node_scaling(RESNET50, IMAGENET21K, [], TINY),
        lambda: node_scaling_analytic(RESNET50, IMAGENET21K, []),
        lambda: mdtest_scaling(SMALL_FILE, []),
        lambda: mdtest_scaling_analytic(SMALL_FILE, []),
    ], ids=["node_scaling", "node_scaling_analytic", "mdtest_scaling",
            "mdtest_scaling_analytic"])
    def test_sweeps_reject_no_node_counts(self, sweep):
        # each used to return an empty result
        with pytest.raises(ValueError, match="node_counts must not be empty"):
            sweep()


class TestFig3and4:
    def test_mdtest_small_gap_widens(self):
        res = mdtest_scaling(
            SMALL_FILE, [2, 8], ranks_per_node=4, files_per_rank=6
        )
        ratios = res.ratio()
        assert ratios[-1] > ratios[0] > 1.0  # gap grows with nodes

    def test_mdtest_large_files_bandwidth_regime(self):
        res = mdtest_scaling_analytic(LARGE_FILE, [64, 4096])
        gpfs = res.tx_per_sec["GPFS"]
        # At 8 MB the ceiling is 2.5 TB/s / 8 MiB ≈ 298k tx/s, flat in nodes
        assert gpfs[1] == pytest.approx(2.51e12 / LARGE_FILE, rel=0.05)

    def test_analytic_small_file_saturation(self):
        res = mdtest_scaling_analytic(SMALL_FILE, [16, 512, 4096])
        gpfs = res.tx_per_sec["GPFS"]
        xfs = res.tx_per_sec["XFS-on-NVMe"]
        assert gpfs[2] == pytest.approx(gpfs[1], rel=0.05)  # saturated
        assert xfs[2] == pytest.approx(xfs[1] * 8, rel=0.05)  # linear

    def test_render(self):
        res = mdtest_scaling_analytic(SMALL_FILE, [1, 2])
        assert "Fig 3" in res.render()


class TestFig8and9:
    def test_des_node_scaling_shape(self):
        res = node_scaling(
            RESNET50,
            IMAGENET21K,
            [2, 4],
            TINY,
            systems=("gpfs", "hvac1", "xfs"),
            total_epochs=4,
        )
        assert set(res.total_minutes) == {"GPFS", "HVAC(1x1)", "XFS-on-NVMe"}
        assert all(len(v) == 2 for v in res.total_minutes.values())
        assert "Fig 8" in res.render()

    def test_analytic_fig8_full_sweep(self):
        res = node_scaling_analytic(
            RESNET50, IMAGENET21K, [32, 128, 512, 1024], total_epochs=10
        )
        gpfs = res.total_minutes["GPFS"]
        hvac4 = res.total_minutes["HVAC(4x1)"]
        xfs = res.total_minutes["XFS-on-NVMe"]
        # XFS is the lower bound everywhere; GPFS the upper at scale.
        assert all(x <= h <= g * 1.02 for x, h, g in zip(xfs, hvac4, gpfs))
        # GPFS saturates: barely improves from 512 → 1024 nodes.
        assert gpfs[3] > gpfs[2] * 0.7

    def test_fig9a_improvement_over_50pct_at_scale(self):
        res = node_scaling_analytic(
            RESNET50, IMAGENET21K, [128, 512, 1024], total_epochs=10
        )
        improvement = normalized_to_gpfs(res)["HVAC(4x1)"]
        assert improvement[1] > 50.0
        assert improvement[2] > 50.0

    def test_fig9b_overhead_bands(self):
        res = node_scaling_analytic(
            RESNET50, IMAGENET21K, [64, 256], total_epochs=10
        )
        overhead = overhead_vs_xfs(res)
        o1 = overhead["HVAC(1x1)"]
        o4 = overhead["HVAC(4x1)"]
        assert all(a > b for a, b in zip(o1, o4))  # 1×1 worst
        assert all(0 <= b < 40 for b in o4)


class TestFig10and11:
    def test_epoch_scaling_hvac_grows_slower(self):
        # Weak MDS so GPFS is saturated even at unit-test scale —
        # the regime where Fig 10's divergence appears.
        spec = replace(
            SUMMIT,
            pfs=replace(SUMMIT.pfs, metadata_ops_per_sec=300.0, n_metadata_servers=2),
        )
        res = epoch_scaling(
            RESNET50,
            IMAGENET21K,
            [2, 8, 32],
            TINY,
            n_nodes=4,
            spec=spec,
            systems=("gpfs", "hvac1"),
        )
        gpfs = res.total_minutes["GPFS"]
        hvac = res.total_minutes["HVAC(1x1)"]
        # HVAC's marginal epoch is cheaper than GPFS's.
        gpfs_slope = gpfs[-1] - gpfs[0]
        hvac_slope = hvac[-1] - hvac[0]
        assert hvac_slope < gpfs_slope
        assert "Fig 10" in res.render()

    def test_per_epoch_cold_equals_warm_plus(self):
        res = per_epoch_analysis(
            RESNET50,
            IMAGENET21K,
            TINY,
            n_nodes=4,
            epochs=3,
        )
        # Fig 11 claims: HVAC epoch-1 >= its cached epochs.
        assert res.epoch1["HVAC(1x1)"] >= res.r_epoch["HVAC(1x1)"]
        # and the cached epoch beats GPFS's.
        assert res.r_epoch["HVAC(1x1)"] < res.epoch1["GPFS"] * 1.05
        assert "Fig 11" in res.render()
        assert res.speedup_vs_gpfs("HVAC(1x1)") > 0


class TestFig12:
    def test_batch_size_marginal_effect(self):
        res = batch_size_scaling(
            TRESNET_M,
            IMAGENET21K,
            [4, 32, 128],
            TINY,
            n_nodes=4,
            total_epochs=8,
            systems=("xfs", "hvac1"),
        )
        for label in res.total_minutes:
            # Larger batches help a little, never hurt much: |range| small.
            assert abs(res.improvement_range(label)) < 15.0
        assert "Fig 12" in res.render()


class TestFig13:
    def test_locality_split_negligible(self):
        res = cache_split(
            RESNET50,
            IMAGENET21K,
            TINY,
            n_nodes=4,
            batch_size=8,
            local_fractions=(1.0, 0.5, 0.0),
        )
        assert len(res.epoch_seconds) == 3
        assert res.max_relative_spread() < 0.25
        assert "Fig 13" in res.render()

    def test_batch_size_sets_the_compute_charge(self):
        """A smaller batch pays more per-iteration overhead per sample
        (``ModelSpec.sample_seconds``), so its warm epoch is longer."""
        warm = [
            cache_split(
                RESNET50, IMAGENET21K, TINY, n_nodes=4, batch_size=b,
                local_fractions=(1.0,),
            ).epoch_seconds[0]
            for b in (8, 80)
        ]
        assert warm[0] > warm[1]


class TestFig15:
    def test_balance_improves_with_more_files_per_server(self):
        res = load_balance([4, 64], n_files=20_000)
        assert res.gini_files[4] < res.gini_files[64]

    def test_gini_small(self):
        res = load_balance([16], n_files=50_000)
        assert res.gini_files[16] < 0.05
        assert res.imbalance_files[16] < 1.15

    def test_byte_balance_worse_than_file_balance(self):
        """The paper's 'deviation attributed to random file sizes'."""
        res = load_balance([64], n_files=20_000)
        assert res.gini_bytes[64] >= res.gini_files[64]

    def test_render(self):
        res = load_balance([4], n_files=5_000)
        assert "Fig 15" in res.render()


class TestPrefetchExperiment:
    TINY = dict(n_nodes=2, n_files=48, file_size=40_000, epochs=2, windows=4)

    def test_runs_all_three_modes(self):
        from repro.experiments.prefetch import PREFETCH_MODES, prefetch_comparison

        res = prefetch_comparison(**self.TINY)
        assert tuple(res.outcomes) == PREFETCH_MODES
        for oc in res.outcomes.values():
            assert oc.epoch1_seconds > 0
            assert oc.pfs_bytes > 0
        # The compressed tier alone pays decompression CPU.
        assert res.outcomes["clairvoyant"].decompress_seconds == 0.0
        assert res.outcomes["clairvoyant+compressed"].decompress_seconds > 0.0

    def test_rejects_empty_files(self):
        # used to fail mid-run, in the cache, with "size must be positive"
        from repro.experiments.prefetch import prefetch_comparison

        with pytest.raises(ValueError, match="file_size must be >= 1"):
            prefetch_comparison(**{**self.TINY, "file_size": 0})

    def test_same_seed_reruns_are_identical(self):
        """The acceptance bar: identical report *and* window logs."""
        from repro.experiments.prefetch import prefetch_comparison

        a = prefetch_comparison(**self.TINY, seed=0)
        b = prefetch_comparison(**self.TINY, seed=0)
        assert a.mode_log() == b.mode_log()
        assert a.render() == b.render()

    def test_full_defaults_dominate(self):
        """`repro prefetch` exits 0 iff this predicate holds — pinned
        here at the CLI's own default scale."""
        from repro.experiments.prefetch import prefetch_comparison

        res = prefetch_comparison()
        assert res.dominates(), res.render()
