"""Final coverage batch: presets, formatter edge cases, pathlike inputs,
alternative placement schemes in experiments."""

import os
import pathlib

import pytest

from repro.analysis import format_kv, format_series, gini
from repro.cluster import SUMMIT
from repro.core import make_placement, placement_histogram
from repro.dl import (
    COSMOFLOW,
    DEEPCAM,
    IMAGENET21K,
    OPENIMAGES,
    TRESNET_M,
    SyntheticDataset,
)
from repro.experiments.load_balance import load_balance
from repro.runtime import RuntimeDeployment, interposed_open


class TestDatasetPresets:
    def test_openimages_matches_paper_motivation(self):
        # "the Open Images dataset contains approximately 9 million images"
        assert OPENIMAGES.n_train_files == 9_000_000
        assert OPENIMAGES.size_sigma > 0

    def test_model_default_batches(self):
        assert COSMOFLOW.default_batch_size == 4  # Fig 8c caption
        assert DEEPCAM.default_batch_size == 2
        assert TRESNET_M.default_batch_size == 80


class TestFormatters:
    def test_format_series_mixed_x_types(self):
        out = format_series("epoch", ["e1", "R", "avg"], {"t": [1.0, 2.0, 3.0]})
        assert "e1" in out and "avg" in out

    def test_format_kv_integer_passthrough(self):
        out = format_kv({"count": 7})
        assert ": 7" in out

    def test_format_series_custom_float_fmt(self):
        out = format_series("x", [1], {"y": [3.14159]}, float_fmt="{:.1f}")
        assert "3.1" in out


class TestLoadBalanceSchemes:
    def test_consistent_scheme(self):
        dataset, _ = SyntheticDataset.scaled(IMAGENET21K, 10_000)
        by_files = placement_histogram(
            make_placement("consistent", 8), dataset.paths()
        )
        assert gini(by_files) < 0.25

    def test_cdf_probabilities_end_at_one(self):
        res = load_balance([4], n_files=2_000)
        _, ps = res.file_cdfs[4]
        assert ps[-1] == pytest.approx(1.0)


class TestRuntimePathlike:
    def test_pathlib_paths_accepted(self, tmp_path):
        pfs = tmp_path / "pfs"
        pfs.mkdir()
        (pfs / "a.bin").write_bytes(b"hello")
        with RuntimeDeployment(str(pfs), n_servers=1) as dep:
            with interposed_open(dep):
                data = open(pathlib.Path(pfs / "a.bin"), "rb").read()
            assert data == b"hello"
            assert dep.total_misses == 1

    def test_fileno_like_objects_passthrough(self, tmp_path):
        pfs = tmp_path / "pfs"
        pfs.mkdir()
        with RuntimeDeployment(str(pfs), n_servers=1) as dep:
            with interposed_open(dep):
                # open by file descriptor must pass through untouched
                fd = os.open(str(tmp_path / "side.txt"),
                             os.O_CREAT | os.O_WRONLY)
                with open(fd, "w") as fh:
                    fh.write("ok")
        assert (tmp_path / "side.txt").read_text() == "ok"


class TestSpecsConsistency:
    def test_testing_preset_is_fast(self):
        from repro.cluster import TESTING

        # The unit-test preset must stay tiny so the suite stays fast.
        assert TESTING.total_nodes <= 64
        assert TESTING.node.nvme.capacity_bytes <= 100_000_000

    def test_summit_hvac_defaults_match_paper_prototype(self):
        hvac = SUMMIT.hvac
        assert hvac.eviction_policy == "random"  # §III-G
        assert hvac.hash_scheme == "mod"  # §III-E prototype
        assert hvac.replication_factor == 1  # single-home prototype
        assert hvac.instances_per_node == 1
