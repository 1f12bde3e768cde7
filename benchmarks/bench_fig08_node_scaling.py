"""Fig 8 (a–d): training time vs node count for the four DL applications.

GPFS / HVAC(1×1) / HVAC(2×1) / HVAC(4×1) / XFS-on-NVMe across the node
sweep, for ResNet50 and TResNet_M on ImageNet21K, CosmoFlow on
cosmoUniverse, and DeepCAM on the climate dataset.  The DES runs a
reduced sweep; the analytic model prints the paper's full 1→1,024 range.
"""

import pytest

from repro.dl import (
    COSMOFLOW,
    COSMOUNIVERSE,
    DEEPCAM,
    DEEPCAM_CLIMATE,
    IMAGENET21K,
    RESNET50,
    TRESNET_M,
)
from conftest import BENCH_SCALE, documented_table, node_sweep

PANELS = [
    ("a", RESNET50, IMAGENET21K),
    ("b", TRESNET_M, IMAGENET21K),
    ("c", COSMOFLOW, COSMOUNIVERSE),
    ("d", DEEPCAM, DEEPCAM_CLIMATE),
]


def printed_mismatches(des, heading: str) -> list[str]:
    """Cells of the documented table that ``des`` does not round to, at
    the precision each cell is printed with (``66.7`` is one decimal)."""
    header, body = documented_table(heading)
    assert [int(row[0]) for row in body] == des.node_counts
    labels = list(des.total_minutes)
    assert [name.replace("×", "x") for name in header[1:]] == [
        label.removesuffix("-on-NVMe") for label in labels
    ]
    out = []
    for i, row in enumerate(body):
        for label, cell in zip(labels, row[1:]):
            value = des.total_minutes[label][i]
            if round(value, len(cell.partition(".")[2])) != float(cell):
                out.append(f"{label} @ {row[0]} nodes: documented {cell}, got {value:.4g}")
    return out


@pytest.mark.parametrize("panel,model,dataset", PANELS, ids=[p[0] for p in PANELS])
@pytest.mark.benchmark(group="fig08")
def test_fig08_panel(benchmark, capsys, panel, model, dataset, resnet50_sweep):
    if panel == "a":
        run, args = resnet50_sweep, ()
    else:
        run, args = node_sweep, (model, dataset)
    des, analytic = benchmark.pedantic(run, args=args, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(f"--- Fig 8({panel}) ---")
        print(des.render())
        print()
        print(analytic.render() + "   [analytic, full sweep]")
        if panel == "a":
            from repro.analysis import ascii_chart

            print()
            print(ascii_chart(
                analytic.node_counts, analytic.total_minutes,
                title="Fig 8(a) shape: GPFS flattens, HVAC tracks XFS",
                log_x=True, log_y=True,
                x_label="nodes", y_label="minutes",
            ))

    # Ordering claim at every DES point: XFS <= HVAC variants <= ~GPFS.
    # Large-file datasets (CosmoFlow/DeepCAM) get extra slack at small
    # node counts: an unsaturated 2.5 TB/s PFS can legitimately beat
    # per-node NVMe there, and the HVAC-vs-GPFS win only appears once
    # the PFS saturates (checked on the analytic full sweep below).
    gpfs_slack = 1.15 if dataset.mean_file_bytes < 1e6 else 1.35
    for i in range(len(des.node_counts)):
        xfs = des.total_minutes["XFS-on-NVMe"][i]
        hvac4 = des.total_minutes["HVAC(4x1)"][i]
        hvac1 = des.total_minutes["HVAC(1x1)"][i]
        gpfs = des.total_minutes["GPFS"][i]
        assert xfs <= hvac4 * 1.05
        assert hvac4 <= hvac1 * 1.05
        assert hvac1 <= gpfs * gpfs_slack

    # Full-sweep claim: at 1,024 nodes HVAC clearly beats GPFS.
    g = analytic.total_minutes["GPFS"][-1]
    h = analytic.total_minutes["HVAC(4x1)"][-1]
    assert h < g

    # EXPERIMENTS.md quotes panel (a)'s DES table at the default scale.
    if panel == "a" and BENCH_SCALE == "small":
        mismatches = printed_mismatches(des, "## Fig 8 ")
        assert not mismatches, mismatches
