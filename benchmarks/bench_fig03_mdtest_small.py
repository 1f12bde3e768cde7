"""Fig 3: MDTest 32 KB open-read-close transactions/s, GPFS vs XFS-on-NVMe.

Regenerates the paper's small-file motivation figure: GPFS saturates at
the metadata ceiling while XFS-on-NVMe scales linearly with nodes.
"""

import pytest

from repro.experiments.mdtest_exp import SMALL_FILE, mdtest_scaling, mdtest_scaling_analytic

from conftest import BENCH_SCALE, bench_nodes, documented_table, paper_nodes


def _run():
    des = mdtest_scaling(
        SMALL_FILE, bench_nodes(), ranks_per_node=6, files_per_rank=8
    )
    analytic = mdtest_scaling_analytic(SMALL_FILE, paper_nodes())
    return des, analytic


def rounds_to(value: float, cell: str) -> bool:
    """Whether ``value`` rounds to ``cell`` at its printed significant
    digits: ``8,270`` keeps three (an integer's trailing zeros are not
    significant), ``66.7`` one decimal."""
    whole, _, frac = cell.replace(",", "").partition(".")
    places = len(frac) if frac else len(whole.rstrip("0")) - len(whole)
    return round(value, places) == float(f"{whole}.{frac}")


def printed_mismatches(des, analytic) -> list[str]:
    """Cells of the documented Fig 3 table at the DES node counts that
    the DES or analytic tx/s does not round to."""
    header, body = documented_table("## Fig 3 ")
    assert header[1:] == ["GPFS (DES)", "XFS (DES)", "GPFS (analytic)", "XFS (analytic)"]
    rows = {row[0]: row[1:] for row in body}
    out = []
    for i, n in enumerate(des.node_counts):
        j = analytic.node_counts.index(n)
        values = [
            des.tx_per_sec["GPFS"][i], des.tx_per_sec["XFS-on-NVMe"][i],
            analytic.tx_per_sec["GPFS"][j], analytic.tx_per_sec["XFS-on-NVMe"][j],
        ]
        for name, cell, value in zip(header[1:], rows[str(n)], values):
            if not rounds_to(value, cell):
                out.append(f"{name} @ {n} nodes: documented {cell}, got {value:.7g}")
    return out


@pytest.mark.benchmark(group="fig03")
def test_fig03_mdtest_small_files(benchmark, capsys):
    des, analytic = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(des.render())
        print()
        print(analytic.render() + "   [analytic, full sweep]")
        print()
        from repro.analysis import ascii_chart

        print(ascii_chart(
            analytic.node_counts, analytic.tx_per_sec,
            title="Fig 3 shape: the metadata plateau vs linear NVMe",
            log_x=True, log_y=True, x_label="nodes", y_label="tx/s",
        ))

    # Paper claim: the XFS/GPFS gap widens with node count.
    ratios = des.ratio()
    assert ratios[-1] > ratios[0] > 1.0
    # Full sweep: GPFS flat by 1024 nodes, XFS still doubling.
    g = analytic.tx_per_sec["GPFS"]
    x = analytic.tx_per_sec["XFS-on-NVMe"]
    assert g[-1] == pytest.approx(g[-2], rel=0.05)
    assert x[-1] == pytest.approx(2 * x[-2], rel=0.05)

    # EXPERIMENTS.md quotes the DES and analytic tx/s at the default scale.
    if BENCH_SCALE == "small":
        mismatches = printed_mismatches(des, analytic)
        assert not mismatches, mismatches
