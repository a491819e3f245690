"""Table canonicalisation, masks and committed references."""

from __future__ import annotations

import json

import bench_tables as bt
from repro.util.tables import Table


def _e6c(owned_us: float, subscribers: int = 10) -> str:
    table = Table("E6c: per-packet device cost vs. installed services",
                  ["subscribers", "owned_pkt_us", "unowned_pkt_us",
                   "redirect_check_us"])
    table.add_row(subscribers, owned_us, 0.9, 0.56)
    table.add_note("notes are not compared")
    return table.to_markdown()


def test_mask_ignores_timing_cell_and_catches_other_cells():
    base = bt.digests(bt.parse_tables(_e6c(8.59)))
    assert bt.digests(bt.parse_tables(_e6c(7.53))) == base
    assert bt.digests(bt.parse_tables(_e6c(8.59, subscribers=11))) != base


def test_numbers_compare_by_value_not_format():
    text = "**E9a: t**\n\n| a | b |\n|---|---|\n| 1.0 | x |\n"
    other = "**E9a: t**\n\n| a | b |\n|---|---|\n| 1 | x |\n\n*note: y*\n"
    assert bt.digests(bt.parse_tables(text)) == bt.digests(bt.parse_tables(other))
    changed = "**E9a: t**\n\n| a | b |\n|---|---|\n| 1 | y |\n"
    assert bt.digests(bt.parse_tables(text)) != bt.digests(bt.parse_tables(changed))


def test_masks_name_real_columns_of_experiments_md():
    tables = bt.parse_tables(bt.EXPERIMENTS_MD.read_text())
    assert "E2" in tables and len(tables) >= 37
    for table_id, columns in bt.MASKS.items():
        header = tables[table_id][1]
        assert set(columns) <= set(header), table_id


def test_golden_digests_cover_every_table_of_their_workload():
    reference = bt.parse_tables(bt.EXPERIMENTS_MD.read_text())
    for workload in bt.WORKLOADS:
        golden = json.loads((bt.GOLDEN_DIR / f"{workload}.json").read_text())
        assert len(golden) >= 2 and str(bt.REFERENCE_SEED) not in golden
        ids = list(bt.runners(workload))
        expected = {t for t in reference
                    if bt._EXPERIMENT_OF.match(t).group(1) in ids}
        for seed, digests in golden.items():
            assert set(digests) == expected, (workload, seed)


def test_mismatches_report_changed_missing_and_extra_tables():
    want = {"E1a": "x", "E1b": "y"}
    assert bt.mismatches({"E1a": "x", "E1b": "y"}, want) == []
    assert bt.mismatches({"E1a": "z", "E1c": "y"}, want) == ["E1a", "E1b", "E1c"]
