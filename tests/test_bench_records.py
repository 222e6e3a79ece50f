"""Every committed benchmark record is complete, and no two records share a seed.

A record pairs parent and change runs of ``perfbench/run.py`` per workload and
end-to-end metric; its seeds must be fresh, so none may appear in another record.
"""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))
WORKLOADS = ("small-n", "large-n", "cli-chain")


def _seeds(record) -> set:
    seeds = record["method"]["seeds"]
    per_workload = seeds.values() if isinstance(seeds, dict) else [seeds]
    assert all(isinstance(s, list) and s for s in per_workload)
    return {seed for s in per_workload for seed in s}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_pairs_parent_and_change_runs(path):
    record = json.loads(path.read_text())
    assert all(isinstance(seed, int) for seed in _seeds(record))
    for workload in WORKLOADS:
        metrics = record["end_to_end"][workload]
        assert metrics
        for name, metric in metrics.items():
            parent, change = metric["parent"]["runs"], metric["change"]["runs"]
            assert len(parent) == len(change) > 0, (workload, name)


def test_no_seed_in_two_records():
    owner = {}
    for path in RECORDS:
        for seed in _seeds(json.loads(path.read_text())):
            assert seed not in owner, f"seed {seed} in {owner.get(seed)} and {path.name}"
            owner[seed] = path.name
