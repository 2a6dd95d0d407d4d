"""``scripts/check_docs.py``: the EXPERIMENTS.md staleness diff.

Run-to-run noise (footers, measured wall-clock cells and their table
padding) must pass; any other difference must still fail.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.eval.tables import format_table

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO / "scripts" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def _doc(finetune="18.8 ms", operation="online fine-tune (1 reading)",
         bound="< 10 min", peak="110.04", ran="2"):
    """A two-section EXPERIMENTS.md excerpt: a value table and the §6.4.5
    overhead table, each with its run-time footer."""
    capping = format_table("Fig. 1 — capping", ["Config", "Peak W"],
                           [["uncapped", peak], ["PI=1  AI=1", "96.66"]])
    overhead = format_table(
        "§6.4.5 — HighRPM overhead", ["Operation", "Measured", "Paper bound"],
        [["offline training", "2.03 s", bound],
         [operation, finetune, "< 2 s"],
         ["node prediction (1 sample)", "0.95 ms", "< 1 ms"],
         ["component prediction (1 sample)", "0.17 ms", "< 1 ms"]],
    )
    return (f"## Fig. 1\n\n```\n{capping}\n```\n_(ran in 0s)_\n\n"
            f"## §6.4.5\n\n```\n{overhead}\n```\n_(ran in {ran}s)_\n")


@pytest.mark.parametrize("finetune", ["8.8 ms", "9.9 ms", "118.8 ms"])
def test_a_timing_of_another_width_passes(finetune):
    committed, regenerated = _doc(), _doc(finetune=finetune)
    assert committed != regenerated  # the padding differs too
    assert check_docs.diff_experiments(committed, regenerated) == []


def test_a_timing_in_prose_passes():
    assert check_docs.diff_experiments(
        "A fine-tune took 18.8 ms, under the bound.\n",
        "A fine-tune took 8.8 ms, under the bound.\n") == []


def test_run_time_footers_pass():
    assert check_docs.diff_experiments(_doc(ran="2"), _doc(ran="15")) == []


@pytest.mark.parametrize("change", [
    {"operation": "online fine-tune (2 readings)"},
    {"operation": "online fine-tune"},
    {"bound": "< 20 min"},
    {"peak": "110.05"},
    {"finetune": "18.8 ms", "peak": "110.4"},
])
def test_a_changed_non_timing_cell_fails(change):
    (error,) = check_docs.diff_experiments(_doc(), _doc(**change))
    assert error.startswith("EXPERIMENTS.md is stale")


def test_a_timing_in_another_unit_fails():
    (error,) = check_docs.diff_experiments(_doc(), _doc(finetune="18.8 us"))
    assert "18.8 us" in error
