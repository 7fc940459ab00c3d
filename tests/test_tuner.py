import hypothesis.strategies as st
import pytest
from hypothesis import given

from driftguard.tuner import tune_thresholds
from driftguard.types import BenchmarkDataset, ContractError, ThresholdRules

import naive_oracle
import reference_fixtures as refs
from gen_strategies import aligned_corpora, labels


@pytest.fixture()
def fixture_corpus():
    old_snapshot, new_snapshot = refs.fixture_snapshots()
    dataset = BenchmarkDataset.create("fixtures", refs.FIXTURE_ITEMS)
    return dataset, old_snapshot, new_snapshot


class TestGridValidation:
    def test_empty_grid_rejected(self, fixture_corpus):
        dataset, old, new = fixture_corpus
        with pytest.raises(ContractError):
            tune_thresholds(old, new, dataset, [], [0.01])
        with pytest.raises(ContractError):
            tune_thresholds(old, new, dataset, [1], [])

    def test_non_increasing_grid_rejected(self, fixture_corpus):
        dataset, old, new = fixture_corpus
        with pytest.raises(ContractError):
            tune_thresholds(old, new, dataset, [3, 1], [0.01])
        with pytest.raises(ContractError):
            tune_thresholds(old, new, dataset, [1], [0.1, 0.1])

    @pytest.mark.parametrize(
        "label_grid,confidence_grid",
        # the last three: label grids of values that are not integers
        [([0, 1], [0.01]), ([1], [0.0, 0.5]), ([1], [0.5, 1.5]), ([1.5], [0.01]), ([1, 2.0], [0.01]),
         ([True], [0.01])],
    )
    def test_out_of_range_grid_rejected(self, fixture_corpus, label_grid, confidence_grid):
        dataset, old, new = fixture_corpus
        with pytest.raises(ContractError):
            tune_thresholds(old, new, dataset, label_grid, confidence_grid)

    def test_short_snapshot_is_contract_error(self, fixture_corpus):
        # a snapshot missing an item is rejected, not silently truncated
        dataset, old, new = fixture_corpus
        with pytest.raises(ContractError):
            tune_thresholds(old[:1], new, dataset, [1], [0.01])
        with pytest.raises(ContractError):
            tune_thresholds(old, new[:2], dataset, [1], [0.01])


class TestCounts:
    def test_minimum_thresholds_catch_every_changed_image(self, fixture_corpus):
        dataset, old, new = fixture_corpus
        matrix = tune_thresholds(old, new, dataset, [1], [0.000001])
        assert matrix.cell(1, 0.000001) == 3

    def test_extreme_thresholds_leave_only_expected_label_hits(self, fixture_corpus):
        dataset, old, new = fixture_corpus
        matrix = tune_thresholds(old, new, dataset, [10**6], [1.0])
        # only the iguana item still misses its expected label
        assert matrix.cell(10**6, 1.0) == 1

    @given(aligned_corpora(), st.frozensets(labels, max_size=2))
    def test_cells_match_per_cell_evaluation(self, corpus, global_expected):
        dataset, old, new = corpus
        label_grid, confidence_grid = [1, 2, 3, 5], [0.01, 0.05, 0.1, 0.5]
        rules = ThresholdRules(expected_labels_global=global_expected)
        matrix = tune_thresholds(old, new, dataset, label_grid, confidence_grid, rules)
        for a in label_grid:
            for b in confidence_grid:
                expected = sum(
                    1
                    for o, n, item in zip(old, new, dataset.items)
                    if naive_oracle.image_violates(
                        o.confidences(),
                        n.confidences(),
                        a,
                        b,
                        global_expected | item.expected_labels,
                    )
                )
                assert matrix.cell(a, b) == expected

    @given(aligned_corpora(max_items=4))
    def test_monotone_along_both_axes(self, corpus):
        dataset, old, new = corpus
        matrix = tune_thresholds(old, new, dataset, [1, 2, 4, 8], [0.01, 0.05, 0.2])
        for row, next_row in zip(matrix.counts, matrix.counts[1:]):
            assert all(b <= a for a, b in zip(row, next_row))
        for row in matrix.counts:
            assert all(b <= a for a, b in zip(row, row[1:]))


class TestRendering:
    def test_tsv_shape(self, fixture_corpus):
        dataset, old, new = fixture_corpus
        matrix = tune_thresholds(old, new, dataset, [1, 5], [0.01, 0.1])
        lines = matrix.to_tsv().splitlines()
        assert len(lines) == 3
        header = lines[0].split("\t")
        assert header[1:] == ["0.01", "0.1"]
        assert lines[1].split("\t")[0] == "1"

    def test_pretty_alignment_same_data(self, fixture_corpus):
        dataset, old, new = fixture_corpus
        matrix = tune_thresholds(old, new, dataset, [1, 5], [0.01, 0.1])
        plain = [line.split("\t") for line in matrix.to_tsv().splitlines()]
        pretty = [line.split() for line in matrix.to_tsv(pretty=True).splitlines()]
        assert plain == pretty
