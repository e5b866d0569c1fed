"""Tests for the pairwise criterion agreement matrix of the H1 benchmark."""

from benchmarks.test_bench_h1_hierarchy import (
    AgreementMatrix,
    agreement_matrix,
    format_agreement,
)


class TestAgreementMatrix:
    def setup_method(self):
        self.matrix = agreement_matrix(trials=90, seed=0)

    def test_trials_counted(self):
        assert self.matrix.trials >= 60

    def test_containments_have_one_empty_direction(self):
        # LLSR ⊆ Comp-C and OPSR ⊆ SCC: the "narrow accepts, wide
        # rejects" cell must be zero.
        assert self.matrix.accepts_only("llsr", "comp_c") == 0
        assert self.matrix.accepts_only("opsr", "scc") == 0
        assert self.matrix.accepts_only("scc", "comp_c") == 0
        assert self.matrix.accepts_only("comp_c", "scc") == 0

    def test_llsr_and_opsr_are_incomparable(self):
        # The paper orders both below SCC but not against each other;
        # the mixed ensemble (random + perturbed layouts) witnesses both
        # disagreement directions.
        assert self.matrix.incomparable("llsr", "opsr")

    def test_agreement_rates_bounded(self):
        rate = self.matrix.agreement_rate("scc", "comp_c")
        assert rate == 1.0  # Theorem 2
        assert 0.0 <= self.matrix.agreement_rate("llsr", "opsr") <= 1.0

    def test_format(self):
        text = format_agreement(self.matrix)
        assert "rows accept" in text
        assert "comp_c" in text

    def test_empty_matrix(self):
        empty = AgreementMatrix(trials=0)
        assert empty.agreement_rate("llsr", "scc") == 1.0
        assert not empty.incomparable("llsr", "opsr")
