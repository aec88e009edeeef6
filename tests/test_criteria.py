from decimal import ROUND_HALF_UP, Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tedclean.config import DEFAULT_CRITERION_LEXICON, DEFAULT_SEPARATORS, PipelineConfig
from tedclean.criteria import (
    classify_criterion,
    clean_weight_field,
    extract_price_weight,
    normalize_weights,
    repair_criteria,
    split_criteria,
    unmix_names_weights,
)
from tedclean.models import CriteriaRaw, Criterion, CriterionClass

import rule_oracle
import separator_oracle as oracle

SEPS = list(DEFAULT_SEPARATORS)


def oracle_normalize(weights: list[Decimal]) -> list[Decimal] | None:
    """Reference normalization via high-precision decimal division."""
    total = sum(weights)
    if not weights or total <= 0 or any(w < 0 for w in weights):
        return None
    with localcontext() as ctx:
        ctx.prec = 60
        exact = [(w * 100) / total for w in weights]
    rounded = [e.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP) for e in exact]
    residual = Decimal("100.00") - sum(rounded)
    if residual:
        rounded[weights.index(max(weights))] += residual
    return rounded


class TestCleanWeightField:
    def test_plain(self):
        assert clean_weight_field("60;40", SEPS) == [Decimal("60"), Decimal("40")]

    def test_junk_and_decimals(self):
        assert clean_weight_field("60 % --- 12,5 pts", SEPS) == [
            Decimal("60"),
            Decimal("12.5"),
        ]

    def test_empty(self):
        assert clean_weight_field("", SEPS) == []
        assert clean_weight_field("   ", SEPS) == []
        assert clean_weight_field("aucun", SEPS) == []


class TestSplitCriteria:
    def test_aligned(self):
        pairs, mismatch = split_criteria("Prix;Qualité", [Decimal("60"), Decimal("40")], SEPS)
        assert pairs == [("Prix", Decimal("60")), ("Qualité", Decimal("40"))]
        assert mismatch is False

    def test_count_mismatch_drops_weights(self):
        pairs, mismatch = split_criteria("Prix;Qualité;Délai", [Decimal("60"), Decimal("40")], SEPS)
        assert pairs == [("Prix", None), ("Qualité", None), ("Délai", None)]
        assert mismatch is True

    def test_no_weights(self):
        pairs, mismatch = split_criteria("Prix", [], SEPS)
        assert pairs == [("Prix", None)]
        assert mismatch is False

    def test_no_names(self):
        pairs, mismatch = split_criteria("", [Decimal("70"), Decimal("30")], SEPS)
        assert pairs == [("", Decimal("70")), ("", Decimal("30"))]
        assert mismatch is False

    def test_single_pair(self):
        pairs, mismatch = split_criteria("Prix", [Decimal("100")], SEPS)
        assert pairs == [("Prix", Decimal("100"))]
        assert mismatch is False


class TestUnmixNamesWeights:
    def test_trailing_colon(self):
        pairs = unmix_names_weights("Prix : 60 ; Qualité : 40", SEPS)
        assert pairs == [("Prix", Decimal("60")), ("Qualité", Decimal("40"))]

    def test_leading_percent(self):
        pairs = unmix_names_weights("60% prix, 40% valeur technique", SEPS)
        assert pairs == [("prix", Decimal("60")), ("valeur technique", Decimal("40"))]

    def test_parenthesized(self):
        pairs = unmix_names_weights("Qualité (60 points), Prix (40)", SEPS)
        assert pairs == [("Qualité", Decimal("60")), ("Prix", Decimal("40"))]

    def test_segment_without_number(self):
        pairs = unmix_names_weights("Qualité ; Prix 40", SEPS)
        assert pairs == [("Qualité", None), ("Prix", Decimal("40"))]

    def test_empty(self):
        assert unmix_names_weights("", SEPS) == []
        assert unmix_names_weights("  ", SEPS) == []


class TestSeparatorOracle:
    """The cached separator patterns cut cells exactly as the per-call helpers did."""

    @given(oracle.cells, oracle.cells, oracle.separator_lists)
    # a repeated separator holding NUL matches again after the first pass
    @example("111\x00", "111\x00", ["1\x00", "1\x00"])
    @settings(max_examples=400)
    def test_equals_per_call_oracle(self, names, weights, separators):
        tokens = clean_weight_field(weights, separators)
        assert tokens == oracle.clean_weight_field(weights, separators)
        assert split_criteria(names, tokens, separators) == oracle.split_criteria(
            names, weights, separators
        )
        assert unmix_names_weights(names, separators) == oracle.unmix_names_weights(
            names, separators
        )


class TestNormalizeWeights:
    def test_worked_example(self):
        out = normalize_weights([Decimal(30), Decimal(20), Decimal(10)])
        assert out == [Decimal("50.00"), Decimal("33.33"), Decimal("16.67")]

    def test_scale_invariance_exact(self):
        small = normalize_weights([Decimal("0.3"), Decimal("0.2"), Decimal("0.1")])
        big = normalize_weights([Decimal(30), Decimal(20), Decimal(10)])
        assert small == big

    def test_residual_goes_to_first_largest(self):
        out = normalize_weights([Decimal(1), Decimal(1), Decimal(1)])
        assert out == [Decimal("33.34"), Decimal("33.33"), Decimal("33.33")]
        out = normalize_weights([Decimal(1), Decimal(3), Decimal(3)])
        assert out == [Decimal("14.29"), Decimal("42.85"), Decimal("42.86")]

    def test_single(self):
        assert normalize_weights([Decimal(7)]) == [Decimal("100.00")]

    def test_rejects(self):
        assert normalize_weights([]) is None
        assert normalize_weights([Decimal(0)]) is None
        assert normalize_weights([Decimal(-1), Decimal(2)]) is None

    def test_two_decimal_places(self):
        for value in normalize_weights([Decimal(60), Decimal(40)]):
            assert value.as_tuple().exponent == -2

    @given(st.lists(st.integers(min_value=1, max_value=9999), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_sum_is_exactly_100(self, raw):
        out = normalize_weights([Decimal(w) for w in raw])
        assert sum(out) == Decimal("100.00")

    @given(st.lists(st.integers(min_value=1, max_value=9999), min_size=1, max_size=8))
    @settings(max_examples=300)
    def test_matches_oracle(self, raw):
        weights = [Decimal(w) for w in raw]
        assert normalize_weights(weights) == oracle_normalize(weights)

    @given(
        st.lists(st.integers(min_value=1, max_value=999), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=1000),
    )
    @settings(max_examples=300)
    def test_scale_invariance_property(self, raw, factor):
        weights = [Decimal(w) for w in raw]
        scaled = [w * factor for w in weights]
        assert normalize_weights(weights) == normalize_weights(scaled)


def decimal_weight(digits: int, places: int) -> Decimal:
    return Decimal(f"{digits}E-{places}")  # exact, whatever the digit count


ORACLE_WEIGHTS = st.one_of(
    st.integers(min_value=0, max_value=3).map(Decimal),  # zeros and tied largest weights
    st.integers(min_value=-3, max_value=-1).map(Decimal),
    st.builds(decimal_weight, st.integers(0, 10**6), st.integers(0, 3)),
    # more significant digits than the 28 of the default decimal context
    st.builds(decimal_weight, st.integers(10**28, 10**36), st.integers(0, 36)),
)


def as_text(weights: list[Decimal] | None) -> list[str] | None:
    # str, not ==: Decimal("50.00") == Decimal("50.0")
    return None if weights is None else [str(w) for w in weights]


class TestNormalizeWeightsFractionOracle:
    @given(st.lists(ORACLE_WEIGHTS, max_size=8))
    @example([Decimal(1), Decimal(19999)])  # a half cent rounds up, not to even
    @example([Decimal(1), Decimal("19999.000000000000000000000000000001")])
    @example([Decimal(1), Decimal(3), Decimal(3)])  # residual to the first largest
    @example([Decimal(0), Decimal(0)])
    @settings(max_examples=500)
    def test_matches_fraction_oracle(self, weights):
        assert as_text(normalize_weights(weights)) == as_text(
            rule_oracle.normalize_weights(weights)
        )


class TestClassify:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Prix", CriterionClass.PRICE),
            ("prix des prestations", CriterionClass.PRICE),
            ("Coût global", CriterionClass.PRICE),
            ("Délai d'exécution", CriterionClass.DEADLINE),
            ("Performance environnementale", CriterionClass.ENVIRONMENTAL),
            ("Insertion professionnelle", CriterionClass.SOCIAL),
            ("Valeur technique", CriterionClass.TECHNICAL),
            ("Qualité", CriterionClass.TECHNICAL),
            ("???", CriterionClass.OTHERS),
            ("", CriterionClass.OTHERS),
        ],
    )
    def test_examples(self, name, expected):
        assert classify_criterion(name, DEFAULT_CRITERION_LEXICON) is expected

    def test_priority_price_over_technical(self):
        assert (
            classify_criterion("Prix des moyens techniques", DEFAULT_CRITERION_LEXICON)
            is CriterionClass.PRICE
        )

    def test_priority_deadline_over_technical(self):
        assert (
            classify_criterion("Délai et qualité", DEFAULT_CRITERION_LEXICON)
            is CriterionClass.DEADLINE
        )

    @given(st.text(max_size=40))
    @settings(max_examples=200)
    def test_total(self, name):
        assert isinstance(
            classify_criterion(name, DEFAULT_CRITERION_LEXICON), CriterionClass
        )


def crit(name, weight=None, cls=None, lot_id=1):
    return Criterion(
        lot_id=lot_id,
        raw_name=name,
        criterion_class=cls or classify_criterion(name, DEFAULT_CRITERION_LEXICON),
        weight=Decimal(weight) if weight is not None else None,
    )


class TestExtractPriceWeight:
    def test_dedicated_creates_front_row(self):
        criteria = [crit("Qualité", 40)]
        out, flag = extract_price_weight("60", criteria)
        assert [c.criterion_class for c in out] == [
            CriterionClass.PRICE,
            CriterionClass.TECHNICAL,
        ]
        assert out[0].weight == Decimal("60")
        assert out[0].raw_name == ""
        assert flag is False

    def test_no_price_anywhere(self):
        criteria = [crit("Qualité", 100)]
        out, flag = extract_price_weight("", criteria)
        assert out == criteria
        assert flag is False

    def test_duplicate_price_rows_collapse(self):
        criteria = [crit("Prix", 50), crit("Coût", 10), crit("Qualité", 40)]
        out, flag = extract_price_weight("", criteria)
        assert [c.raw_name for c in out] == ["Prix", "Qualité"]
        assert flag is True

    def test_duplicate_equal_weights_no_flag(self):
        criteria = [crit("Prix", 50), crit("Coût", 50)]
        out, flag = extract_price_weight("", criteria)
        assert [c.raw_name for c in out] == ["Prix"]
        assert flag is False

    def test_dedicated_overrides_explicit(self):
        criteria = [crit("Prix", 50), crit("Qualité", 50)]
        out, flag = extract_price_weight("70", criteria)
        assert out[0].weight == Decimal("70")
        assert flag is True

    def test_dedicated_agreeing_no_flag(self):
        criteria = [crit("Prix", 70), crit("Qualité", 30)]
        out, flag = extract_price_weight("70", criteria)
        assert out[0].weight == Decimal("70")
        assert flag is False

    def test_weightless_price_fills_from_dedicated(self):
        criteria = [crit("Prix"), crit("Qualité", 40)]
        out, flag = extract_price_weight("60", criteria)
        assert out[0].weight == Decimal("60")
        assert flag is False

    def test_empty_criteria_with_dedicated(self):
        out, flag = extract_price_weight("100", [], lot_id=9)
        assert len(out) == 1
        assert out[0].lot_id == 9
        assert out[0].criterion_class is CriterionClass.PRICE
        assert flag is False


def raw_row(lot_id=1, names="", weights="", price=""):
    return CriteriaRaw(
        lot_id=lot_id, names_field=names, weights_field=weights, price_field=price
    )


class TestRepairCriteria:
    CONFIG = PipelineConfig()

    def test_split_path_normalized(self):
        result = repair_criteria([raw_row(names="Prix;Qualité", weights="30;20")], self.CONFIG)
        assert [c.weight for c in result.criteria] == [Decimal("60.00"), Decimal("40.00")]
        assert all(c.weight_is_normalized for c in result.criteria)
        assert not result.unnormalized_lots

    def test_price_composition(self):
        result = repair_criteria(
            [raw_row(names="Qualité", weights="40", price="60")], self.CONFIG
        )
        classes = [c.criterion_class for c in result.criteria]
        assert classes == [CriterionClass.PRICE, CriterionClass.TECHNICAL]
        assert [c.weight for c in result.criteria] == [Decimal("60.00"), Decimal("40.00")]

    def test_unmix_path(self):
        result = repair_criteria(
            [raw_row(names="Prix : 60 ; Qualité : 40", weights="")], self.CONFIG
        )
        assert [(c.raw_name, c.weight) for c in result.criteria] == [
            ("Prix", Decimal("60.00")),
            ("Qualité", Decimal("40.00")),
        ]

    def test_misaligned_flag(self):
        result = repair_criteria(
            [raw_row(lot_id=3, names="A;B;C", weights="60;40")], self.CONFIG
        )
        assert result.misaligned_lots == {3}
        assert all(c.weight is None for c in result.criteria)

    def test_partial_weights_not_normalized(self):
        result = repair_criteria(
            [raw_row(lot_id=4, names="Prix : 60 ; Qualité", weights="")], self.CONFIG
        )
        assert result.unnormalized_lots == {4}
        assert [c.weight for c in result.criteria] == [Decimal("60"), None]
        assert not any(c.weight_is_normalized for c in result.criteria)

    def test_zero_sum_not_normalized(self):
        result = repair_criteria(
            [raw_row(lot_id=5, names="Prix;Qualité", weights="0;0")], self.CONFIG
        )
        assert result.unnormalized_lots == {5}

    def test_conflict_flag(self):
        result = repair_criteria(
            [raw_row(lot_id=6, names="Prix;Qualité", weights="50;50", price="70")],
            self.CONFIG,
        )
        assert result.conflict_lots == {6}

    def test_empty_row_skipped(self):
        result = repair_criteria([raw_row()], self.CONFIG)
        assert result.criteria == []

    def test_weights_only(self):
        result = repair_criteria([raw_row(names="", weights="70;30")], self.CONFIG)
        assert [c.criterion_class for c in result.criteria] == [
            CriterionClass.OTHERS,
            CriterionClass.OTHERS,
        ]
        assert [c.weight for c in result.criteria] == [Decimal("70.00"), Decimal("30.00")]
