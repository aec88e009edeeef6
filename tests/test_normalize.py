import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tedclean.config import PipelineConfig
from tedclean.models import IdentifierKind
from tedclean.normalize import (
    _FOLD_TABLE,
    department_of,
    fill_zipcode,
    load_postal_table,
    merge_by_declared_siret,
    normalize_address,
    normalize_name,
    normalize_occurrence,
)

from conftest import make_occurrence, respelled

FOLD_ALPHABET = set(string.ascii_uppercase + string.digits + " ")
TOKENS = PipelineConfig().postal_tokens


class TestNormalizeName:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Société Générale", "SOCIETE GENERALE"),
            ("  mairie   de\tlyon ", "MAIRIE DE LYON"),
            ("Durand & Fils", "DURAND ET FILS"),
            ("S.A.R.L. Petit", "S A R L PETIT"),
            ("Cœur d'Alsace", "COEUR D ALSACE"),
            ("Straße", "STRASSE"),
            ("ÉLÈVE-ÊTRE (ancien nom)", "ELEVE ETRE"),
            ("a (b (c) d) e", "A E"),
            ("(tout entre parenthèses)", ""),
            ("", ""),
            ("éçàù", "ECAU"),
            ("Nº 12", "NO 12"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_name(raw) == expected

    def test_ampersand_becomes_word(self):
        assert normalize_name("A&B") == "A ET B"

    def test_unbalanced_parens_kept_as_separators(self):
        # No matching pair means nothing is removed, punctuation folds to space.
        assert normalize_name("ab) cd (ef") == "AB CD EF"

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_idempotent(self, raw):
        once = normalize_name(raw)
        assert normalize_name(once) == once

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_output_alphabet(self, raw):
        folded = normalize_name(raw)
        assert set(folded) <= FOLD_ALPHABET
        assert folded == folded.strip()
        assert "  " not in folded

    @given(
        st.text(
            alphabet=st.sampled_from(
                [chr(c) for c in _FOLD_TABLE]
                + list("éèÊçàùÖñ\u0301()&.-' aZ9")
            ),
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_memo_equals_the_fold(self, raw):
        # the first call may fill the memo, the second reads it
        for _ in range(2):
            assert normalize_name(raw) == normalize_name.__wrapped__(raw)


class TestNormalizeAddress:
    def test_postal_tokens_stripped(self):
        street, zipcode, city = normalize_address(
            "12 rue de la Paix BP 45", "69003", "Lyon CEDEX 03", TOKENS
        )
        assert street == "12 RUE DE LA PAIX"
        assert zipcode == "69003"
        assert city == "LYON"

    def test_zipcode_extracted_from_noise(self):
        assert normalize_address(None, "F-69003", None, TOKENS)[1] == "69003"
        assert normalize_address(None, "69 003", None, TOKENS)[1] is None
        assert normalize_address(None, "xyz", None, TOKENS)[1] is None
        assert normalize_address(None, "69003CEDEX", None, TOKENS)[1] == "69003"
        assert normalize_address(None, "75001-75002", None, TOKENS)[1] == "75001"
        assert normalize_address(None, "690031 69003", None, TOKENS)[1] == "69003"
        # a zipcode is a five-digit run with no digit on either side
        for cell in ("2920", "690031", "12345678900011"):
            assert normalize_address(None, cell, None, TOKENS)[1] is None

    def test_zipcode_after_a_postal_token(self):
        # a token's digits are dropped, unless CEDEX took the only five-digit run
        for cell in ("CEDEX 69003", "Cedex 69003 "):
            assert normalize_address(None, cell, None, TOKENS)[1] == "69003"
        for cell in ("69003 CEDEX 03", "BP 45 69003", "CS 12345 69003"):
            assert normalize_address(None, cell, None, TOKENS)[1] == "69003"
        assert normalize_address(None, "CEDEX 03", None, TOKENS)[1] is None

    @pytest.mark.parametrize("tokens", [TOKENS, ["Bp", "cs", "Cédex", "Tsa"]])
    def test_box_number_is_never_a_zipcode(self, tokens):
        for cell in ("BP 69003", "BP 12345", "CS 12345", "TSA 30001 CEDEX", "Tsa 30001 Cédex"):
            assert normalize_address(None, cell, None, tokens)[1] is None
        # the number of a token left out of the list is read like any other
        assert normalize_address(None, "CS 12345", None, ["CEDEX"])[1] == "12345"

    def test_city_loses_digits(self):
        assert normalize_address(None, None, "Paris 15", TOKENS)[2] == "PARIS"

    def test_empty_fields_are_none(self):
        assert normalize_address("", "", "", TOKENS) == (None, None, None)
        assert normalize_address("BP 12", None, "CEDEX", TOKENS) == (None, None, None)

    def test_token_requires_word_boundary(self):
        # CS inside a word must not be stripped.
        street, _, _ = normalize_address("RUE DES CSARDAS", None, None, TOKENS)
        assert street == "RUE DES CSARDAS"

    def test_custom_tokens(self):
        street, _, _ = normalize_address("3 rue X LIEU 4", None, None, ["LIEU"])
        assert street == "3 RUE X"

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_respelled_tokens_strip_like_the_defaults(self, data):
        tokens = [data.draw(respelled(t)) for t in TOKENS]
        for address in [("12 rue de la Paix BP 45", "69003 Cedex", "Lyon CEDEX 03"),
                        ("Tsa 1 Rue X cs 9", "F-69003", "Lyon 3e"), ("BP 12", None, "cedex")]:
            assert normalize_address(*address, tokens) == normalize_address(*address, TOKENS)

    @pytest.mark.parametrize("tokens", [[], [""], ["", " - ", "(BP)"]])
    def test_no_token_strips_nothing(self, tokens):
        street, _, city = normalize_address("Rue de la Paix 12 bis", None, "Lyon BP", tokens)
        assert (street, city) == ("RUE DE LA PAIX 12 BIS", "LYON BP")


class TestPostalTable:
    def test_fill_unique_only(self):
        table = {"LYON": {"69001", "69002"}, "BREST": {"29200"}}
        assert fill_zipcode("LYON", table) is None
        assert fill_zipcode("BREST", table) == "29200"
        assert fill_zipcode("NULLEPART", table) is None

    def test_load(self, tmp_path):
        path = tmp_path / "postal.csv"
        path.write_text("city,zip\nBrest,29200\nLyon,69001\nbad,\n,\n", encoding="utf-8")
        table = load_postal_table(str(path), PipelineConfig().delimiter)
        assert table == {"BREST": {"29200"}, "LYON": {"69001"}}
        assert fill_zipcode("BREST", table) == "29200"

    def test_load_keeps_ambiguous_cities(self, tmp_path):
        path = tmp_path / "postal.csv"
        path.write_text("Lyon,69001\nLYON,69002\n", encoding="utf-8")
        table = load_postal_table(str(path), PipelineConfig().delimiter)
        assert len(table) == 1
        assert fill_zipcode("LYON", table) is None

    def test_load_reads_zipcodes_as_a_lot_row_does(self, tmp_path):
        path = tmp_path / "postal.csv"
        path.write_text("Lyon,F-69003 CEDEX\nBrest,2920\nNantes,44000000000011\n",
                        encoding="utf-8")
        table = load_postal_table(str(path), PipelineConfig().delimiter)
        assert table == {"LYON": {"69003"}}

    def test_load_reads_full_width_zipcode_as_ascii(self, tmp_path):
        path = tmp_path / "postal.csv"
        path.write_text("city,zip\nLyon,\uff16\uff19\uff10\uff10\uff13\n", encoding="utf-8")
        table = load_postal_table(str(path), PipelineConfig().delimiter)
        assert table == {"LYON": {"69003"}}
        assert department_of(fill_zipcode("LYON", table)) == "69"


class TestDepartmentOf:
    @pytest.mark.parametrize(
        "zipcode,expected",
        [
            ("69003", "69"),
            ("75001", "75"),
            ("97400", "974"),
            ("98800", "988"),
            ("20000", "20"),
            ("1234", None),
            (None, None),
            ("ABCDE", None),
        ],
    )
    def test_cases(self, zipcode, expected):
        assert department_of(zipcode) == expected

    def test_full_width_digits(self):
        assert department_of("\uff16\uff19\uff10\uff10\uff11") is None


class TestNormalizeOccurrence:
    def test_full_pass(self):
        occ = make_occurrence(
            raw_name="Mairie de Brest (29)",
            street="2 rue de Siam CEDEX 1",
            zipcode=None,
            city="Brest",
            country="france",
        )
        normalize_occurrence(occ, {"BREST": {"29200"}}, ["BP", "CS", "CEDEX", "TSA"])
        assert occ.normalized_name == "MAIRIE DE BREST"
        assert occ.street == "2 RUE DE SIAM"
        assert occ.zipcode == "29200"
        assert occ.city == "BREST"
        assert occ.country == "FRANCE"
        assert occ.department == "29"

    def test_present_zipcode_not_overwritten(self):
        occ = make_occurrence(zipcode="75001", city="Brest")
        normalize_occurrence(occ, {"BREST": {"29200"}}, [])
        assert occ.zipcode == "75001"
        assert occ.department == "75"

    def test_blank_name_stored_as_none(self):
        occ = make_occurrence(raw_name="(...)")
        normalize_occurrence(occ, None, [])
        assert occ.normalized_name is None


class TestMergeByDeclaredSiret:
    def test_groups_and_sources(self):
        occs = [
            make_occurrence(1, declared_siret="12345678900011"),
            make_occurrence(2, declared_siret="12345678900011"),
            make_occurrence(3, declared_siret="123456789"),
            make_occurrence(4, declared_siret="nonsense"),
            make_occurrence(5),
        ]
        merge_by_declared_siret(occs)
        assert occs[0].identifier.kind is IdentifierKind.FULL_SIRET
        assert occs[2].identifier.kind is IdentifierKind.SIREN_ONLY
        assert occs[2].identifier_source == "declared"
        assert occs[3].identifier is None
        assert occs[4].identifier is None

    def test_existing_identifier_untouched(self):
        occ = make_occurrence(1, declared_siret="12345678900011")
        merge_by_declared_siret([occ])
        before = occ.identifier
        merge_by_declared_siret([occ])
        assert occ.identifier is before
