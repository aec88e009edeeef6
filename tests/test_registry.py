import datetime as dt
import logging

import pytest

from tedclean.config import (
    DEFAULT_REGISTRY_ENTITY_MAP,
    DEFAULT_REGISTRY_FACILITY_MAP,
    PipelineConfig,
)
from tedclean.models import (
    Identifier,
    IdentifierKind,
    InputError,
    RegistryEntity,
    RegistryFacility,
    validate_siret,
)
from tedclean.normalize import department_of, normalize_address
from tedclean.registry import (
    Registry,
    load_registry,
    temporally_valid,
)

from conftest import write_registry_files

CONFIG = PipelineConfig()
FULL_WIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


class TestValidateSiret:
    def test_full(self):
        ident = validate_siret("12345678900011")
        assert ident.kind is IdentifierKind.FULL_SIRET
        assert ident.value == "12345678900011"
        assert ident.siren == "123456789"

    def test_siren_only(self):
        ident = validate_siret("123456789")
        assert ident.kind is IdentifierKind.SIREN_ONLY
        assert ident.siren == "123456789"

    def test_spaces_stripped(self):
        assert validate_siret("123 456 789 00011").value == "12345678900011"

    @pytest.mark.parametrize(
        "raw",
        [None, "", "12345", "1234567890001X", "123456789000112",
         "1234567890001²", "١٢٣٤٥٦٧٨٩"],
    )
    def test_invalid(self, raw):
        assert validate_siret(raw) is None


def entity(siren="123456789", **kw):
    defaults = dict(siren=siren, legal_names=["ACME"], activity_code="4711Z")
    defaults.update(kw)
    return RegistryEntity(**defaults)


def facility(siret="12345678900011", **kw):
    defaults = dict(
        siret=siret,
        names=["ACME LYON"],
        street="1 RUE X",
        zipcode="69003",
        city="LYON",
        department="69",
    )
    defaults.update(kw)
    return RegistryFacility(**defaults)


class TestRegistry:
    def test_indexes(self):
        reg = Registry(CONFIG.match.activity_prefix_length)
        reg.add_entity(entity())
        reg.add_facility(facility())
        assert reg.by_department["69"] == {"12345678900011"}
        assert reg.by_activity_prefix["47"] == {"12345678900011"}

    def test_orphan_flag(self):
        reg = Registry(CONFIG.match.activity_prefix_length)
        fac = facility(siret="99999999900011")
        reg.add_facility(fac)
        assert reg.facilities["99999999900011"] is fac

    def test_activity_falls_back_to_parent(self):
        reg = Registry(CONFIG.match.activity_prefix_length)
        reg.add_entity(entity(activity_code="8411Z"))
        fac = facility(activity_code=None)
        reg.add_facility(fac)
        assert reg.effective_activity(fac) == "8411Z"
        assert reg.by_activity_prefix["84"] == {fac.siret}

    def test_names_fall_back_to_parent(self):
        reg = Registry(CONFIG.match.activity_prefix_length)
        reg.add_entity(entity(legal_names=["ACME GROUPE"]))
        fac = facility(names=[])
        reg.add_facility(fac)
        assert reg.candidate_names(fac) == ["ACME GROUPE"]


class TestTemporallyValid:
    def test_window(self):
        fac = facility(open_date=dt.date(2012, 1, 1), close_date=dt.date(2016, 1, 1))
        assert temporally_valid(fac, dt.date(2014, 6, 1))
        assert temporally_valid(fac, dt.date(2012, 1, 1))
        assert temporally_valid(fac, dt.date(2016, 1, 1))
        assert not temporally_valid(fac, dt.date(2011, 12, 31))
        assert not temporally_valid(fac, dt.date(2016, 1, 2))

    def test_absent_dates_lenient(self):
        assert temporally_valid(facility(), dt.date(1990, 1, 1))
        fac = facility(open_date=dt.date(2012, 1, 1))
        assert temporally_valid(fac, dt.date(2020, 1, 1))
        assert not temporally_valid(fac, dt.date(2011, 1, 1))


class TestLoadRegistry:
    def test_load(self, tmp_path, caplog):
        entity_path, facility_path = write_registry_files(
            tmp_path,
            entities=[
                dict(SIREN="123456789", LEGAL_NAME="Acmé S.A.",
                     FORMER_NAMES="Ancien Nom|Très Ancien", CREATED="2000-01-01",
                     ACTIVITY="4711Z"),
                dict(SIREN="badsiren", LEGAL_NAME="X"),
                dict(SIREN="222222222", LEGAL_NAME=""),
            ],
            facilities=[
                dict(SIRET="12345678900011", NAMES="Acmé Lyon",
                     STREET="1 rue de la Gare", POSTAL_CODE="69003", CITY="Lyon",
                     OPENED="2001-05-05"),
                dict(SIRET="12345678900022", NAMES="", STREET="", POSTAL_CODE="notzip",
                     CITY=""),
                dict(SIRET="33333333300011", NAMES="Orphan Shop"),
                dict(SIRET="short", NAMES="Bad"),
            ],
        )
        with caplog.at_level(logging.WARNING, logger="tedclean.registry"):
            reg = load_registry(
                entity_path,
                facility_path,
                DEFAULT_REGISTRY_ENTITY_MAP,
                DEFAULT_REGISTRY_FACILITY_MAP,
                CONFIG.delimiter,
                CONFIG.date_formats,
                CONFIG.match.activity_prefix_length,
            )
        assert set(reg.entities) == {"123456789"}
        assert reg.entities["123456789"].legal_names == [
            "ACME S A", "ANCIEN NOM", "TRES ANCIEN",
        ]
        assert set(reg.facilities) == {
            "12345678900011", "12345678900022", "33333333300011",
        }
        main = reg.facilities["12345678900011"]
        assert main.names == ["ACME LYON"]
        assert main.street == "1 RUE DE LA GARE"
        assert main.zipcode == "69003"
        assert main.department == "69"
        assert main.open_date == dt.date(2001, 5, 5)

        bare = reg.facilities["12345678900022"]
        assert bare.zipcode is None
        assert bare.department is None
        assert reg.candidate_names(bare) == ["ACME S A", "ANCIEN NOM", "TRES ANCIEN"]

        orphans = [r.getMessage() for r in caplog.records if "no parent entity" in r.getMessage()]
        assert orphans == ["facility 33333333300011 has no parent entity"]

    def _load(self, tmp_path, entities, facilities, **kw):
        return load_registry(
            *write_registry_files(tmp_path, entities, facilities),
            DEFAULT_REGISTRY_ENTITY_MAP,
            DEFAULT_REGISTRY_FACILITY_MAP,
            CONFIG.delimiter,
            CONFIG.date_formats,
            CONFIG.match.activity_prefix_length,
            **kw,
        )

    @pytest.mark.parametrize(
        "street, city, tokens, expected",
        [
            ("12 rue X BP 45", "Lyon 3e", CONFIG.postal_tokens, ("12 RUE X", "LYON E")),
            ("1 rue de la Gare", "VILLE006", CONFIG.postal_tokens, ("1 RUE DE LA GARE", "VILLE")),
            ("3 rue X Lieu 4", "Lyon Cédex 03", ["lieu"], ("3 RUE X", "LYON CEDEX")),
            ("BP 7", "", CONFIG.postal_tokens, (None, None)),
        ],
    )
    def test_address_folds_like_an_occurrence(self, tmp_path, street, city, tokens, expected):
        facility = dict(SIRET="12345678900011", STREET=street, POSTAL_CODE="69003", CITY=city)
        reg = self._load(tmp_path, [], [facility], postal_tokens=tokens)
        loaded = reg.facilities["12345678900011"]
        folded_street, _, folded_city = normalize_address(street, None, city, tokens)
        assert (loaded.street, loaded.city) == (folded_street, folded_city) == expected

    def test_full_width_siren_skipped(self, tmp_path):
        siren = "123456789".translate(FULL_WIDTH)
        reg = self._load(tmp_path, [dict(SIREN=siren, LEGAL_NAME="Acme")], [])
        assert reg.entities == {}

    def test_full_width_siret_skipped(self, tmp_path):
        siret = "12345678900011".translate(FULL_WIDTH)
        reg = self._load(tmp_path, [], [dict(SIRET=siret, NAMES="Acme")])
        assert reg.facilities == {}

    def test_full_width_zipcode_reads_as_ascii(self, tmp_path):
        zipcode = "69003".translate(FULL_WIDTH)
        reg = self._load(tmp_path, [], [dict(SIRET="12345678900011", POSTAL_CODE=zipcode)])
        facility = reg.facilities["12345678900011"]
        assert facility.zipcode == "69003"
        assert facility.department == "69"
        assert reg.by_department == {"69": {"12345678900011"}}

    @pytest.mark.parametrize("cell,zipcode", [
        ("F-69003 CEDEX", "69003"), ("69003 Cedex 3", "69003"), ("CEDEX 69003", "69003"),
        ("BP 69003", None), ("CS 12345", None), ("TSA 30001 CEDEX", None),
        ("2920", None), ("690031", None), ("12345678900011", None),
    ])
    def test_zipcode_reads_as_an_occurrence_zipcode(self, tmp_path, cell, zipcode):
        reg = self._load(tmp_path, [], [dict(SIRET="12345678900011", POSTAL_CODE=cell)])
        facility = reg.facilities["12345678900011"]
        assert facility.zipcode == normalize_address(None, cell, None, CONFIG.postal_tokens)[1]
        assert facility.zipcode == zipcode
        assert facility.department == department_of(zipcode)
        assert reg.by_department == ({"69": {"12345678900011"}} if zipcode else {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_registry(
                str(tmp_path / "nope.csv"),
                str(tmp_path / "nope2.csv"),
                DEFAULT_REGISTRY_ENTITY_MAP,
                DEFAULT_REGISTRY_FACILITY_MAP,
                CONFIG.delimiter,
                CONFIG.date_formats,
                CONFIG.match.activity_prefix_length,
            )


class TestIdentifier:
    def test_full_width_full_siret_rejected(self):
        with pytest.raises(ValueError, match="14 digits"):
            Identifier(IdentifierKind.FULL_SIRET, "12345678900011".translate(FULL_WIDTH))

    def test_full_width_siren_rejected(self):
        with pytest.raises(ValueError, match="9 digits"):
            Identifier(IdentifierKind.SIREN_ONLY, "123456789".translate(FULL_WIDTH))
