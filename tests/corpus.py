"""Deterministic synthetic corpus builder shared by the pipeline tests.

Everything is derived from a seeded RNG plus the row index, so the same
(seed, rows) pair always produces byte-identical input files.
"""
from __future__ import annotations

import csv
import json
import random
from pathlib import Path

STREET_WORDS = ["GARE", "EGLISE", "REPUBLIQUE", "MOULIN", "LILAS", "FORGES"]
DEPARTMENTS = ["13", "29", "33", "59", "69", "75"]

LOT_COLUMNS = [
    "ID_NOTICE_CAN", "ID_LOT", "DT_DISPATCH", "DT_AWARD", "TYPE_OF_CONTRACT",
    "CPV", "NUMBER_OFFERS", "AWARD_VALUE_EURO", "CURRENCY", "CANCELLED",
    "ID_NOTICE_CN", "CAE_NAME", "CAE_ADDRESS", "CAE_POSTAL_CODE", "CAE_TOWN",
    "CAE_COUNTRY", "CAE_NATIONALID", "WIN_NAME", "WIN_ADDRESS",
    "WIN_POSTAL_CODE", "WIN_TOWN", "WIN_COUNTRY", "WIN_NATIONALID",
    "CRIT_CRITERIA", "CRIT_WEIGHTS", "CRIT_PRICE_WEIGHT",
]

CRITERIA_VARIANTS = [
    ("Prix;Valeur technique", "60;40", ""),
    ("Prix --- Qualité --- Délai", "40 --- 40 --- 20", ""),
    ("Prix : 60 ; Qualité : 40", "", ""),
    ("Qualité", "40", "60"),
    ("Prix;Qualité;Délai", "60;40", ""),  # misaligned
    ("", "", ""),
    ("Critère environnemental;Prix", "30;70", ""),
]


def _agents(count: int, departments: list[str] | None = None):
    """Synthetic registry population: even indexes buy, odd ones supply."""
    depts = departments or DEPARTMENTS
    agents = []
    for i in range(count):
        siren = f"{100000000 + i:09d}"
        dept = depts[i % len(depts)]
        zipcode = f"{dept}{i % 90:02d}0"
        city = f"VILLE{i:03d}"
        if i % 2 == 0:
            display = f"Mairie de Ville{i:03d}"
            activity = "8411Z"
        else:
            display = f"Entreprise Durand{i:03d}"
            activity = "4399C"
        agents.append(
            {
                "index": i,
                "siren": siren,
                "siret": siren + "00011",
                "display": display,
                "street": f"{i + 1} rue de la {STREET_WORDS[i % len(STREET_WORDS)].title()}",
                "zipcode": zipcode,
                "city": city,
                "activity": activity,
            }
        )
    return agents


def _registry_files(directory: Path, agents) -> tuple[str, str]:
    entity_path = directory / "entities.csv"
    facility_path = directory / "facilities.csv"
    with open(entity_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["SIREN", "LEGAL_NAME", "FORMER_NAMES", "CREATED", "CLOSED", "ACTIVITY"])
        for a in agents:
            writer.writerow([a["siren"], a["display"], "", "2000-01-01", "", a["activity"]])
    with open(facility_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["SIRET", "NAMES", "STREET", "POSTAL_CODE", "CITY", "ACTIVITY", "OPENED", "CLOSED"])
        for a in agents:
            writer.writerow(
                [a["siret"], a["display"], a["street"], a["zipcode"], a["city"],
                 a["activity"], "2001-01-01", ""]
            )
    return str(entity_path), str(facility_path)


def _postal_file(directory: Path, agents) -> str:
    path = directory / "postal.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["city", "zipcode"])
        for a in agents:
            writer.writerow([a["city"], a["zipcode"]])
    return str(path)


def _noisy(display: str, r: int) -> str:
    """Cosmetic noise that must fold away."""
    noisy = display.replace("e", "é") if r % 2 else display.upper()
    return f"{noisy} (siège)" if r % 3 == 0 else noisy


def generate_corpus(
    directory: Path,
    rows: int,
    seed: int = 0,
    registry_agents: int = 40,
    departments: list[str] | None = None,
) -> dict:
    """Write lot, registry, postal, and contract-id files; return a config dict."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    agents = _agents(registry_agents, departments)
    buyers = [a for a in agents if a["index"] % 2 == 0]
    suppliers = [a for a in agents if a["index"] % 2 == 1]
    entity_path, facility_path = _registry_files(directory, agents)
    postal_path = _postal_file(directory, agents)

    contract_ids = [f"C{r:05d}" for r in range(rows) if r % 10 < 6]
    contract_path = directory / "contract_ids.txt"
    contract_path.write_text("\n".join(contract_ids) + "\n", encoding="utf-8")

    lot_path = directory / "lots.csv"
    with open(lot_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOT_COLUMNS)
        for r in range(rows):
            buyer = buyers[rng.randrange(len(buyers))]
            supplier = suppliers[rng.randrange(len(suppliers))]
            row = {c: "" for c in LOT_COLUMNS}
            row["ID_NOTICE_CAN"] = f"N{r:06d}"
            row["ID_LOT"] = str(1 + r % 3)
            row["DT_DISPATCH"] = f"{2012 + r % 8}-{1 + r % 12:02d}-{1 + r % 28:02d}"
            if r % 4 == 0:
                row["DT_AWARD"] = row["DT_DISPATCH"]
            row["TYPE_OF_CONTRACT"] = ["WORKS", "SERVICES", "SUPPLIES"][r % 3]
            row["CPV"] = "45210000" if r % 3 == 0 else "79000000"
            row["NUMBER_OFFERS"] = str(1 + r % 9)
            row["AWARD_VALUE_EURO"] = (
                f"{rng.randrange(1, 2000)} {rng.randrange(100, 999)},{rng.randrange(10, 99)}"
                if r % 2
                else str(rng.randrange(1000, 500000))
            )
            row["CURRENCY"] = "EUR"
            if r % 10 < 7:
                row["ID_NOTICE_CN"] = f"C{r:05d}"

            if r % 7 == 0 and len(buyers) > 1:
                other = buyers[(buyers.index(buyer) + 1) % len(buyers)]
                row["CAE_NAME"] = f"{buyer['display']} --- {other['display']}"
                row["CAE_ADDRESS"] = f"{buyer['street']} --- {other['street']}"
                row["CAE_POSTAL_CODE"] = f"{buyer['zipcode']} --- {other['zipcode']}"
                row["CAE_TOWN"] = f"{buyer['city']} --- {other['city']}"
            else:
                row["CAE_NAME"] = _noisy(buyer["display"], r)
                row["CAE_ADDRESS"] = buyer["street"]
                row["CAE_POSTAL_CODE"] = "" if r % 13 == 0 else buyer["zipcode"]
                row["CAE_TOWN"] = buyer["city"]
            row["CAE_COUNTRY"] = "FR"

            if r % 11 == 0:
                row["WIN_NAME"] = "INFRUCTUEUX"
            else:
                row["WIN_NAME"] = _noisy(supplier["display"], r + 1)
                row["WIN_ADDRESS"] = supplier["street"]
                row["WIN_POSTAL_CODE"] = supplier["zipcode"]
                row["WIN_TOWN"] = supplier["city"]
                row["WIN_COUNTRY"] = "FR"
                if r % 5 == 0:
                    row["WIN_NATIONALID"] = supplier["siret"]

            names, weights, price = CRITERIA_VARIANTS[r % len(CRITERIA_VARIANTS)]
            row["CRIT_CRITERIA"] = names
            row["CRIT_WEIGHTS"] = weights
            row["CRIT_PRICE_WEIGHT"] = price
            writer.writerow([row[c] for c in LOT_COLUMNS])

    # a malformed line, an out-of-period row, and a duplicate identity
    with open(lot_path, "a", encoding="utf-8", newline="") as fh:
        fh.write("broken,row,with,too,few,cells\n")
        writer = csv.writer(fh, lineterminator="\n")
        bad = {c: "" for c in LOT_COLUMNS}
        bad.update(ID_NOTICE_CAN="NOLD01", ID_LOT="1", DT_DISPATCH="2002-01-01",
                   CAE_NAME="Vieille Mairie", WIN_NAME="Vieux Gagnant")
        writer.writerow([bad[c] for c in LOT_COLUMNS])
        dup = {c: "" for c in LOT_COLUMNS}
        dup.update(ID_NOTICE_CAN="N000000", ID_LOT="1", DT_DISPATCH="2015-01-01",
                   CAE_NAME="Mairie Dupliquée", WIN_NAME="Gagnant Dupliqué")
        writer.writerow([dup[c] for c in LOT_COLUMNS])

    return {
        "inputs": {
            "lots": [str(lot_path)],
            "registry_entities": entity_path,
            "registry_facilities": facility_path,
            "postal": postal_path,
            "contract_notice_ids": str(contract_path),
        },
        "cpv_activity_map": {"45": ["43", "84"], "79": ["84", "43"]},
    }


def write_corpus_config(directory: Path, out_dir: Path, rows: int, seed: int = 0,
                        registry_agents: int = 40, **overrides) -> str:
    """Generate a corpus and write a config file pointing at it."""
    data = generate_corpus(directory, rows, seed=seed, registry_agents=registry_agents)
    data["output_dir"] = str(out_dir)
    data.update(overrides)
    path = directory / "config.json"
    path.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return str(path)


def corpus_config(directory: Path, out_dir: Path, rows: int, seed: int = 0,
                  registry_agents: int = 40, departments: list[str] | None = None,
                  **overrides):
    """Generate a corpus and return a PipelineConfig for library-level runs."""
    from tedclean.config import config_from_dict

    data = generate_corpus(
        directory, rows, seed=seed, registry_agents=registry_agents,
        departments=departments,
    )
    data["output_dir"] = str(out_dir)
    data.update(overrides)
    return config_from_dict(data)
