"""Check that this checkout's pipeline writes the same bytes as git ref REF.

    python tools/same_bytes.py REF

REF's src/ is written to a temporary directory (`git archive REF src | tar
-x`). The benchmark's inputs (perfbench/run.py's WORKLOADS and make_inputs)
are made once per workload and seed, so both sides read the same input
paths: `checkpoints/ingest/rejections.csv` names the input file of each
refused line. Then
`tedclean pipeline --mask` runs from each source tree on the match, bulk and
mask workloads at seeds 0 and 7, on a remapped copy of the mask inputs at
seed 0 (every lot and registry column renamed, the lot columns in reverse
order, `;` as the delimiter, the config's header maps naming the new
columns), and on a recased copy of them (the config's unsuccessful markers,
postal tokens and contract-type keys spelled in mixed case with accents, as
`Annulé` or `Cédex`, which fold to the defaults), and on a noisy-zipcode
copy of them (every registry facility and postal zipcode cell written
`F-<zip> CEDEX`, which reads as `<zip>`), and on a registry-variety copy
of them (the bench's registries give every facility one name, a street, a
postal code, a city and no close date; here some facilities list two
names, or none so that their entity's legal and former names are read,
some lack a street, a city or a postal code, and some close within the
lots' period), and on a quoted-CRLF copy of them (the lot file split in
two, in order, each part with the header, every cell quoted, CRLF line
ends and a byte-order mark, the config listing both parts: every lot line
takes csv's path, where the other cases' quote-free lines are split on the
delimiter), and on an awkward-cells copy of them (lot numbers, criterion
names and buyer and winner names holding `'`, `"`, `,` or a quoted CR,
CRLF line ends, and a few rows cut in two by a quoted LF: emit writes
quoted CSV cells and doubles quotes in foppa.sql, which no other case
makes it do), and on a thresholds copy of them (merge_threshold 0.5,
address weights street 1, zipcode 0, city 0, and no buyer street: a
buyer's payload then has no address evidence and scores 0.5 against
itself, so copies of one that joins no other payload merge, a branch of
merge that no default-config case takes), and on a distinct-cities copy
of them (the corpus names every city `VILLE<n>`, which folds to `VILLE`,
so no other case compares two different cities: here each `VILLE<n>` of
the lot, registry facility and postal files is one town name, of one word
or two, and some lot cells spell it one letter wrong), and on a
number-styles copy of them (the corpus writes every award value as
`1234567` or `1234 567,89`; here each row's is in one of four styles in
turn, `1.234.567,89 €`, `EUR 1'234'567.89`, `1 234 567,89 HT` grouped by
no-break spaces, and `1,234,567.89`, which any change to how a number cell
reads shows as a difference), and on a dense case at seed 0
(DENSE: 1,000 rows and 1,000 registry agents in departments 10-15, where
merge joins distinct agents into large clusters of conflicting
identifiers, so the masked rerun resolves those clusters). Two plain
cases run `tedclean pipeline` without `--mask` on the match and bulk
workloads at seed 0, as the benchmark runs them. A stage-by-stage case
runs the mask inputs at seed 0 as one CLI call per stage, `ingest` ...
`emit` and then `evaluate --mask`, so every stage reads its input
checkpoints from disk and the decoder of each checkpoint a stage reads
runs (under `pipeline`, no stage parses a checkpoint: each takes its
records from the store). The two output trees of each case are compared
file by file. Exits 0 when every file matches, and 1, listing each path
that differs as `only in ref`, `only here` or `bytes differ`, when any
does not; a run that fails on either side counts as
a difference. Exits 2 on a usage error, a ref git cannot archive,
or inputs that cannot be made.
"""
from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7)
# the dense shape, not a benchmark workload: merge chains distinct agents;
# make_inputs reads its "jobs" and writes it to the config, a retired key
# that loads with a warning
DENSE = {"rows": 1000, "registry_agents": 1000,
         "departments": [str(d) for d in range(10, 16)], "jobs": 1}
# one CLI call per stage, each reading the checkpoints the one before wrote
STAGE_BY_STAGE = [[stage] for stage in ("ingest", "criteria", "normalize", "identify",
                                        "merge", "emit")] + [["evaluate", "--mask"]]
# the input files of a remapped case whose header names change, by config key
RENAMED = {"lots": "column_map", "registry_entities": "registry_entity_map",
           "registry_facilities": "registry_facility_map"}
# the configured words of a recased case, as a person might spell the defaults
RECASED = {
    "INFRUCTUEUX": "Infructueux", "INFRUCTEUX": "infructeux", "SANS SUITE": "Sans suite",
    "ANNULE": "Annulé", "LOT INFRUCTUEUX": "Lot infructueux",
    "BP": "Bp", "CS": "cs", "CEDEX": "Cédex", "TSA": "Tsa",
    "SUPPLIES": "Supplies", "FOURNITURES": "Fournitures", "GOODS": "goods",
    "SERVICES": "Services", "WORKS": "Works", "TRAVAUX": "Travaux",
}


def rewrite_csv(path: Path, edit) -> None:
    """Rewrite a comma-separated file as `;`-separated, each row through edit(lineno, row)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [edit(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=";", lineterminator="\n").writerows(rows)


def remap_inputs(config: Path) -> None:
    """Rewrite a case's inputs and config in place: every lot and registry
    column renamed, the lot columns reversed, `;` as the delimiter, and the
    three header maps naming the new columns."""
    from tedclean.config import PipelineConfig

    data = json.loads(config.read_text(encoding="utf-8"))
    inputs, defaults = data["inputs"], PipelineConfig()

    def rename(column: str) -> str:
        return f"col {column.lower()}"

    for key, map_name in RENAMED.items():
        order = -1 if key == "lots" else 1
        path = Path(inputs[key][0] if key == "lots" else inputs[key])
        rewrite_csv(path, lambda n, row: [rename(c) if n == 1 else c for c in row][::order])
        data[map_name] = {f: rename(c) for f, c in getattr(defaults, map_name).items()}
    rewrite_csv(Path(inputs["postal"]), lambda n, row: row)
    data["delimiter"] = ";"
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")


def recase_config(config: Path) -> None:
    """Rewrite a case's config in place: its unsuccessful markers, postal
    tokens and contract-type keys spelled as RECASED spells the defaults."""
    from tedclean.config import PipelineConfig

    data, defaults = json.loads(config.read_text(encoding="utf-8")), PipelineConfig()
    for key in ("unsuccessful_markers", "postal_tokens"):
        data[key] = [RECASED[word] for word in getattr(defaults, key)]
    data["contract_type_values"] = {
        RECASED[word]: kind.value for word, kind in defaults.contract_type_values.items()
    }
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")


def edit_csv(path: Path, edit) -> None:
    """Rewrite a comma-separated file in place, its data rows through
    edit(column index by name, rows)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit({column: at for at, column in enumerate(rows[0])}, rows[1:])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def noise_zipcodes(config: Path) -> None:
    """Rewrite a case's registry facility and postal files in place, every
    zipcode cell written `F-<zip> CEDEX`."""
    inputs = json.loads(config.read_text(encoding="utf-8"))["inputs"]
    for key, column in (("registry_facilities", "POSTAL_CODE"), ("postal", "zipcode")):
        def noise(at, rows):
            for row in rows:
                row[at[column]] = f"F-{row[at[column]]} CEDEX"

        edit_csv(Path(inputs[key]), noise)


def vary_registry(config: Path) -> None:
    """Rewrite a case's registry files in place, the nth facility row
    edited for each n that divides it: every 5th lists a second name, every
    8th none (its entity gains a former name), every 4th has no street,
    every 6th no city, every 9th no postal code, and every 7th closes
    within the lots' period."""
    inputs = json.loads(config.read_text(encoding="utf-8"))["inputs"]
    nameless: set[str] = set()

    def facilities(at, rows):
        for n, row in enumerate(rows, start=1):
            if n % 5 == 0:
                row[at["NAMES"]] += f"|{row[at['NAMES']]} Annexe"
            if n % 8 == 0:
                row[at["NAMES"]] = ""
                nameless.add(row[at["SIRET"]][:9])
            for column, every in (("STREET", 4), ("CITY", 6), ("POSTAL_CODE", 9)):
                if n % every == 0:
                    row[at[column]] = ""
            if n % 7 == 0:
                row[at["CLOSED"]] = f"{2012 + n % 8}-06-30"

    def entities(at, rows):
        for row in rows:
            if row[at["SIREN"]] in nameless:
                row[at["FORMER_NAMES"]] = f"Ancienne {row[at['LEGAL_NAME']]}"

    edit_csv(Path(inputs["registry_facilities"]), facilities)
    edit_csv(Path(inputs["registry_entities"]), entities)


def quote_split_lots(config: Path) -> None:
    """Rewrite a case's lot file in place as two files, in order, each with
    the header, every cell quoted, CRLF line ends and a byte-order mark; the
    config lists both."""
    data = json.loads(config.read_text(encoding="utf-8"))
    path = Path(data["inputs"]["lots"][0])
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    path.unlink()
    half = len(rows) // 2
    data["inputs"]["lots"] = []
    for n, part in enumerate((rows[:half], rows[half:]), start=1):
        target = path.with_name(f"{path.stem}-{n}.csv")
        with open(target, "w", encoding="utf-8-sig", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows([header, *part])
        data["inputs"]["lots"].append(str(target))
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")


def _rewrite_crlf(path: Path, edit) -> None:
    """Rewrite a comma-separated file in place with CRLF line ends, its data
    rows of the header's width through edit(row number, column index by
    name, row): "\\r\\n" ends a line, so csv quotes a cell holding a CR or
    an LF."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    at = {column: i for i, column in enumerate(header)}
    for n, row in enumerate(rows):
        if len(row) == len(header):  # the corpus's malformed line stays as it is
            edit(n, at, row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows([header, *rows])


def awkward_cells(config: Path) -> None:
    """Rewrite a case's lot file in place: lot numbers, criterion names and
    buyer and winner names hold `'`, `"`, `,` or a quoted CR, and every 97th
    row's criterion names a quoted LF (a line ends at an LF, so both halves
    of that row are skipped lines). Lots.csv and Criteria.csv then hold
    quoted cells, and foppa.sql doubled quotes inside text."""
    path = Path(json.loads(config.read_text(encoding="utf-8"))["inputs"]["lots"][0])
    # on every row, the duplicate identity's too, so identities stay as they were
    lot_numbers = {"1": "1'bis", "2": '2 "B"', "3": "3,\r4"}
    criteria = [("Prix", "Prix d'achat"), ("Qualité", 'Qualité "technique"'),
                ("Délai", "Délai, en jours"), ("Valeur technique", "Valeur\rtechnique")]
    names = ["{} de l'Est", '"{}"', "{}, SA", "{}\rAnnexe", "{}"]

    def lots(n, at, row):
        row[at["ID_LOT"]] = lot_numbers.get(row[at["ID_LOT"]], row[at["ID_LOT"]])
        old, new = criteria[n % len(criteria)]
        row[at["CRIT_CRITERIA"]] = row[at["CRIT_CRITERIA"]].replace(old, new)
        if n % 97 == 50:
            row[at["CRIT_CRITERIA"]] += "\nSuite"
        for column, shift in (("CAE_NAME", 0), ("WIN_NAME", 2)):
            if row[at[column]]:
                row[at[column]] = names[(n + shift) % len(names)].format(row[at[column]])

    _rewrite_crlf(path, lots)


def loosen_thresholds(config: Path) -> None:
    """Rewrite a case's config and lot file in place: merge_threshold 0.5,
    every address weight on the street, and every buyer street blank."""
    data = json.loads(config.read_text(encoding="utf-8"))
    data["merge_threshold"] = 0.5
    data.setdefault("match", {})["address_weights"] = {"street": 1, "zipcode": 0, "city": 0}
    config.write_text(json.dumps(data, indent=2), encoding="utf-8")

    def no_buyer_streets(at, rows):
        for row in rows:
            if len(row) > at["CAE_ADDRESS"]:  # the corpus's malformed line is short
                row[at["CAE_ADDRESS"]] = ""

    edit_csv(Path(data["inputs"]["lots"][0]), no_buyer_streets)


# the distinct-cities case's towns: VILLE<n> becomes TOWNS[n % len(TOWNS)],
# with a second word once n reaches len(TOWNS)
TOWNS = ["AMBERIEU", "BELLEY", "CHAZAY", "DIVONNE", "EVIAN", "FERNEY", "GEX", "HAUTEVILLE",
         "JASSANS", "LAGNIEU", "MEXIMIEUX", "NANTUA", "OYONNAX", "PERONNAS", "REPLONGES",
         "SEYSSEL", "THOIRY", "VONNAS"]
TOWN_SECOND_WORDS = ["", " PLAGE", " BOURG"]
VILLE = re.compile(r"VILLE(\d+)")


def town(match: re.Match) -> str:
    n = int(match[1])
    return TOWNS[n % len(TOWNS)] + TOWN_SECOND_WORDS[n // len(TOWNS) % len(TOWN_SECOND_WORDS)]


def rename_towns(path: Path, column: str, misspell_every: int = 0) -> None:
    """Rewrite a comma-separated file in place, every `VILLE<n>` of its
    column written as its town, and the last letter of every
    misspell_every-th row's cell changed."""
    def edit(at, rows):
        for n, row in enumerate(rows, start=1):
            if len(row) > at[column]:  # the corpus's malformed line is short
                cell = VILLE.sub(town, row[at[column]])
                if misspell_every and n % misspell_every == 0 and cell:
                    cell = cell[:-1] + ("A" if cell[-1] != "A" else "E")
                row[at[column]] = cell

    edit_csv(path, edit)


def distinct_cities(config: Path) -> None:
    """Rewrite a case's lot, registry facility and postal files in place,
    every `VILLE<n>` city written as its town, and every 3rd lot row's
    winner town and every 5th row's buyer town spelled one letter wrong."""
    inputs = json.loads(config.read_text(encoding="utf-8"))["inputs"]
    rename_towns(Path(inputs["lots"][0]), "WIN_TOWN", 3)
    rename_towns(Path(inputs["lots"][0]), "CAE_TOWN", 5)
    rename_towns(Path(inputs["registry_facilities"]), "CITY")
    rename_towns(Path(inputs["postal"]), "city")


# the number-styles case's award values: (grouping, decimal point, cell)
NUMBER_STYLES = [(".", ",", "{} €"), ("'", ".", "EUR {}"), ("\u00a0", ",", "{} HT"),
                 (",", ".", "{}")]


def number_styles(config: Path) -> None:
    """Rewrite a case's lot file in place, the AWARD_VALUE_EURO cell of
    the nth row in the nth of NUMBER_STYLES, round robin. A whole amount
    gains a `00` decimal part where a mark groups, since a lone `48.823` is
    a decimal."""
    path = Path(json.loads(config.read_text(encoding="utf-8"))["inputs"]["lots"][0])

    def restyle(at, rows):
        for n, row in enumerate(rows):
            if len(row) > at["AWARD_VALUE_EURO"] and row[at["AWARD_VALUE_EURO"]]:
                grouping, point, cell = NUMBER_STYLES[n % len(NUMBER_STYLES)]
                # the corpus writes `1234567` or `1234 567,89`
                whole, _, fraction = row[at["AWARD_VALUE_EURO"]].replace(" ", "").partition(",")
                number = f"{int(whole):,}".replace(",", grouping)
                if fraction or grouping in ".,":
                    number += point + (fraction or "00")
                row[at["AWARD_VALUE_EURO"]] = cell.format(number)

    edit_csv(path, restyle)


def export_src(ref: str, dest: Path) -> Path:
    """REF's src/ written under dest; the path of that src/."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref, "src"], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        print(f"same_bytes: {archive.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def run_cli(src: Path, config: Path, out: Path, commands: list[list[str]]) -> str | None:
    """Run each tedclean command in turn from a source tree; None, or why
    the first that failed failed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for command in commands:
        argv = [sys.executable, "-m", "tedclean.cli", *command,
                "--config", str(config), "--out", str(out)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            return f"{command[0]} exit {proc.returncode}: {last}"
    return None


def files_under(top: Path) -> dict[str, Path]:
    return {str(p.relative_to(top)): p for p in top.rglob("*") if p.is_file()}


def differing(ref: Path, here: Path) -> list[tuple[str, str]]:
    """(relative path, how it differs) of each path present in only one
    tree, "only in ref" or "only here", or with "bytes differ"."""
    left, right = files_under(ref), files_under(here)
    found = []
    for rel in sorted(left.keys() | right.keys()):
        if rel not in right:
            found.append((rel, "only in ref"))
        elif rel not in left:
            found.append((rel, "only here"))
        elif left[rel].read_bytes() != right[rel].read_bytes():
            found.append((rel, "bytes differ"))
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_bytes.py REF", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]
    from run import WORKLOADS, make_inputs

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        work = Path(tmp)
        sides = {"ref": export_src(argv[0], work / "ref"), "here": ROOT / "src"}
        pipeline = [["pipeline", "--mask"]]
        cases = [(f"{name}-{seed}", workload, seed, None, pipeline)
                 for name, workload in WORKLOADS.items() for seed in SEEDS]
        cases.append(("mask-0-remapped", WORKLOADS["mask"], 0, remap_inputs, pipeline))
        cases.append(("mask-0-recased", WORKLOADS["mask"], 0, recase_config, pipeline))
        cases.append(("mask-0-noisy-zipcodes", WORKLOADS["mask"], 0, noise_zipcodes, pipeline))
        cases.append(("mask-0-registry-variety", WORKLOADS["mask"], 0, vary_registry, pipeline))
        cases.append(("mask-0-quoted-crlf", WORKLOADS["mask"], 0, quote_split_lots, pipeline))
        cases.append(("mask-0-awkward-cells", WORKLOADS["mask"], 0, awkward_cells, pipeline))
        cases.append(("mask-0-thresholds", WORKLOADS["mask"], 0, loosen_thresholds, pipeline))
        cases.append(("mask-0-distinct-cities", WORKLOADS["mask"], 0, distinct_cities, pipeline))
        cases.append(("mask-0-number-styles", WORKLOADS["mask"], 0, number_styles, pipeline))
        cases.append(("dense-0", DENSE, 0, None, pipeline))
        cases += [(f"{name}-0-plain", WORKLOADS[name], 0, None, [["pipeline"]])
                  for name in ("match", "bulk")]
        cases.append(("mask-0-stage-by-stage", WORKLOADS["mask"], 0, None, STAGE_BY_STAGE))
        for case_name, workload, seed, rewrite, commands in cases:
            case = work / case_name
            config, _, _ = make_inputs(case / "in", workload, seed)
            if rewrite:
                rewrite(config)
            found = [
                f"{case.name}: {side} side {failure}"
                for side, src in sides.items()
                if (failure := run_cli(src, config, case / side, commands))
            ]
            found += [f"{case.name}/{rel}: {how}"
                      for rel, how in differing(case / "ref", case / "here")]
            print(f"{case.name}: {'differs' if found else 'same bytes'}", file=sys.stderr)
            problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
