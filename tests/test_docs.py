"""The README's Library table, config example and Results table against the package."""

import csv
import importlib
import json
import re
import statistics
from pathlib import Path

import propeq
from propeq import default_scenario, scenario_to_dict

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
GOLDEN = ROOT / "perfbench" / "golden.csv"


def section(heading, text=None):
    """The README text after ``heading``, up to the next heading of any level."""
    text = README.read_text(encoding="utf-8") if text is None else text
    after = re.split(rf"^{re.escape(heading)}$", text, maxsplit=1, flags=re.M)[1]
    return re.split(r"^#+ ", after, flags=re.M)[0]


def table_rows(text):
    """The cells of each row of the first markdown table in ``text``, header and rule left out."""
    rows = re.findall(r"^\|(.*)\|$", text, re.M)
    return [[cell.strip() for cell in row.split("|")] for row in rows[2:]]


def library_table(text=None):
    """{module: names} from the rows of the README's Library table.

    An entry is read as its name, also where it is written with arguments
    (`` `rx_spectrum(cfg)` ``); backticked text that is not a name is skipped.
    """
    rows = table_rows(section("## Library", text))
    return {row[0].strip("`"): re.findall(r"`(\w+)(?:\([^`]*\))?`", row[1]) for row in rows}


def unimportable(table):
    """The ``module.name`` entries of ``table`` that their module does not define."""
    return [f"{module}.{name}" for module, names in table.items()
            for name in names if not hasattr(importlib.import_module(module), name)]


def test_library_table_names_are_importable_from_their_modules():
    table = library_table()
    assert "rx_spectrum" in table["propeq.pipeline"]
    assert all(table.values()), table
    assert unimportable(table) == []


def test_a_misspelled_entry_written_with_arguments_is_not_importable():
    readme = ("## Library\n\n| module | contents |\n| --- | --- |\n"
              "| `propeq.pipeline` | `rx_spectrum(cfg)`, `rx_spectrm(cfg)`, `--stage rx` |\n")
    table = library_table(readme)
    assert table == {"propeq.pipeline": ["rx_spectrum", "rx_spectrm"]}
    assert unimportable(table) == ["propeq.pipeline.rx_spectrm"]


def test_library_table_lists_every_public_name():
    listed = {name for names in library_table().values() for name in names}
    assert set(propeq.__all__) <= listed, sorted(set(propeq.__all__) - listed)


def test_config_example_is_the_default_scenario():
    example = re.search(r"```json\n(.*?)```", section("### Config file"), re.S).group(1)
    assert json.loads(example) == scenario_to_dict(default_scenario())


def test_results_table_is_the_golden_default_sweep():
    # per rate, the medians over the seeds of |DDM - truth|, raw and equalized
    truth = default_scenario().ils.ddm
    devs = {}
    with open(GOLDEN, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["workload"] == "sweep_default":
                pair = (abs(float(row["ddm_raw"]) - truth), abs(float(row["ddm_eq"]) - truth))
                devs.setdefault(float(row["f_p"]), []).append(pair)
    medians = {f: [statistics.median(d) for d in zip(*pairs)] for f, pairs in devs.items()}
    ratios = sorted((raw / eq, f) for f, (raw, eq) in medians.items())
    wins = sum(eq < raw for raw, eq in medians.values())
    want = [
        f"{wins} of {len(medians)}",
        f"{statistics.median(raw for raw, _ in medians.values()):.3e}",
        f"{statistics.median(eq for _, eq in medians.values()):.3e}",
        "{:.3g}× at {:g} Hz".format(*ratios[-1]),
        "{:.3g}× at {:g} Hz".format(*ratios[0]),
    ]
    assert table_rows(section("## Results")) == [["default", *want]]
