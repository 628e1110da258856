"""The README's Python examples run as written, in order, in one namespace,
and its JSON run config parses as a run config."""

import json
import math
import re
from pathlib import Path

from loggas.cli import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_python_blocks_run(capsys):
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the values the README's comments quote
    ks, energy = (float(line) for line in capsys.readouterr().out.split())
    assert ks <= 0.05
    assert abs(energy - math.log(2)) <= 0.05


def test_json_config_parses():
    # the full sampling config, then the same run with the custom potential
    full, potential = _blocks("json")
    config = parse_config(full)
    assert config.command == "sample"
    assert config.settings["chain"] == json.loads(full)["chain"]  # every key given
    raw = json.loads(full)
    raw["model"].update(json.loads("{" + potential + "}"))
    assert parse_config(json.dumps(raw)).model.potential.poly == (0.0, 0.0, 1.0)
