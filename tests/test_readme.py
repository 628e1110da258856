"""The README's Python examples run as written, in order, in one namespace."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the values the README's comments quote
    ks, energy = (float(line) for line in capsys.readouterr().out.split())
    assert ks <= 0.05
    assert abs(energy - math.log(2)) <= 0.05
