"""README's Python examples run as written and do what their comments say."""

import re
import shutil
from fractions import Fraction
from pathlib import Path

from dimlab import cylinder

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    (ROOT / "README.md").read_text("utf-8"), re.M | re.S)


def test_library_example():
    assert len(BLOCKS) == 2
    names = {}
    exec(BLOCKS[0], names)
    q = names["q"]
    assert names["word"] == (1, 0, 1)
    cyl = cylinder(q, names["word"])
    assert (cyl.left, cyl.right) == (Fraction(7, 16), Fraction(5, 8))
    assert names["locate"](q, "1/2", 3) == cyl
    lo, hi = names["f_xi_point"](q, names["p"], "1/2", "1/1000")
    assert lo <= hi and hi - lo <= Fraction(1, 1000)


def test_scenario_example(tmp_path, monkeypatch):
    fixture = Path("tests", "fixtures", "cantor_dimension.json")
    (tmp_path / fixture.parent).mkdir(parents=True)
    shutil.copy(ROOT / fixture, tmp_path / fixture)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(BLOCKS[1], names)
    assert names["report"].failed is False
    paths = [Path(path) for path in names["paths"]]
    assert paths[0] == Path("out", "report.json")
    assert all(path.is_file() and path.parent == Path("out")
               for path in paths)
    assert any(path.suffix == ".dat" for path in paths)
