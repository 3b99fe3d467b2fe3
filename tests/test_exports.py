"""The package's export list names exactly what it binds, and the README's
example runs as written."""

import re
import types
from pathlib import Path

import nia

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_matches_public_names():
    bound = {
        name
        for name, value in vars(nia).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(nia.__all__) == len(set(nia.__all__))
    assert set(nia.__all__) == bound


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("excess loss: ")
