"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs_in_a_fresh_namespace(code):
    exec(compile(code, str(README), "exec"), {})
