"""The README's python examples run as written against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 2  # the library tour, then the AVaR counterexample
    namespace: dict = {}
    for block in blocks:  # the second block reuses names from the first
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["classify"](namespace["avar"]).completely_alternating is False
