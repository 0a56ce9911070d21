"""The README's Library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    library = text[text.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block is not None, "no python block in the README's Library section"
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})
