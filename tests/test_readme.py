"""The README's library quick start, run as written, so it follows the API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Quick start (library)", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, f"{README}: quick start", "exec"), namespace)
    # Both engines ran, and the harness run passed.
    assert namespace["solution"].converged and namespace["report"].fit is not None
    assert namespace["run"].all_passed
