"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_one_namespace():
    """Every ```python block, in order, in one namespace: later blocks
    use names the first one defines. The first runs 100,000 trials."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    res = namespace["res"]
    assert not res.censored and res.route[0] == (0, 0.0)
    assert res.route[-1] == (res.target.line_id, res.target.arc_coord)
