"""README's library example runs as written, so an API change cannot
leave it stale."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_first_python_block_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README.md has no python block"
    exec(compile(block.group(1), f"{README}:python", "exec"), {"__name__": "readme"})
    recall_s, ndcg_t = map(float, capsys.readouterr().out.split())
    assert 0.0 <= recall_s <= 1.0 and 0.0 <= ndcg_t <= 1.0
