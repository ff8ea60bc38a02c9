"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Quick start (library)\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["result"].embedding.shape == (1000, 2)
    assert scope["projected"].shape == (200, 2)
    assert 0.0 < scope["gs"] <= 1.0 and 0.0 <= scope["acc"] <= 1.0
    assert scope["model"].sigma_low == scope["result"].model.sigma_low
    assert (tmp_path / "roll.model.json").exists()
