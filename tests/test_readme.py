import os
import re
import subprocess
import sys
from pathlib import Path

import g2i

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(g2i.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert 0.0 <= float(proc.stdout) <= 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.g2t"]
