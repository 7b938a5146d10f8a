"""The demos and the README's library quickstart run and print what they
say they print."""

import ast
import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each demo's stdout: a change that moves one moves a number,
# a verdict or a line that the demo prints
DEMO_STDOUT_SHA256 = {
    "duality_tour.py": "7b709fdabd96a99530d8099fab3cd5ceb3a1e3d83cb109ca0af332ccec57a692",
    "e2_pages.py": "0abb8a8bbb0727163db5d14ed18dc3f21b56a02ee677207059c682099ea4d2b8",
    "resolve_and_regularity.py": "1c5cf88d4731654018783a4eb617a8fd588cfe4cbe958e4d0224948eaffa35d4",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                         capture_output=True, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]


def test_readme_quickstart_prints_what_its_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    # the first word of each print line's comment is the value it prints,
    # but for the generator list, which the comment describes
    said = [line.split("#", 1)[1].split()[0] for line in code.splitlines() if line.startswith("print(")]
    assert said == ["six", "0", "True", "1", "0"]
    assert printed[1:] == said[1:]
    gens = ast.literal_eval(printed[0])
    assert len(gens) == 6 and all(degree == 0 for _, degree in gens)
