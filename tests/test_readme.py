"""The README's examples, run as documented: the library example prints
its `# ...` lines, and `gw cohomology` prints the `#   ...` lines under
it."""
import contextlib
import io
import os
import re

from groundwork.cli import main

with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md"), encoding="utf-8") as fh:
    README = fh.read()


def test_library_example_prints_its_comment_lines():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == \
        re.findall(r"^# (.*)$", code, re.M)


def test_cohomology_command_prints_the_lines_under_it():
    m = re.search(r"^gw (cohomology .*)\n((?:#   .*\n)+)", README, re.M)
    out = io.StringIO()
    assert main(m.group(1).split(), out=out) == 0
    assert out.getvalue().splitlines() == \
        [line[len("#   "):] for line in m.group(2).splitlines()]
