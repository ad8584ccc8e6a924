import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_block_runs():
    # an API deletion that breaks the documented entry points fails here
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    cert = namespace["cert"]
    assert [str(f) for f in cert.sorted_forms()] == ["L1+L2"]
    assert cert.halfspace.eps == Fraction(1, 3)
    assert namespace["trace"].analytic
