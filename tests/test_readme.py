import re
from fractions import Fraction
from pathlib import Path
from types import ModuleType

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
    assert namespace["z"] == namespace["sc"].chart("z")
    assert namespace["tf"] == namespace["sc"].testform("z")
    from residuelab.mellin import chart_sum

    assert namespace["parts"] == chart_sum(namespace["sc"])[0]


def test_all_exports_no_module():
    # `from residuelab import *` gives the API, not the submodules behind it
    import residuelab

    assert residuelab.__all__
    assert not [n for n in residuelab.__all__ if isinstance(getattr(residuelab, n), ModuleType)]
