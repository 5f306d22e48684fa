import re
import types
from pathlib import Path

import kllab
from kllab import dist, mara, targets, trainer

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(kllab.__all__)) == len(kllab.__all__)
    for name in kllab.__all__:
        assert not isinstance(getattr(kllab, name), types.ModuleType), name


def test_readme_library_names_are_exported():
    library = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"from kllab import \((.*?)\)", library, re.S).group(1)
    names = {n.strip() for n in block.split(",") if n.strip()}
    # names the prose puts in backticks, as `name(...)`, `name.attr` or
    # `name`, that one of the library modules defines
    for word in re.findall(r"`([A-Za-z_]\w*)[`(.]", library):
        if any(
            getattr(getattr(m, word, None), "__module__", None) == m.__name__
            for m in (dist, mara, targets, trainer)
        ):
            names.add(word)
    assert {"Scenario", "TargetSpec", "train", "mc_gradient"} <= names
    assert names - set(kllab.__all__) == set()
