import contextlib
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import kllab
from kllab import dist, mara, targets, trainer
from kllab.scenario_io import scenario_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(kllab.__all__)) == len(kllab.__all__)
    for name in kllab.__all__:
        assert not isinstance(getattr(kllab, name), types.ModuleType), name


def test_importing_the_cli_loads_no_pool_json_or_argparse():
    # each loads inside the function that uses it: a worker pool, a scenario
    # file, a command line; every start that imports kllab.cli skips them
    env = {**os.environ, "PYTHONPATH": str(Path(kllab.__file__).parents[1])}
    script = ("import sys, kllab, kllab.cli; "
              "print(sorted({'concurrent.futures', 'json', 'argparse'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


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


def _readme_block(section: str, language: str) -> str:
    """The first ``language`` code block under the README heading ``section``."""
    text = README.read_text().split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_readme_library_example_runs_and_converges():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_readme_block("Library", "python"), "README.md", "exec"), {})
    # the last line it prints is the trained policy's final TV to its target
    assert float(out.getvalue().splitlines()[-1]) < 0.01


def test_readme_scenario_config_loads():
    s = scenario_from_dict(json.loads(_readme_block("Scenarios", "json")))
    assert s.name == "my_scenario" and s.n == 100
