"""README's code examples run against the package as it is."""

import json
import re
from pathlib import Path

import pytest

from dubins3d.scenarios import parse_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def test_readme_python_example_runs():
    assert blocks("python")
    for code in blocks("python"):
        exec(compile(code, "README.md", "exec"), {})


@pytest.mark.filterwarnings("error")
def test_readme_scenario_example_parses():
    assert blocks("json")
    for text in blocks("json"):
        parse_scenario(json.loads(text))
