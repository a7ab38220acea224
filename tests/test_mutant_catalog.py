"""The mutation catalog, mutants/catalog.py, is current: each entry's old
text occurs exactly once in its file, and each test it names is defined
where the node id says.  Nothing is mutated or run here; a refactor that
moves a mutated text fails this test, not only `python3 mutants/run.py`.
"""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def catalog() -> list[dict]:
    spec = importlib.util.spec_from_file_location("catalog", ROOT / "mutants" / "catalog.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def is_defined(path: pathlib.Path, name: str) -> bool:
    """Whether the test file defines test_x (at the top level) or
    Class::test_x (a method of a top-level class), a parameter list dropped."""
    *cls, func = name.split("[")[0].split("::")
    source = path.read_text() if path.is_file() else ""
    if not cls:
        return re.search(rf"^def {func}\(", source, re.M) is not None
    body = re.search(rf"^class {cls[0]}\b.*?(?=^\S|\Z)", source, re.M | re.S)
    return body is not None and re.search(rf"^    def {func}\(", body[0], re.M) is not None


def test_every_mutant_is_current():
    mutants, stale = catalog(), []
    assert len({m["name"] for m in mutants}) == len(mutants)
    for mutant in mutants:
        count = (ROOT / mutant["file"]).read_text().count(mutant["old"])
        if count != 1 or mutant["new"] == mutant["old"]:
            stale.append(f"{mutant['name']}: old text found {count} times in {mutant['file']}")
        for node_id in mutant["tests"]:
            file, _, name = node_id.partition("::")
            if not is_defined(ROOT / file, name):
                stale.append(f"{mutant['name']}: no test {node_id}")
    assert not stale, "\n".join(stale)
