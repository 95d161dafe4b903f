"""Every backticked dotted name in README.md resolves, so a deleted or
renamed name cannot stay documented.  A name is checked when its head is
``denpds`` or a class exported by ``denpds``, ``denpds.verify`` or
``denpds.coding``; each further part must be a module or an attribute,
which includes a slot of a record class."""

import importlib
import re
from pathlib import Path

import denpds
from denpds import coding, verify

README = Path(__file__).resolve().parent.parent / "README.md"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
CLASSES = {
    name: obj
    for module in (denpds, verify, coding)
    for name, obj in vars(module).items()
    if isinstance(obj, type)
}


def readme_names() -> list[str]:
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)  # code blocks run elsewhere
    return [span for span in re.findall(r"`([^`\n]+)`", text) if DOTTED.fullmatch(span)]


def resolves(name: str) -> bool:
    head, *rest = name.split(".")
    obj = denpds if head == "denpds" else CLASSES[head]
    path = head
    for part in rest:
        path += "." + part
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            try:
                obj = importlib.import_module(path)
            except ModuleNotFoundError:
                return False
    return True


def test_readme_dotted_names_resolve():
    checked = [n for n in readme_names() if n.split(".")[0] == "denpds" or n.split(".")[0] in CLASSES]
    assert checked, "README names nothing of the package"
    assert [n for n in checked if not resolves(n)] == []


def test_a_stale_name_is_caught():
    assert not resolves("denpds.ff.kernel_basis")
    assert not resolves("denpds.ff.row_keys") and not resolves("denpds.ff.rank")
    assert not resolves("GroupIndexer.index_of_char_table")
    assert not resolves("denpds.nosuchmodule")
    assert resolves("PdsSet.elements") and resolves("Tower.indexer")
