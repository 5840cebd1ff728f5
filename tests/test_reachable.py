"""Every public function, class, method and property of entroprod is
reached: its name is used somewhere in src/, tests/ or bench/ other than in
its own `def` or `class` line, so code that nothing calls does not stay.

The check goes by name, over the identifiers of the code (not its comments
or strings); a method or property counts as used only where it is read as
an attribute, `x.name`.  It cannot see a member that shares its name with a
member of another class (two classes' `dim`, `to_json`): one use of the
name keeps both."""

import importlib
import inspect
import io
import pkgutil
import tokenize
from collections import Counter
from pathlib import Path

import entroprod

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ("src", "tests", "bench")


def _public_members():
    """(qualified name, name as used) of every public function, class,
    method and property defined in an entroprod module; a member's name as
    used is ".name"."""
    for info in pkgutil.iter_modules(entroprod.__path__):
        module = importlib.import_module(f"entroprod.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module.__name__}.{name}", name
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)     # classmethod, staticmethod
                    if not attr.startswith("_") and (inspect.isfunction(fn)
                                                     or isinstance(member, property)):
                        yield f"{module.__name__}.{name}.{attr}", f".{attr}"


def _used_names():
    """How often each identifier occurs in the code of the corpus, as
    "name" and, read as an attribute, also as ".name"; the name that a
    `def` or `class` line defines is left out."""
    used = Counter()
    for top in CORPUS:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = io.StringIO(path.read_text(encoding="utf-8"))
            previous = None
            for tok in tokenize.generate_tokens(source.readline):
                if tok.type == tokenize.NAME and previous not in ("def", "class"):
                    used[tok.string] += 1
                    if previous == ".":
                        used["." + tok.string] += 1
                if tok.type in (tokenize.NAME, tokenize.OP):
                    previous = tok.string
    return used


def test_every_public_member_is_reached():
    used = _used_names()
    assert sorted(qual for qual, name in _public_members() if not used[name]) == []
