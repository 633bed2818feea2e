"""Every backticked dotted ``repro.…`` path in the docs must resolve.

README.md, DESIGN.md and EXPERIMENTS.md name modules, classes and
functions as `` `repro.pkg.mod.Name` ``.  Each such path is resolved
here by importing the longest importable module prefix and walking the
rest with ``getattr`` -- so deleting or renaming what a doc sentence
points at fails tier-1 instead of leaving the sentence stale.  The
same goes for commands: every ``python -m repro <word>`` names a
subcommand the dispatcher knows; and for options: every
`` `config.<name>` `` and every ``<name>=`` inside a backticked
``CloudExConfig(...)`` / ``small_config(...)`` is a config field.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
_REF = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
_COMMAND = re.compile(r"python3? -m repro\s+([A-Za-z][A-Za-z0-9-]*)")
_CONFIG_ATTR = re.compile(r"`config\.([A-Za-z_][A-Za-z0-9_]*)`")
_CONFIG_CALL = re.compile(r"`(?:CloudExConfig|small_config)\(([^`]*)\)`")
_KEYWORD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=")


def doc_refs():
    """Sorted unique ``(doc, dotted path)`` pairs."""
    return sorted(
        (doc, ref) for doc in DOCS for ref in set(_REF.findall((ROOT / doc).read_text()))
    )


def resolve(path: str):
    """Import the longest module prefix of ``path``, getattr the rest."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(path)


def test_docs_name_repro_paths():
    assert len(doc_refs()) > 50  # the pattern still finds the references


@pytest.mark.parametrize("doc, ref", doc_refs(), ids=lambda value: value)
def test_doc_reference_resolves(doc, ref):
    try:
        resolve(ref)
    except (ModuleNotFoundError, AttributeError) as exc:
        pytest.fail(f"{doc} names `{ref}`, which does not resolve: {exc}")


@pytest.mark.parametrize("doc", DOCS)
def test_doc_commands_name_subcommands(doc):
    from repro.__main__ import SUBCOMMANDS

    words = set(_COMMAND.findall((ROOT / doc).read_text()))
    assert words  # the pattern still finds the commands
    assert words <= set(SUBCOMMANDS), sorted(words - set(SUBCOMMANDS))


def test_docs_name_config_fields():
    from repro.core.config import CloudExConfig

    named = set()
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        named.update((doc, name) for name in _CONFIG_ATTR.findall(text))
        for arguments in _CONFIG_CALL.findall(text):
            named.update((doc, name) for name in _KEYWORD.findall(arguments))
    assert len(named) >= 5  # the patterns still find the fields
    fields = {field.name for field in dataclasses.fields(CloudExConfig)}
    assert not sorted(pair for pair in named if pair[1] not in fields)
