"""Shared conventions for the ``python -m repro`` subcommand family.

Every subcommand speaks the same exit-code dialect and emits machine
output the same way, so callers (CI, scripts, and the ``repro.serve``
control plane, which shell-shares these runners) can treat them
uniformly:

======================  ================================================
exit code               meaning
======================  ================================================
:data:`EXIT_OK` (0)     the run completed and passed every check
:data:`EXIT_FAILURE`    the run completed but something it measured
(1)                     failed -- invariant violations under
                        ``chaos --strict``, failed sweep tasks,
                        evidence-pack verification problems
:data:`EXIT_USAGE` (2)  the invocation itself was invalid (argparse's
                        own convention; usage errors never masquerade
                        as measurement failures)
======================  ================================================

JSON output always goes through :func:`emit_json`: one document, keys
sorted, two-space indent, trailing newline -- so ``--json`` files are
byte-comparable across subcommands, job counts, and the served
evidence packs built from the same documents.  What is hashed or
signed -- run ids, cache keys, certificate signatures, grid point ids
-- is :func:`canonical_json`'s compact form.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def usage_error(message: object) -> int:
    """Report an invalid invocation: one ``error:`` line on stderr,
    :data:`EXIT_USAGE` for the caller to return."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def add_json_flag(parser: argparse.ArgumentParser, help: str) -> None:
    """Give ``parser`` the family's one ``--json [PATH]`` flag: bare (or
    ``-``) means stdout.  Pass ``args.json`` to :func:`emit_json`."""
    parser.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help=f"{help} (no PATH = stdout)",
    )


def dump_json_document(document: object) -> str:
    """The canonical serialized form shared by every ``--json`` flag
    and every evidence-pack ``report.json``."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def canonical_json(value: object) -> str:
    """The compact canonical form: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def emit_json(document: object, path: Optional[str]) -> None:
    """Write ``document`` canonically to ``path`` (``'-'`` = stdout).

    ``path=None`` is a no-op so callers can pass the ``--json``
    argument straight through.
    """
    if path is None:
        return
    text = dump_json_document(document)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
