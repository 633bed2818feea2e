"""Every ``bench/layers.py`` row must still name a function in ``src/``.

The tracer skips a row whose target no longer resolves with one stderr
line, and the layer's metrics read ``null`` from then on -- visible only
in a traced run, which tier-1 and ``bench/tests`` never make.  This
reads the table (``bench/`` itself is not edited here) and resolves each
target the way :class:`bench.trace.Tracer` does, so a rename in ``src/``
fails here first.
"""

from bench.layers import BOUNDARIES
from bench.trace import _resolve


def test_every_boundary_target_resolves():
    assert BOUNDARIES
    unresolved = []
    for boundary in BOUNDARIES:
        try:
            _resolve(boundary.target)
        except (ImportError, AttributeError, TypeError) as exc:
            unresolved.append(f"{boundary.target}: {exc!r}")
    assert not unresolved, "\n".join(unresolved)
