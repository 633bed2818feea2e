"""Smoke tests for the example scripts.

Each example is importable with a ``main``; the cheapest one runs end
to end here.  The longer ones each simulate several seconds of trading;
CI's ``test`` job runs every ``examples/*.py`` to exit 0.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        assert set(EXAMPLES) >= {
            "quickstart",
            "fairness_lab",
            "resilient_submission",
            "historical_data",
            "regulated_exchange",
        }

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example_defines_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None)), f"{name}.py needs a main()"

    def test_quickstart_runs(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Exchange report" in out
        assert "inbound_unfairness" in out
