"""docs/API.md is exactly what ``tools/gen_api_docs.py`` renders.

The reference is committed so it reads without tooling; this test makes
a public signature or docstring change without regenerating it fail
tier-1.  The generator is loaded by path (``tools/`` is not a package).
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "_gen_api_docs", ROOT / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen_api_docs = _load_generator()


def test_api_reference_is_current():
    committed = (ROOT / "docs" / "API.md").read_text()
    assert committed == gen_api_docs.render(), (
        "docs/API.md is stale: run python tools/gen_api_docs.py"
    )


def test_every_public_module_is_documented():
    names = gen_api_docs.module_names()
    for name in ("repro.serve.replication", "repro.resilience.retry",
                 "repro.obs.metrics", "repro.io.checksum",
                 "repro.io.policies", "repro.io.hooks"):
        assert name in names
    assert not [n for n in names if "._" in n]


def test_generator_takes_no_options(capsys):
    with pytest.raises(SystemExit) as exc:
        gen_api_docs.main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        gen_api_docs.main(["--no-such-option"])
    assert exc.value.code == 2
