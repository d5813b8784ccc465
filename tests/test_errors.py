"""The error taxonomy: every leaf sits under one family, and each family has
one CLI exit code."""
import inspect

import pytest

import p2l.cli
from p2l import errors
from p2l.errors import InputError, P2LError, ReferentialError, StateError

FAMILIES = (InputError, StateError, ReferentialError)
LEAVES = sorted((cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, P2LError) and cls not in (P2LError, *FAMILIES)),
                key=lambda cls: cls.__name__)

# Exit code of every leaf, pinned: a leaf that moves family changes the CLI.
EXIT_CODES = {
    "BadHeader": 2, "BadMagic": 2, "BadSpec": 2, "DegenerateConstantInput": 2,
    "DimensionMismatch": 2, "DuplicateSourceName": 2, "EmptyCandidates": 2,
    "EmptyMatrix": 2, "InconsistentScratch": 2, "InvalidName": 2,
    "LengthMismatch": 2, "MissingSeed": 2,
    "MixedExtractors": 2, "MixedSummarizers": 2, "NegativeComponent": 2,
    "NegativeMass": 2, "NonFiniteValue": 2, "NonPositiveComponent": 2,
    "NonPositiveEpsilon": 2, "RaggedRow": 2, "TooFewSources": 2,
    "TruncatedFile": 2, "UnsupportedVersion": 2, "ZeroDenominator": 2,
    "NameCollision": 3,
    "MissingReference": 4, "NotFound": 4, "UnknownName": 4, "UnknownSource": 4,
}


def test_every_leaf_is_pinned():
    assert sorted(cls.__name__ for cls in LEAVES) == sorted(EXIT_CODES)


@pytest.mark.parametrize("leaf", LEAVES, ids=lambda cls: cls.__name__)
def test_leaf_has_one_family_and_its_pinned_exit_code(leaf, monkeypatch, capsys,
                                                      tmp_path):
    assert sum(issubclass(leaf, family) for family in FAMILIES) == 1

    def fail(args):
        raise leaf("boom")

    monkeypatch.setattr(p2l.cli, "cmd_merge", fail)
    code = p2l.cli.main(["merge", "--registry", str(tmp_path), "--name", "m",
                         "--members", "a,b"])
    assert code == EXIT_CODES[leaf.__name__]
    assert capsys.readouterr().err == "p2l: error: boom\n"
