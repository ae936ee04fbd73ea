"""The reachability gate's kept list names functions that exist.

``scripts/unreached.py`` fails its full pass when an unreached function is
missing from ``KEPT``, or a ``KEPT`` entry is gone or now reached; that
pass runs every entry point and takes many minutes.  These tests walk the
AST only, so a rename or a deletion that orphans a ``KEPT`` entry fails
here at once.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def unreached():
    spec = importlib.util.spec_from_file_location(
        "unreached", ROOT / "scripts" / "unreached.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def inventory(unreached):
    return {
        (path.relative_to(unreached.PACKAGE).as_posix(), qualname)
        for path in unreached.PACKAGE.rglob("*.py")
        for _first, qualname, _start, _end in unreached.functions(path)
    }


def test_every_kept_name_resolves(unreached, inventory):
    gone = [(path, name) for path, name, _reason in unreached.KEPT if (path, name) not in inventory]
    assert gone == []


def test_each_kept_entry_once_with_a_stated_reason(unreached):
    reasons = {
        unreached.FAULT,
        unreached.VALIDATION,
        unreached.REFERENCE,
        unreached.INTERFACE,
        unreached.REPR,
        unreached.STOP,
    }
    keys = [(path, name) for path, name, _reason in unreached.KEPT]
    assert len(keys) == len(set(keys))
    assert {reason for _path, _name, reason in unreached.KEPT} <= reasons
    assert all(
        reason == unreached.REPR
        for _path, name, reason in unreached.KEPT
        if name.endswith(".__repr__")
    )


def test_judge_names_the_three_failures(unreached, monkeypatch):
    monkeypatch.setattr(
        unreached,
        "KEPT",
        (("a.py", "kept_unreached", unreached.FAULT),
         ("a.py", "kept_reached", unreached.FAULT),
         ("a.py", "kept_gone", unreached.FAULT)),
    )
    inventory = {("a.py", "kept_unreached"), ("a.py", "kept_reached"), ("a.py", "new")}
    problems = unreached.judge({("a.py", "kept_unreached"), ("a.py", "new")}, inventory)
    assert problems == [
        "not in KEPT: a.py  new",
        "KEPT but gone: a.py  kept_gone",
        "KEPT but reached (delete the entry): a.py  kept_reached",
    ]
    assert unreached.judge({("a.py", "kept_unreached")}, inventory - {("a.py", "new")}) == [
        "KEPT but gone: a.py  kept_gone",
        "KEPT but reached (delete the entry): a.py  kept_reached",
    ]
